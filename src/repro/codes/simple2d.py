"""The running example of Figure 1: a 3-point 2-D recurrence.

::

    for i = 1..n:
      for j = 1..m:
        A[i,j] = f( A[i-1,j], A[i,j-1], A[i-1,j-1] )

Row 0 of ``A`` is initialised before the loop, column 0 holds one constant
(the ``row-or-constant`` input rule), and only row ``n`` is used
afterwards — so everything between is temporary.  The three storage
treatments of Figure 1:

- **natural** (1a): the full ``n x m`` array of temporaries;
- **OV-mapped** (1b): UOV ``(1,1)``, mapping ``(-1,1) . q + shift`` —
  ``n + m - 1`` interior locations (the paper's ``n+m+1`` counts the
  borders stored in the same buffer; see EXPERIMENTS.md);
- **storage optimized** (1c): rolling buffer of ``m + 2`` locations
  (``temp1``/``temp2`` plus one row), untilable.

Declared as :data:`SIMPLE2D_SPEC` and synthesized through the frontend.
"""

from __future__ import annotations

from typing import Mapping

from repro.codes.base import CodeVersion
from repro.frontend import SpecBuilder, synthesize_code
from repro.mapping import OVMapping, RollingBufferMapping, RowMajorMapping
from repro.schedule import LexicographicSchedule, TiledSchedule
from repro.util.polyhedron import Polytope

__all__ = ["make_simple2d", "SIMPLE2D_SPEC", "SIMPLE2D_UOV"]

SIMPLE2D_DISTANCES = ((1, 0), (0, 1), (1, 1))
SIMPLE2D_WEIGHTS = (0.3, 0.3, 0.4)  # up, left, diag
SIMPLE2D_UOV = (1, 1)
_COLUMN_CONSTANT = 0.5
DEFAULT_TILE = 16

#: The full declarative description of the Figure 1 recurrence.
SIMPLE2D_SPEC = (
    SpecBuilder("simple2d")
    .loop("i", 1, "n")
    .loop("j", 1, "m")
    .distances(*SIMPLE2D_DISTANCES)
    .weighted_sum(*SIMPLE2D_WEIGHTS)
    .inputs("row-or-constant", axis=1, constant=_COLUMN_CONSTANT)
    .costs(flops=5)
    .sizes(n=6, m=7)
    .uov(*SIMPLE2D_UOV)
    .build()
)


def _isg(sizes: Mapping[str, int]) -> Polytope:
    return Polytope.from_loop_bounds(SIMPLE2D_SPEC.bounds_fn(sizes))


def make_simple2d() -> dict[str, CodeVersion]:
    """The Figure 1 versions: natural / OV-mapped / storage-optimized,
    plus tiled variants of the tilable ones."""
    code = synthesize_code(SIMPLE2D_SPEC)
    stencil = code.stencil

    def tile_sizes(sizes):
        t = sizes.get("tile", DEFAULT_TILE)
        return (sizes.get("tile_h", t), sizes.get("tile_w", t))

    versions = {}

    def mk(key, label, mapping_factory, schedule_factory, storage, **kw):
        versions[key] = CodeVersion(
            key=key,
            label=label,
            code=code,
            mapping_factory=mapping_factory,
            schedule_factory=schedule_factory,
            storage_formula=storage,
            **kw,
        )

    mk(
        "natural",
        "Natural",
        lambda s: RowMajorMapping((s["n"], s["m"]), origin=(1, 1)),
        lambda s: LexicographicSchedule(),
        lambda s: s["n"] * s["m"],
    )
    mk(
        "natural-tiled",
        "Natural Tiled",
        lambda s: RowMajorMapping((s["n"], s["m"]), origin=(1, 1)),
        lambda s: TiledSchedule(tile_sizes(s)),
        lambda s: s["n"] * s["m"],
        tiled=True,
    )
    mk(
        "ov",
        "OV-Mapped",
        lambda s: OVMapping(SIMPLE2D_UOV, _isg(s)),
        lambda s: LexicographicSchedule(),
        lambda s: s["n"] + s["m"] - 1,
    )
    mk(
        "ov-tiled",
        "OV-Mapped Tiled",
        lambda s: OVMapping(SIMPLE2D_UOV, _isg(s)),
        lambda s: TiledSchedule(tile_sizes(s)),
        lambda s: s["n"] + s["m"] - 1,
        tiled=True,
    )
    mk(
        "storage-optimized",
        "Storage Optimized",
        lambda s: RollingBufferMapping(stencil, _isg(s)),
        lambda s: LexicographicSchedule(),
        lambda s: s["m"] + 2,
        tilable=False,
        notes="Figure 1(c): one row plus temp1/temp2",
    )
    return versions
