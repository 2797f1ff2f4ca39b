"""A 3-point Jacobi relaxation over time — an extension exercise.

Not in the paper's evaluation; included as a third stencil family to show
the pipeline end to end on a fresh input (and because 3-point Jacobi is
the canonical loop every storage-mapping paper since has used)::

    for t = 1..T:
      for x = 0..L-1:
        A[t][x] = 0.25*A[t-1][x-1] + 0.5*A[t-1][x] + 0.25*A[t-1][x+1]

Stencil ``{(1,-1), (1,0), (1,1)}``; the search finds the UOV ``(2, 0)``
(same shape as the 5-point stencil's: two rows), storage ``2L`` against
``T*L`` natural and ``L+2`` storage-optimized.

Declared as :data:`JACOBI_SPEC` (Dirichlet boundary = ``padded-line``
with one zero guard cell per side) and synthesized through the frontend.
"""

from __future__ import annotations

from typing import Mapping

from repro.codes.base import CodeVersion
from repro.frontend import SpecBuilder, synthesize_code
from repro.mapping import OVMapping, RollingBufferMapping, RowMajorMapping
from repro.schedule import LexicographicSchedule, TiledSchedule, required_skew
from repro.util.polyhedron import Polytope

__all__ = ["make_jacobi", "JACOBI_SPEC", "JACOBI_UOV"]

# Distance of reading A[t-1][x+dx] is (1, -dx); order matches the refs.
JACOBI_DISTANCES = ((1, 1), (1, 0), (1, -1))
JACOBI_WEIGHTS = (0.25, 0.5, 0.25)
JACOBI_UOV = (2, 0)

#: The full declarative description of the Jacobi loop.
JACOBI_SPEC = (
    SpecBuilder("jacobi")
    .loop("t", 1, "T")
    .loop("x", 0, "L-1")
    .distances(*JACOBI_DISTANCES)
    .weighted_sum(*JACOBI_WEIGHTS)
    .inputs("padded-line", axis=1, pad=1, pad_value=0.0)
    .costs(flops=5)
    .sizes(T=5, L=9)
    .uov(*JACOBI_UOV)
    .build()
)


def _isg(sizes: Mapping[str, int]) -> Polytope:
    return Polytope.from_loop_bounds(JACOBI_SPEC.bounds_fn(sizes))


def make_jacobi() -> dict[str, CodeVersion]:
    """Natural / OV-mapped / storage-optimized Jacobi, tiled variants too."""
    code = synthesize_code(JACOBI_SPEC)
    stencil = code.stencil
    skew = required_skew(stencil)

    def tile_sizes(sizes):
        return (sizes.get("tile_h", 8), sizes.get("tile_w", 64))

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
        lambda s: RowMajorMapping((s["T"], s["L"]), origin=(1, 0)),
        lambda s: LexicographicSchedule(),
        lambda s: s["T"] * s["L"],
    )
    mk(
        "ov",
        "OV-Mapped",
        lambda s: OVMapping(JACOBI_UOV, _isg(s), layout="consecutive"),
        lambda s: LexicographicSchedule(),
        lambda s: 2 * s["L"],
    )
    mk(
        "ov-tiled",
        "OV-Mapped Tiled",
        lambda s: OVMapping(JACOBI_UOV, _isg(s), layout="consecutive"),
        lambda s: TiledSchedule(tile_sizes(s), skew=skew),
        lambda s: 2 * s["L"],
        tiled=True,
    )
    mk(
        "storage-optimized",
        "Storage Optimized",
        lambda s: RollingBufferMapping(stencil, _isg(s)),
        lambda s: LexicographicSchedule(),
        lambda s: s["L"] + 2,
        tilable=False,
    )
    return versions
