"""The 5-point 1-D stencil over time (Section 5; Table 1, Figures 7, 9-11).

A 1-D array of length ``L`` is transformed over ``T`` time steps; each new
value is a weighted average of the element and its four neighbours one
time step earlier::

    for t = 1..T:
      for x = 0..L-1:
        A[t][x] = w0*A[t-1][x-2] + w1*A[t-1][x-1] + w2*A[t-1][x]
                + w3*A[t-1][x+1] + w4*A[t-1][x+2]

The stencil is ``{(1,-2), (1,-1), (1,0), (1,1), (1,2)}``; its optimal UOV
is ``(2, 0)`` (Figure 5) — non-prime with gcd 2, hence the two storage
layouts the paper measures separately:

==========================  ============================  =================
version                     mapping                       temporary storage
==========================  ============================  =================
natural                     row-major ``T x L`` array      ``T*L``
ov-mapped (consecutive)     ``OVMapping((2,0))``           ``2*L``
ov-mapped interleaved       same, interleaved classes      ``2*L``
storage optimized           rolling buffer                 ``L + 3``
==========================  ============================  =================

matching Table 1 exactly.  Reads of row 0 come from the 1-D input array
and out-of-range columns read fixed boundary guard cells (the
``padded-line`` input rule), "making it possible to use temporary storage
for a loop computation while not having to change code outside the loop"
(Section 5).

The whole computation is declared as :data:`STENCIL5_SPEC` and synthesized
through the frontend — the IR program, stencil, and executable semantics
all come from the spec; this module only curates the version family.

Tiling uses the skew ``x' = x + 2t`` (making every distance non-negative)
with tile sizes taken from the ``tile_h`` / ``tile_w`` entries of the size
binding, defaulting to a tall-and-narrow shape that reuses each mapped
location ``tile_h`` times per tile — the reuse the paper credits for the
tiled OV-mapped version's flat scaling.
"""

from __future__ import annotations

from typing import Mapping

from repro.codes.base import CodeVersion
from repro.frontend import SpecBuilder, synthesize_code
from repro.mapping import OVMapping, RollingBufferMapping, RowMajorMapping
from repro.schedule import LexicographicSchedule, TiledSchedule, required_skew
from repro.util.polyhedron import Polytope

__all__ = [
    "make_stencil5",
    "STENCIL5_SPEC",
    "STENCIL5_WEIGHTS",
    "STENCIL5_UOV",
]

STENCIL5_WEIGHTS = (0.05, 0.25, 0.4, 0.25, 0.05)
# Distance of reading A[t-1][x+dx] is (1, -dx): the producer sits dx to
# the *right* for negative distances.  Order matches the source refs
# (dx = -2..2), i.e. weights[k] multiplies the neighbour at x + (k - 2).
STENCIL5_DISTANCES = ((1, 2), (1, 1), (1, 0), (1, -1), (1, -2))
STENCIL5_UOV = (2, 0)

DEFAULT_TILE_H = 8
DEFAULT_TILE_W = 64

#: The full declarative description; ``synthesize_code`` turns this into
#: the IR program, stencil, and executable semantics.
STENCIL5_SPEC = (
    SpecBuilder("stencil5")
    .loop("t", 1, "T")
    .loop("x", 0, "L-1")
    .distances(*STENCIL5_DISTANCES)
    .weighted_sum(*STENCIL5_WEIGHTS)
    .inputs("padded-line", axis=1, pad=2, pad_value=0.25)
    .costs(flops=9)
    .sizes(T=5, L=9)
    .uov(*STENCIL5_UOV)
    .build()
)


def _isg(sizes: Mapping[str, int]) -> Polytope:
    return Polytope.from_loop_bounds(STENCIL5_SPEC.bounds_fn(sizes))


def _tile_sizes(sizes: Mapping[str, int]) -> tuple[int, int]:
    return (
        sizes.get("tile_h", DEFAULT_TILE_H),
        sizes.get("tile_w", DEFAULT_TILE_W),
    )


def make_stencil5() -> dict[str, CodeVersion]:
    """All seven versions of the 5-point stencil (the Figure 9-11 legend)."""
    code = synthesize_code(STENCIL5_SPEC)
    stencil = code.stencil
    skew = required_skew(stencil)

    def natural_mapping(sizes):
        return RowMajorMapping((sizes["T"], sizes["L"]), origin=(1, 0))

    def ov_mapping(layout):
        def factory(sizes):
            return OVMapping(STENCIL5_UOV, _isg(sizes), layout=layout)

        return factory

    def optimized_mapping(sizes):
        return RollingBufferMapping(stencil, _isg(sizes))

    def lex(sizes):
        return LexicographicSchedule()

    def tiled(sizes):
        return TiledSchedule(_tile_sizes(sizes), skew=skew)

    def mk(key, label, mapping_factory, schedule_factory, storage, **kw):
        return CodeVersion(
            key=key,
            label=label,
            code=code,
            mapping_factory=mapping_factory,
            schedule_factory=schedule_factory,
            storage_formula=storage,
            **kw,
        )

    t_times_l = lambda s: s["T"] * s["L"]
    two_l = lambda s: 2 * s["L"]
    l_plus_3 = lambda s: s["L"] + 3

    return {
        "natural": mk(
            "natural", "Natural", natural_mapping, lex, t_times_l
        ),
        "natural-tiled": mk(
            "natural-tiled",
            "Natural Tiled",
            natural_mapping,
            tiled,
            t_times_l,
            tiled=True,
        ),
        "ov": mk(
            "ov", "OV-Mapped", ov_mapping("consecutive"), lex, two_l
        ),
        "ov-tiled": mk(
            "ov-tiled",
            "OV-Mapped Tiled",
            ov_mapping("consecutive"),
            tiled,
            two_l,
            tiled=True,
        ),
        "ov-interleaved": mk(
            "ov-interleaved",
            "OV-Mapped Interleaved",
            ov_mapping("interleaved"),
            lex,
            two_l,
        ),
        "ov-interleaved-tiled": mk(
            "ov-interleaved-tiled",
            "OV-Mapped Interleaved Tiled",
            ov_mapping("interleaved"),
            tiled,
            two_l,
            tiled=True,
        ),
        "storage-optimized": mk(
            "storage-optimized",
            "Storage Optimized",
            optimized_mapping,
            lex,
            l_plus_3,
            tilable=False,
            notes="cannot be tiled: the rolling buffer's storage "
            "dependences span the whole window",
        ),
    }
