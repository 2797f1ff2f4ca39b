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
with one zero guard cell per side) and synthesized through the frontend;
the versions are the standard family of
:func:`~repro.frontend.synth.make_versions`, tiled ``8 x 64`` after the
skew ``x' = x + t`` unless the size binding says otherwise.
"""

from __future__ import annotations

from repro.codes.base import CodeVersion
from repro.frontend import SpecBuilder, make_versions, synthesize_code

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
    .tile(8, 64)
    .uov(*JACOBI_UOV)
    .build()
)


def make_jacobi() -> dict[str, CodeVersion]:
    """Natural / OV-mapped (consecutive and interleaved) /
    storage-optimized Jacobi, with the tiled variants of the tilable ones."""
    return make_versions(synthesize_code(JACOBI_SPEC))
