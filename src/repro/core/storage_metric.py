"""Storage cost of an occupancy vector over an ISG (Sections 3.2.1, 4.3).

An occupancy vector partitions the iteration points into storage-equivalence
classes (two points are equivalent when they differ by an integral multiple
of the OV).  The storage an OV requires is the number of such classes the
ISG touches, which the paper computes as the number of integer points in the
projection of the ISG's extreme points under the mapping vector, times the
number of classes that lie *along* a non-prime OV (its component gcd).

This module also provides the search-bound geometry of Section 3.2.1:
``PM`` (the minimum projection of the ISG on any hyperplane) and the length
bound ``P_ov0 |ov0| / PM`` on the optimal UOV when bounds are known.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.stencil import Stencil
from repro.util.intmath import unimodular_completion, vector_gcd
from repro.util.polyhedron import Polytope
from repro.util.vectors import IntVector, as_vector, is_zero, norm

__all__ = [
    "storage_for_ov",
    "min_projection",
    "perpendicular_projection",
    "search_length_bound",
]


def storage_for_ov(ov: Sequence[int], isg: Polytope) -> int:
    """Number of storage locations an OV-based mapping allocates.

    For a prime 2-D OV ``(i, j)`` this is Figure 6's
    ``|mv.xp1 - mv.xp2| + 1`` with ``mv = (-j, i)``.  A non-prime OV with
    component gcd ``g`` has ``g`` storage classes along the OV itself
    (Section 4.2), multiplying the projection count.  In dimensions above
    two, the projection is linearised through a unimodular completion of
    the primitive OV and allocated over the bounding box of the projected
    coordinates (the same allocation the generated code uses, so the number
    reported here is the number the mapped program actually consumes).

    This is always ``OVMapping(ov, isg).size``.  The 2-D branch computes it
    without building the completion, because the storage-objective search
    calls this function tens of thousands of times.
    """
    ov = as_vector(ov)
    if is_zero(ov):
        raise ValueError("the zero vector is not an occupancy vector")
    if len(ov) != isg.dim:
        raise ValueError("occupancy vector and ISG dimensionality mismatch")
    g = vector_gcd(ov)
    primitive = tuple(c // g for c in ov)
    if isg.dim == 1:
        return g
    if isg.dim == 2:
        mvp = (-primitive[1], primitive[0])
        return g * isg.projection_count(mvp)
    u = unimodular_completion(primitive)
    count = g
    for row in u[1:]:
        lo, hi = isg.extent(row)
        count *= hi - lo + 1
    return count


def min_projection(isg: Polytope) -> float:
    """``PM``: the minimum projection of the ISG on any hyperplane.

    Exact in 2-D (the minimising direction is normal to a hull edge); a
    safe approximation elsewhere (see ``Polytope.min_width``).  For a
    rectangle this is the shorter side, the example the paper gives.
    """
    return isg.min_width()


def perpendicular_projection(ov: Sequence[int], isg: Polytope) -> float:
    """Geometric size of the ISG's shadow on the hyperplane perpendicular
    to ``ov``.

    In 2-D this is a length (exact).  In higher dimensions we return the
    product of widths along an orthonormal basis of the perpendicular
    hyperplane — an upper bound on the true shadow volume, which is the
    safe direction for the search bound (it can only enlarge the region
    searched, never exclude the optimum).
    """
    import numpy as np

    ov_arr = np.array(ov, dtype=float)
    n = np.linalg.norm(ov_arr)
    if n == 0:
        raise ValueError("perpendicular projection of the zero vector is undefined")
    d = len(ov)
    if d == 1:
        return 1.0
    # Orthonormal basis of ov's orthogonal complement via QR.
    basis = np.linalg.qr(
        np.column_stack([ov_arr] + [np.eye(d)[:, k] for k in range(d)]),
    )[0][:, 1:d]
    size = 1.0
    for k in range(basis.shape[1]):
        size *= isg.width(tuple(basis[:, k]))
    return size


def search_length_bound(
    stencil: Stencil,
    isg: Optional[Polytope] = None,
    incumbent_storage: Optional[int] = None,
) -> float:
    """Upper bound on the length of the optimal UOV (Section 3.2.1).

    Without ISG bounds the goal is the shortest UOV, so the bound is just
    ``|ov0|``.  With known bounds, any OV beating the incumbent must
    satisfy ``PM * |ov| <= storage(incumbent)`` (its projection is at least
    the minimum projection), giving ``|ov| <= storage / PM``.  We pad by
    the longest stencil vector to absorb the difference between continuous
    widths and lattice counts — a generous bound only costs search time,
    a tight one could exclude the optimum.
    """
    ov0 = stencil.initial_uov
    if isg is None:
        return norm(ov0)
    if incumbent_storage is None:
        incumbent_storage = storage_for_ov(ov0, isg)
    pm = min_projection(isg)
    pad = max(norm(v) for v in stencil.vectors)
    if pm <= 0:
        # Degenerate (flat) ISG: every OV projects to a set of at most
        # |ov|-ish points; fall back to the incumbent's own length.
        return norm(ov0) + pad
    return incumbent_storage / pm + pad
