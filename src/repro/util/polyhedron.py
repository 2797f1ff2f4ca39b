"""Convex polytopes for iteration-space geometry.

The ISG (iteration space graph) of a loop nest is the set of integer points
of a convex polytope ``A q <= b`` (Section 4.3, footnote 6 of the paper).
For the storage computations we need only a few geometric queries on it:

- the *extreme points* (vertices), to evaluate ``mv . xp`` and count the
  integer points of a projection (Figure 6);
- the *projection extent* of the polytope along an arbitrary direction,
  for the known-bounds storage metric of Section 3.2.1;
- the *minimum projection* ``PM`` over all hyperplanes, which bounds the
  branch-and-bound search when the ISG size is known at compile time.

Everything here is exact over integers where the paper's formulas are
(projection counts), and floating point only for geometric widths that feed
search bounds.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterable, Sequence

from repro.util.vectors import IntVector, as_vector, dot


class Polytope:
    """A convex polytope given by its vertices.

    Vertices are integer points (iteration-space corners).  The class does
    not require the caller to pre-compute the convex hull: redundant interior
    points are tolerated by every query (they can never attain a strict
    support maximum beyond the hull).  The object is immutable, so the 2-D
    hull and the per-axis bounds are derived once, on first use.
    """

    def __init__(self, vertices: Iterable[Sequence[int]]):
        verts = [as_vector(v) for v in vertices]
        if not verts:
            raise ValueError("a polytope needs at least one vertex")
        dims = {len(v) for v in verts}
        if len(dims) != 1:
            raise ValueError("all vertices must share one dimensionality")
        self._vertices: tuple[IntVector, ...] = tuple(dict.fromkeys(verts))
        self._dim = dims.pop()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_box(cls, lower: Sequence[int], upper: Sequence[int]) -> "Polytope":
        """Axis-aligned box ``lower <= q <= upper`` (inclusive both ends).

        This is the ISG shape of an ordinary rectangular loop nest such as
        ``for i = lo1..hi1: for j = lo2..hi2``.
        """
        lower = as_vector(lower)
        upper = as_vector(upper)
        if len(lower) != len(upper):
            raise ValueError("bounds dimensionality mismatch")
        if any(lo > hi for lo, hi in zip(lower, upper)):
            raise ValueError(f"empty box: {lower} .. {upper}")
        corners = itertools.product(*[(lo, hi) for lo, hi in zip(lower, upper)])
        return cls(corners)

    @classmethod
    def from_loop_bounds(cls, bounds: Sequence[tuple[int, int]]) -> "Polytope":
        """Box from per-dimension ``(lo, hi)`` inclusive loop bounds."""
        lower = [lo for lo, _ in bounds]
        upper = [hi for _, hi in bounds]
        return cls.from_box(lower, upper)

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimensionality of the ambient iteration space."""
        return self._dim

    @property
    def vertices(self) -> tuple[IntVector, ...]:
        """The generating points (possibly including redundant ones)."""
        return self._vertices

    def extent(self, direction: Sequence[int]) -> tuple[int, int]:
        """``(min, max)`` of ``direction . q`` over the polytope's vertices.

        Because the polytope is convex and the functional linear, the
        extrema over all of it are attained at vertices, so this is exact.
        """
        values = [dot(direction, v) for v in self._vertices]
        return min(values), max(values)

    def projection_count(self, mapping_vector: Sequence[int]) -> int:
        """Number of integer points in the projection under ``mv . q``.

        This is the storage-allocation formula of Figure 6:
        ``|mv . xp1 - mv . xp2| + 1`` evaluated over the extreme points.
        It is exact when the mapping vector's components are coprime (the
        case the mapping construction of Section 4.1 guarantees).
        """
        lo, hi = self.extent(mapping_vector)
        return hi - lo + 1

    def width(self, direction: Sequence[float]) -> float:
        """Geometric projection length onto a (not necessarily unit) direction,
        normalised to per-unit-length of the direction."""
        length = math.sqrt(sum(float(c) * c for c in direction))
        if length == 0.0:
            raise ValueError("width along the zero direction is undefined")
        values = [
            sum(float(c) * x for c, x in zip(direction, v)) for v in self._vertices
        ]
        return (max(values) - min(values)) / length

    def min_width(self, extra_directions: Iterable[Sequence[int]] = ()) -> float:
        """Minimum projection ``PM`` of the polytope onto any hyperplane.

        In 2-D the minimising direction is always normal to one of the hull
        edges, so the computation is exact.  In higher dimensions we take the
        minimum over the coordinate axes plus any caller-supplied candidate
        directions — a safe (over-)estimate that still yields a valid search
        bound, since a larger ``PM`` would only shrink the search region that
        must be explored for optimality (we only use ``PM`` as documented in
        Section 3.2.1: bound = ``P_ov0 |ov0| / PM``, and an overestimate of
        the bound is handled by simply searching a bit more).
        """
        candidates: list[tuple[float, ...]] = []
        if self._dim == 2:
            hull = self._hull2d
            n = len(hull)
            for i in range(n):
                x1, y1 = hull[i]
                x2, y2 = hull[(i + 1) % n]
                normal = (float(y1 - y2), float(x2 - x1))
                if normal != (0.0, 0.0):
                    candidates.append(normal)
        for axis in range(self._dim):
            candidates.append(tuple(1.0 if k == axis else 0.0 for k in range(self._dim)))
        for extra in extra_directions:
            candidates.append(tuple(float(c) for c in extra))
        return min(self.width(c) for c in candidates)

    def contains(self, point: Sequence[int]) -> bool:
        """Membership test.

        Exact in 2-D (half-plane checks around the hull).  In higher
        dimensions falls back to the bounding box, which is exact for the
        box-shaped ISGs produced by :meth:`from_box`.
        """
        point = as_vector(point)
        if len(point) != self._dim:
            raise ValueError("point dimensionality mismatch")
        if self._dim == 2:
            hull = self._hull2d
            if len(hull) == 1:
                return point == hull[0]
            if len(hull) == 2:
                return _on_segment(hull[0], hull[1], point)
            n = len(hull)
            for i in range(n):
                a, b = hull[i], hull[(i + 1) % n]
                if _cross(a, b, point) < 0:
                    return False
            return True
        lower, upper = self._bounds
        return all(lo <= c <= hi for lo, c, hi in zip(lower, point, upper))

    def bounding_box(self) -> tuple[IntVector, IntVector]:
        """Componentwise ``(lower, upper)`` corners of the bounding box."""
        return self._bounds

    def integer_point_count(self) -> int:
        """Number of lattice points; exact for boxes, bounding-box otherwise.

        Used only for storage accounting of the *natural* (fully expanded)
        versions, whose ISGs are rectangular.
        """
        lower, upper = self.bounding_box()
        count = 1
        for lo, hi in zip(lower, upper):
            count *= hi - lo + 1
        return count

    # -- internals ---------------------------------------------------------

    @cached_property
    def _bounds(self) -> tuple[IntVector, IntVector]:
        lower = tuple(min(v[k] for v in self._vertices) for k in range(self._dim))
        upper = tuple(max(v[k] for v in self._vertices) for k in range(self._dim))
        return lower, upper

    @cached_property
    def _hull2d(self) -> tuple[IntVector, ...]:
        """Counter-clockwise convex hull (Andrew's monotone chain)."""
        pts = sorted(set(self._vertices))
        if len(pts) <= 2:
            return tuple(pts)
        lower: list[IntVector] = []
        for p in pts:
            while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
                lower.pop()
            lower.append(p)
        upper: list[IntVector] = []
        for p in reversed(pts):
            while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
                upper.pop()
            upper.append(p)
        hull = lower[:-1] + upper[:-1]
        return tuple(hull) if hull else (pts[0],)

    def __repr__(self) -> str:
        return f"Polytope({list(self._vertices)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polytope):
            return NotImplemented
        return set(self._vertices) == set(other._vertices)

    def __hash__(self) -> int:
        return hash(frozenset(self._vertices))


def _cross(o: Sequence[int], a: Sequence[int], b: Sequence[int]) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(a: Sequence[int], b: Sequence[int], p: Sequence[int]) -> bool:
    if _cross(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )
