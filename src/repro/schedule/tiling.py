"""Rectangular tiling (Irigoin & Triolet; Wolfe), with automatic skewing.

Tiling partitions the (possibly skewed) iteration space into rectangular
atomic tiles executed lexicographically, points within a tile executed
lexicographically.  Rectangular atomic tiling is legal when every
dependence distance is componentwise non-negative in the tiled coordinates
(the nest is *fully permutable*); :func:`required_skew` computes the
classic lower-triangular skew that establishes that property when
possible.

This is the schedule family the paper's evaluation is about: tiles touch a
cache-sized working set repeatedly, so OV-mapped storage (small, and legal
under tiling because the UOV is schedule-independent) keeps the working
set resident, while storage-optimized code cannot be tiled at all and
natural code's tiles still stream a giant array.

The order comes in three forms (see :class:`~repro.schedule.base.
Schedule`): ``order`` walks it one point at a time; ``order_blocks``
builds it as int64 arrays from the tile geometry alone, a run of equal
tiles along the last tile axis at a time, for the address tracer; and
``batches`` cuts it into the dependence-free runs the vectorized engine
needs.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.stencil import Stencil
from repro.schedule.base import Bounds, Schedule, row_blocks
from repro.schedule.skew import transformed_bounding_box
from repro.util.intmath import (
    ceil_div,
    matrix_inverse_unimodular,
    matvec,
)
from repro.util.vectors import IntVector

__all__ = ["TiledSchedule", "required_skew", "is_rectangular_tiling_legal"]


def is_rectangular_tiling_legal(stencil: Stencil) -> bool:
    """Fully-permutable test: every distance componentwise non-negative."""
    return all(all(c >= 0 for c in v) for v in stencil.vectors)


def required_skew(stencil: Stencil) -> list[list[int]]:
    """A unimodular lower-triangular skew making the stencil non-negative.

    Processes dimensions left to right; a dimension with negative
    components is skewed by the earliest preceding dimension that is
    strictly positive in every offending vector (for typical stencils,
    the outer time loop).  Returns the identity when the stencil is
    already fully permutable.  Raises ``ValueError`` when no such
    single-predecessor skew exists (not the case for any regular stencil
    in the paper; a full Darte-style multi-dimensional scheduler is out of
    scope and would be overkill for constant-distance stencils).
    """
    d = stencil.dim
    matrix = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    current = [list(v) for v in stencil.vectors]
    for k in range(d):
        offending = [v for v in current if v[k] < 0]
        if not offending:
            continue
        chosen = None
        for e in range(k):
            if all(v[e] > 0 for v in offending):
                chosen = e
                break
        if chosen is None:
            raise ValueError(
                f"cannot legalise dimension {k} by skewing: no earlier "
                f"dimension is positive in all of {offending}"
            )
        factor = max(ceil_div(-v[k], v[chosen]) for v in offending)
        matrix[k][chosen] += factor
        current = [
            [
                *v[:k],
                v[k] + factor * v[chosen],
                *v[k + 1 :],
            ]
            for v in current
        ]
    return matrix


class _TileGeometry(NamedTuple):
    """Where the tiles of one box lie, in skewed coordinates."""

    #: Bounding box of the skewed domain.
    box: tuple[tuple[int, int], ...]
    #: Tile edge per skewed dimension (an untiled one spans the box).
    sizes: tuple[int, ...]
    #: Tiles per skewed dimension.
    counts: tuple[int, ...]
    #: Whether the skew is the identity (no preimage filter needed).
    identity: bool

    def tiles(self) -> Iterator[tuple[int, ...]]:
        """Tile indices in execution (lexicographic) order."""
        return itertools.product(*[range(c) for c in self.counts])

    def ranges(self, tile: Sequence[int]) -> list[range]:
        """The skewed coordinates of one tile, clipped to the box."""
        ranges = []
        for t, s, (lo, hi) in zip(tile, self.sizes, self.box):
            start = lo + t * s
            ranges.append(range(start, min(start + s - 1, hi) + 1))
        return ranges


class TiledSchedule(Schedule):
    """Tiles over a (skewed) space, lexicographic between and within tiles.

    Parameters
    ----------
    tile_sizes:
        Edge length per (transformed) dimension; a size of ``None`` (or a
        size at least the extent) leaves that dimension untiled.
    skew:
        Optional unimodular transform applied before tiling.  Pass the
        result of :func:`required_skew` for stencils that are not already
        fully permutable.
    """

    def __init__(
        self,
        tile_sizes: Sequence[int | None],
        skew: Sequence[Sequence[int]] | None = None,
    ):
        self._tile_sizes = tuple(
            None if s is None else int(s) for s in tile_sizes
        )
        if any(s is not None and s <= 0 for s in self._tile_sizes):
            raise ValueError("tile sizes must be positive")
        if skew is None:
            d = len(self._tile_sizes)
            skew = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        self._skew = tuple(tuple(int(c) for c in row) for row in skew)
        self._inverse = matrix_inverse_unimodular(self._skew)
        self.name = f"tiled{self._tile_sizes}"

    @property
    def tile_sizes(self) -> tuple[int | None, ...]:
        return self._tile_sizes

    @property
    def skew(self) -> tuple[tuple[int, ...], ...]:
        return self._skew

    def _geometry(self, bounds: Bounds) -> _TileGeometry:
        d = len(bounds)
        if d != len(self._tile_sizes):
            raise ValueError("bounds depth does not match tile sizes")
        box = transformed_bounding_box(self._skew, bounds)
        sizes = tuple(
            (hi - lo + 1) if s is None else s
            for s, (lo, hi) in zip(self._tile_sizes, box)
        )
        counts = tuple(
            ceil_div(hi - lo + 1, s) for s, (lo, hi) in zip(sizes, box)
        )
        identity = all(
            self._skew[i][j] == (1 if i == j else 0)
            for i in range(d)
            for j in range(d)
        )
        return _TileGeometry(box, sizes, counts, identity)

    def order(self, bounds: Bounds) -> Iterator[IntVector]:
        bounds = self.check_bounds(bounds)
        geometry = self._geometry(bounds)
        for tile in geometry.tiles():
            for y in itertools.product(*geometry.ranges(tile)):
                if geometry.identity:
                    yield y
                    continue
                q = matvec(self._inverse, y)
                if all(
                    blo <= c <= bhi for c, (blo, bhi) in zip(q, bounds)
                ):
                    yield q

    def order_blocks(self, bounds: Bounds, max_points: int):
        bounds = self.check_bounds(bounds)
        return self._tile_blocks(bounds, self._geometry(bounds), max_points)

    def _tile_blocks(self, bounds, geometry, max_points):
        # The tiles of one tile row (fixed outer tile indices) share the
        # grid of their outer coordinates and differ along the last axis
        # only by origin, so a run of equal-width tiles is one broadcast:
        # tile origins plus the within-tile offsets.
        from repro.schedule.batching import suffix_grid

        d = len(bounds)
        last_lo, last_hi = geometry.box[-1]
        step = geometry.sizes[-1]
        full_tiles = (last_hi - last_lo + 1) // step
        offsets = np.arange(step, dtype=np.int64)
        for outer in itertools.product(
            *[range(c) for c in geometry.counts[:-1]]
        ):
            ranges = geometry.ranges((*outer, 0))[:-1]
            grid = np.ascontiguousarray(suffix_grid(ranges).T)
            rows = grid.shape[1]
            t = 0
            while t < geometry.counts[-1]:
                start = last_lo + t * step
                width = min(step, last_hi - start + 1)
                if rows * width > max_points:
                    # A tile larger than a block is split by rows.
                    tile_box = [(r.start, r.stop - 1) for r in ranges]
                    tile_box.append((start, start + width - 1))
                    for y in row_blocks(tile_box, max_points):
                        q = self._preimage(y.T, bounds, geometry.identity)
                        if q.shape[0]:
                            yield q
                    t += 1
                    continue
                run = max_points // (rows * width)
                run = min(run, full_tiles - t) if width == step else 1
                y = np.empty((d, run, rows, width), dtype=np.int64)
                y[:-1] = grid[:, None, :, None]
                origins = start + step * np.arange(run, dtype=np.int64)
                y[-1] = (origins[:, None] + offsets[:width])[:, None, :]
                q = self._preimage(y.reshape(d, -1), bounds, geometry.identity)
                if q.shape[0]:
                    yield q
                t += run

    def _preimage(self, y: np.ndarray, bounds, identity: bool) -> np.ndarray:
        """Original points of skewed columns ``y`` (``(d, n)``) that lie
        in ``bounds``, as an ``(n', d)`` column-major block.

        The inverse skew is applied with column arithmetic: each output
        coordinate is a short sum of scaled input rows (NumPy's integer
        matrix product is slow at this shape).
        """
        if identity:
            return y.T
        q = np.empty_like(y)
        keep = np.ones(y.shape[1], dtype=bool)
        for i, row in enumerate(self._inverse):
            out = q[i]
            terms = [(c, j) for j, c in enumerate(row) if c]
            c, j = terms[0]
            np.multiply(y[j], c, out=out)
            for c, j in terms[1:]:
                out += y[j] if c == 1 else c * y[j]
            lo, hi = bounds[i]
            keep &= (out >= lo) & (out <= hi)
        if keep.all():
            return q.T
        return np.compress(keep, q, axis=1).T

    def batches(self, bounds: Bounds, stencil: Stencil):
        # Within a tile, points sharing their first `depth` *skewed*
        # coordinates are mutually independent: a dependence between them
        # would have an all-zero prefix in the skewed space.  For skewed
        # stencils these prefix groups are the intra-tile diagonals of
        # the original iteration space.  The tile-lexicographic sweep
        # visits each group as one contiguous run, so the concatenation
        # is exactly order(bounds).
        from repro.schedule.batching import prefix_batch_depth

        bounds = self.check_bounds(bounds)
        geometry = self._geometry(bounds)
        transformed = [matvec(self._skew, v) for v in stencil.vectors]
        depth = prefix_batch_depth(transformed, len(bounds))
        if depth is None:
            return None
        return self._tile_batches(bounds, geometry, depth)

    def _tile_batches(
        self, bounds: Bounds, geometry: _TileGeometry, depth: int
    ):
        from repro.schedule.batching import suffix_grid

        d = len(bounds)
        for tile in geometry.tiles():
            ranges = geometry.ranges(tile)
            suffix = suffix_grid(ranges[depth:])
            n = suffix.shape[0]
            for prefix in itertools.product(*ranges[:depth]):
                y = np.empty((n, d), dtype=np.int64)
                y[:, :depth] = prefix
                y[:, depth:] = suffix
                q = self._preimage(y.T, bounds, geometry.identity)
                if q.shape[0]:
                    yield q

    def is_legal_for(self, stencil: Stencil, bounds: Bounds) -> bool:
        transformed = [matvec(self._skew, v) for v in stencil.vectors]
        return all(all(c >= 0 for c in v) for v in transformed)
