"""Schedule interface and shared helpers.

A schedule offers its order in three forms: ``order`` (one point at a
time, the oracle), ``order_blocks`` (the same order as int64 arrays, for
the address tracer) and ``batches`` (dependence-free runs of the order,
for the vectorized engine).  ``order_blocks`` promises nothing about
dependences; the families the shipped versions use (lexicographic,
interchanged, tiled) build their blocks from loop and tile geometry with
NumPy, and every other schedule chunks ``order``.
"""

from __future__ import annotations

import abc
import itertools
import math
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.core.stencil import Stencil
from repro.util.vectors import IntVector

__all__ = ["Schedule", "Bounds", "row_blocks"]

#: Inclusive per-dimension bounds of a rectangular ISG.
Bounds = Sequence[tuple[int, int]]


class Schedule(abc.ABC):
    """A total execution order over the points of a rectangular ISG.

    Schedules are *geometric* objects: they know nothing about programs or
    storage.  ``order(bounds)`` yields every integer point of the box
    exactly once, in execution order; ``is_legal_for`` checks the order
    against a stencil's value dependences without materialising the
    position map (each schedule implements its own algebraic check where
    one exists, falling back to the generic dynamic check).
    """

    #: Human-readable name used in benchmark output.
    name: str = "schedule"

    @abc.abstractmethod
    def order(self, bounds: Bounds) -> Iterator[IntVector]:
        """Yield each point of the box exactly once, in execution order."""

    def order_blocks(
        self, bounds: Bounds, max_points: int
    ) -> Iterator[np.ndarray]:
        """``order(bounds)`` as consecutive ``(n, dim)`` int64 arrays.

        Each array holds at least one and at most ``max_points`` points,
        and concatenating them gives exactly ``list(order(bounds))``.
        Unlike :meth:`batches`, no independence is promised and no
        stencil is needed.  This default chunks ``order``; schedules
        whose order is plain loop geometry override it with arithmetic.
        """
        bounds = self.check_bounds(bounds)
        dim = len(bounds)
        coords = itertools.chain.from_iterable(self.order(bounds))
        while True:
            flat = np.fromiter(
                itertools.islice(coords, max_points * dim), dtype=np.int64
            )
            if not flat.size:
                return
            yield flat.reshape(-1, dim)

    def batches(
        self, bounds: Bounds, stencil: Stencil
    ) -> Optional[Iterator[np.ndarray]]:
        """Dependence-independent contiguous runs of ``order(bounds)``.

        When this schedule can be batch-executed against ``stencil``,
        returns an iterator of ``(n, dim)`` int64 arrays such that

        - concatenating the arrays reproduces ``order(bounds)`` exactly
          (same points, same order — batching is grouping, not
          reordering); and
        - no point in a batch depends on another point of the same batch
          under the stencil's value dependences,

        which is precisely the licence the vectorized engine
        (:mod:`repro.execution.vectorized`) needs to hoist a batch's
        reads above its writes.  Returns ``None`` when the schedule
        cannot be usefully batched for this stencil (the engine then
        falls back to the scalar interpreter).  Subclasses with a
        batchable structure override this; the safe default is ``None``.
        """
        return None

    def is_legal_for(self, stencil: Stencil, bounds: Bounds) -> bool:
        """Does this order respect the stencil on the given box?

        Subclasses with an algebraic legality criterion override this; the
        default materialises the order (fine for test-sized boxes).
        """
        from repro.analysis.legality import is_schedule_legal

        checked = self.check_bounds(bounds)
        return is_schedule_legal(self.order(checked), stencil, bounds=checked)

    @staticmethod
    def check_bounds(bounds: Bounds) -> tuple[tuple[int, int], ...]:
        checked = []
        for lo, hi in bounds:
            if lo > hi:
                raise ValueError(f"empty bounds {lo}..{hi}")
            checked.append((int(lo), int(hi)))
        return tuple(checked)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def row_blocks(
    bounds: Bounds, max_points: int, axes: Sequence[int] | None = None
) -> Iterator[np.ndarray]:
    """Lexicographic order over ``bounds`` as ``(n, dim)`` int64 blocks.

    ``bounds`` lists the loops outermost first; ``axes[level]`` names the
    output column of loop ``level`` (identity by default), so a permuted
    nest comes out in original coordinates.  A block is a run of whole
    innermost rows — the outer coordinates of each row broadcast against
    the row's index range — and a row longer than ``max_points`` is
    split.  Blocks are column-major, so each coordinate is contiguous.
    """
    dim = len(bounds)
    if axes is None:
        axes = range(dim)
    outer = [(axis, lo, hi - lo + 1) for axis, (lo, hi) in zip(axes, bounds)]
    inner_axis, inner_lo, inner = outer.pop()
    row = np.arange(inner_lo, inner_lo + inner, dtype=np.int64)
    rows = math.prod(extent for _, _, extent in outer)
    per_block = max(1, max_points // inner)
    for first in range(0, rows, per_block):
        count = min(per_block, rows - first)
        grid = np.empty((dim, count, inner), dtype=np.int64)
        grid[inner_axis] = row
        # Outer coordinates of rows first..first+count-1, innermost
        # outer loop fastest.
        index = np.arange(first, first + count, dtype=np.int64)
        for axis, lo, extent in reversed(outer):
            index, coord = np.divmod(index, extent)
            grid[axis] = (coord + lo)[:, None]
        points = grid.reshape(dim, -1).T
        for start in range(0, len(points), max_points):
            yield points[start : start + max_points]
