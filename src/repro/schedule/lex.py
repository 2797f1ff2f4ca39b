"""Lexicographic and interchanged schedules."""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from repro.core.stencil import Stencil
from repro.schedule.base import Bounds, Schedule, row_blocks
from repro.util.vectors import IntVector, is_lex_positive

__all__ = ["LexicographicSchedule", "InterchangedSchedule"]


class LexicographicSchedule(Schedule):
    """The original program order: outermost index slowest."""

    name = "lexicographic"

    def order(self, bounds: Bounds) -> Iterator[IntVector]:
        bounds = self.check_bounds(bounds)
        ranges = [range(lo, hi + 1) for lo, hi in bounds]
        return iter(itertools.product(*ranges))

    def order_blocks(self, bounds: Bounds, max_points: int):
        return row_blocks(self.check_bounds(bounds), max_points)

    def is_legal_for(self, stencil: Stencil, bounds: Bounds) -> bool:
        # Legal iff every distance is lexicographically positive — which
        # the Stencil invariant already guarantees.
        return all(is_lex_positive(v) for v in stencil.vectors)

    def batches(self, bounds: Bounds, stencil: Stencil):
        # Points sharing their first `depth` coordinates are mutually
        # independent and contiguous in lexicographic order.
        from repro.schedule.batching import prefix_batch_depth, prefix_batches

        bounds = self.check_bounds(bounds)
        depth = prefix_batch_depth(stencil.vectors, len(bounds))
        if depth is None:
            return None
        return prefix_batches(bounds, depth)


class InterchangedSchedule(Schedule):
    """Loop interchange / general permutation of the nest.

    ``perm[k]`` names which original axis runs at nesting level ``k``
    (so ``perm=(1, 0)`` is the classic i-j interchange).
    """

    def __init__(self, perm: Sequence[int]):
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"{perm!r} is not a permutation")
        self._perm = tuple(perm)
        self.name = f"interchange{self._perm}"

    @property
    def perm(self) -> tuple[int, ...]:
        return self._perm

    def order(self, bounds: Bounds) -> Iterator[IntVector]:
        bounds = self.check_bounds(bounds)
        if len(bounds) != len(self._perm):
            raise ValueError("bounds depth does not match permutation")
        ranges = [
            range(bounds[axis][0], bounds[axis][1] + 1)
            for axis in self._perm
        ]
        inverse = [0] * len(self._perm)
        for level, axis in enumerate(self._perm):
            inverse[axis] = level
        for permuted in itertools.product(*ranges):
            yield tuple(permuted[inverse[axis]] for axis in range(len(self._perm)))

    def order_blocks(self, bounds: Bounds, max_points: int):
        bounds = self.check_bounds(bounds)
        if len(bounds) != len(self._perm):
            raise ValueError("bounds depth does not match permutation")
        return row_blocks(
            [bounds[axis] for axis in self._perm], max_points, axes=self._perm
        )

    def is_legal_for(self, stencil: Stencil, bounds: Bounds) -> bool:
        # Legal iff each permuted distance is lexicographically positive.
        for v in stencil.vectors:
            permuted = tuple(v[axis] for axis in self._perm)
            if not is_lex_positive(permuted):
                return False
        return True

    def batches(self, bounds: Bounds, stencil: Stencil):
        # Same prefix rule as the lexicographic schedule, applied in the
        # permuted index space the interchange actually enumerates.
        from repro.schedule.batching import prefix_batch_depth, prefix_batches

        bounds = self.check_bounds(bounds)
        if len(bounds) != len(self._perm):
            raise ValueError("bounds depth does not match permutation")
        permuted_distances = [
            tuple(v[axis] for axis in self._perm) for v in stencil.vectors
        ]
        depth = prefix_batch_depth(permuted_distances, len(bounds))
        if depth is None:
            return None
        permuted_bounds = [bounds[axis] for axis in self._perm]
        perm = self._perm

        def generate():
            for permuted in prefix_batches(permuted_bounds, depth):
                batch = np.empty_like(permuted)
                for level, axis in enumerate(perm):
                    batch[:, axis] = permuted[:, level]
                yield batch

        return generate()
