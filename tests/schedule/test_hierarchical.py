"""Two-level tiling."""

import itertools

import pytest

from repro.analysis.legality import is_schedule_legal
from repro.analysis.liveness import is_mapping_legal
from repro.mapping import OVMapping
from repro.schedule import HierarchicalTiledSchedule, required_skew
from repro.util.polyhedron import Polytope


class TestCoverage:
    def test_permutation_of_box(self):
        sched = HierarchicalTiledSchedule((4, 4), (2, 2))
        bounds = [(0, 6), (0, 9)]
        points = list(sched.order(bounds))
        assert sorted(points) == sorted(
            itertools.product(range(7), range(10))
        )

    def test_with_skew(self, stencil5):
        sched = HierarchicalTiledSchedule(
            (8, 8), (2, 4), skew=required_skew(stencil5)
        )
        bounds = [(1, 6), (0, 11)]
        points = list(sched.order(bounds))
        assert sorted(points) == sorted(
            itertools.product(range(1, 7), range(12))
        )


class TestNesting:
    def test_inner_tiles_stay_within_outer(self):
        sched = HierarchicalTiledSchedule((4, 4), (2, 2))
        points = list(sched.order([(0, 7), (0, 7)]))
        # first outer tile = [0..3]x[0..3]: its 16 points come first
        first16 = set(points[:16])
        assert first16 == set(itertools.product(range(4), range(4)))
        # and its first inner tile is [0..1]x[0..1]
        assert set(points[:4]) == set(
            itertools.product(range(2), range(2))
        )

    def test_ragged_nesting_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalTiledSchedule((4, 6), (2, 4))

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            HierarchicalTiledSchedule((0, 2), (1, 1))
        with pytest.raises(ValueError):
            HierarchicalTiledSchedule((4,), (2, 2))


class TestLegality:
    def test_legal_after_skew(self, stencil5):
        sched = HierarchicalTiledSchedule(
            (8, 8), (2, 4), skew=required_skew(stencil5)
        )
        bounds = [(1, 8), (0, 15)]
        assert sched.is_legal_for(stencil5, bounds)
        assert is_schedule_legal(sched.order(bounds), stencil5)

    def test_illegal_without_skew(self, stencil5):
        sched = HierarchicalTiledSchedule((4, 4), (2, 2))
        bounds = [(1, 8), (0, 15)]
        assert not sched.is_legal_for(stencil5, bounds)
        assert not is_schedule_legal(sched.order(bounds), stencil5)

    def test_uov_mapping_survives_hierarchical_tiling(self, stencil5):
        """The whole point: schedule independence covers multi-level
        tiling without any new analysis."""
        bounds = [(1, 8), (0, 15)]
        isg = Polytope.from_loop_bounds(bounds)
        sched = HierarchicalTiledSchedule(
            (8, 8), (2, 4), skew=required_skew(stencil5)
        )
        for layout in ("interleaved", "consecutive"):
            mapping = OVMapping((2, 0), isg, layout=layout)
            assert is_mapping_legal(
                mapping, stencil5, sched.order(bounds)
            )

    def test_rolling_buffer_does_not(self, stencil5):
        from repro.mapping import RollingBufferMapping

        bounds = [(1, 8), (0, 15)]
        isg = Polytope.from_loop_bounds(bounds)
        sched = HierarchicalTiledSchedule(
            (8, 8), (2, 4), skew=required_skew(stencil5)
        )
        rb = RollingBufferMapping(stencil5, isg)
        assert not is_mapping_legal(rb, stencil5, sched.order(bounds))
