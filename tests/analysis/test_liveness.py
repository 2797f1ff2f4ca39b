"""Dynamic mapping legality — the semantic referee."""

import random

import pytest

from repro.analysis.liveness import find_mapping_violation, is_mapping_legal
from repro.mapping import OVMapping, RollingBufferMapping
from repro.schedule import (
    LexicographicSchedule,
    TiledSchedule,
    WavefrontSchedule,
    random_legal_order,
)
from repro.util.polyhedron import Polytope


class TestUovMappingsUniversal:
    def test_legal_under_every_schedule_family(self, fig1_stencil):
        bounds = [(0, 6), (0, 7)]
        isg = Polytope.from_box((0, 0), (6, 7))
        mapping = OVMapping((1, 1), isg)
        for schedule in (
            LexicographicSchedule(),
            WavefrontSchedule((1, 1)),
            WavefrontSchedule((1, 1), reverse_ties=True),
            TiledSchedule((2, 3)),
            TiledSchedule((4, 2)),
        ):
            assert is_mapping_legal(
                mapping, fig1_stencil, schedule.order(bounds)
            ), schedule.name

    def test_legal_under_random_schedules(self, fig1_stencil):
        rng = random.Random(11)
        bounds = [(0, 5), (0, 5)]
        isg = Polytope.from_box((0, 0), (5, 5))
        mapping = OVMapping((1, 1), isg)
        for _ in range(15):
            order = random_legal_order(fig1_stencil, bounds, rng)
            assert is_mapping_legal(mapping, fig1_stencil, order)

    def test_stencil5_uov_under_skewed_tiling(self, stencil5):
        from repro.schedule import required_skew

        bounds = [(1, 8), (0, 11)]
        isg = Polytope.from_box((1, 0), (8, 11))
        for layout in ("interleaved", "consecutive"):
            mapping = OVMapping((2, 0), isg, layout=layout)
            sched = TiledSchedule((3, 4), skew=required_skew(stencil5))
            assert is_mapping_legal(
                mapping, stencil5, sched.order(bounds)
            )


class TestNonUniversalMappings:
    def test_non_uov_caught_with_evidence(self, fig1_stencil):
        bounds = [(0, 5), (0, 5)]
        isg = Polytope.from_box((0, 0), (5, 5))
        mapping = OVMapping((1, 0), isg)  # not a UOV
        order = list(LexicographicSchedule().order(bounds))
        violation = find_mapping_violation(mapping, fig1_stencil, order)
        assert violation is not None
        # the evidence names a pending consumer of the clobbered value
        assert violation.pending_reader is not None
        assert "overwrites" in str(violation)
        assert mapping(violation.writer) == violation.location

    def test_rolling_buffer_fails_under_tiling(self, fig1_stencil):
        bounds = [(0, 7), (0, 7)]
        isg = Polytope.from_box((0, 0), (7, 7))
        rb = RollingBufferMapping(fig1_stencil, isg)
        tiled = list(TiledSchedule((3, 3)).order(bounds))
        assert not is_mapping_legal(rb, fig1_stencil, tiled)

    def test_rolling_buffer_fails_under_wavefront(self, fig1_stencil):
        bounds = [(0, 7), (0, 7)]
        isg = Polytope.from_box((0, 0), (7, 7))
        rb = RollingBufferMapping(fig1_stencil, isg)
        wf = list(WavefrontSchedule((1, 1)).order(bounds))
        assert not is_mapping_legal(rb, fig1_stencil, wf)

    def test_duplicate_points_rejected(self, fig1_stencil):
        isg = Polytope.from_box((0, 0), (2, 2))
        mapping = OVMapping((1, 1), isg)
        with pytest.raises(ValueError):
            is_mapping_legal(
                mapping, fig1_stencil, [(0, 0), (0, 0), (1, 1)]
            )


class TestSelfConsumptionSemantics:
    def test_overwriting_own_input_is_legal(self, fig1_stencil):
        """ov = (1,1) is in the stencil itself: each iteration reads the
        value it then displaces.  Reads precede the write, so this is
        legal — the heart of the DEAD-set definition."""
        bounds = [(0, 4), (0, 4)]
        isg = Polytope.from_box((0, 0), (4, 4))
        mapping = OVMapping((1, 1), isg)
        order = list(LexicographicSchedule().order(bounds))
        assert is_mapping_legal(mapping, fig1_stencil, order)
