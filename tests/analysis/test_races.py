"""Static storage-race detection vs. the dynamic ground truth."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.liveness import find_mapping_violation
from repro.analysis.races import (
    ForcedBeforeIndex,
    StorageRace,
    find_storage_races,
    race_witness,
    region_points,
)
from repro.core.cone import done_set
from repro.core.stencil import Stencil
from repro.mapping.optimized import RollingBufferMapping
from repro.mapping.ov import OVMapping
from repro.mapping.padding import PaddedOVMapping
from repro.util.polyhedron import Polytope
from repro.util.vectors import add, dot
from tests.analysis.test_symcert_property import build_stencil, vectors_strategy

BOUNDS = ((1, 6), (0, 6))  # non-power-of-two inner extent 7


@pytest.fixture
def box():
    return Polytope.from_loop_bounds(BOUNDS)


class TestRaceFreedom:
    def test_uov_mapping_has_no_races(self, fig1_stencil, box):
        mapping = OVMapping((1, 1), box)
        assert find_storage_races(mapping, fig1_stencil, box) == []

    def test_trivial_uov_mapping_has_no_races(self, fig1_stencil, box):
        mapping = OVMapping((2, 2), box)
        assert find_storage_races(mapping, fig1_stencil, box) == []

    def test_padded_mapping_inherits_race_freedom(self, stencil5):
        box = Polytope.from_loop_bounds(((1, 5), (0, 8)))
        mapping = PaddedOVMapping((2, 0), box, pad=3)
        assert find_storage_races(mapping, stencil5, box) == []

    def test_injective_mapping_cannot_race(self, fig1_stencil, box):
        class Natural:
            def collision_groups(self, points):
                return {i: [tuple(p)] for i, p in enumerate(points)}

        assert find_storage_races(Natural(), fig1_stencil, box) == []


class TestRaceDetection:
    def test_non_uov_mapping_races(self, fig1_stencil, box):
        # (1, 0) skips the (0, 1) dependence: real races must surface.
        mapping = OVMapping((1, 0), box)
        races = find_storage_races(mapping, fig1_stencil, box)
        assert races
        for race in races:
            assert mapping(race.first) == mapping(race.second) == race.location

    def test_rolling_buffer_races_under_foreign_schedules(
        self, fig1_stencil, box
    ):
        mapping = RollingBufferMapping(fig1_stencil, box)
        races = find_storage_races(mapping, fig1_stencil, box)
        assert races, "minimal storage must be schedule-dependent"

    def test_limit_caps_the_scan(self, fig1_stencil, box):
        mapping = RollingBufferMapping(fig1_stencil, box)
        assert len(find_storage_races(mapping, fig1_stencil, box, limit=1)) == 1

    def test_witness_replays_to_dynamic_violation(self, fig1_stencil, box):
        mapping = RollingBufferMapping(fig1_stencil, box)
        race = find_storage_races(mapping, fig1_stencil, box, limit=1)[0]
        order = race_witness(mapping, fig1_stencil, BOUNDS, race)
        assert order is not None
        assert find_mapping_violation(mapping, fig1_stencil, order) is not None

    def test_str_is_informative(self, fig1_stencil, box):
        mapping = RollingBufferMapping(fig1_stencil, box)
        race = find_storage_races(mapping, fig1_stencil, box, limit=1)[0]
        text = str(race)
        assert "share location" in text and str(race.location) in text


class TestForcedBeforeIndex:
    def test_dead_before_matches_cone_geometry(self, fig1_stencil, box):
        index = ForcedBeforeIndex(fig1_stencil, box)
        # (1, 1)'s value is consumed by (1, 2), (2, 1), (2, 2) — all in
        # DONE of (3, 3), so it is dead before (3, 3) in every schedule.
        assert index.dead_before((1, 1), (3, 3)) is None
        # (3, 3) is not even executed before (1, 1) necessarily.
        assert index.dead_before((3, 3), (1, 1)) == (3, 3)

    def test_done_sets_are_memoised(self, fig1_stencil, box):
        index = ForcedBeforeIndex(fig1_stencil, box)
        assert index.done((4, 4)) is index.done((4, 4))

    def test_region_points_respects_shape(self, fig3_isg):
        points = region_points(fig3_isg)
        assert all(fig3_isg.contains(p) for p in points)
        lower, upper = fig3_isg.bounding_box()
        # The parallelogram is a strict subset of its bounding box.
        n_box = (upper[0] - lower[0] + 1) * (upper[1] - lower[1] + 1)
        assert 0 < len(points) < n_box


#: Some dependence chains of this stencil leave a box, so integer-cone
#: membership credits orders that the box does not force.
BOUNDARY_STENCIL = Stencil([(0, 1, 1), (1, -1, -2)])


def reference_races(mapping, stencil, region):
    """The race scan written straight from the single-query ``done_set``."""
    points = region_points(region)
    done = {q: done_set(stencil, q, region) for q in points}
    weights = stencil.positivity_weights

    def blocker(p, q):
        consumers = [add(p, v) for v in stencil.vectors]
        return next(
            (r for r in [p, *consumers] if r in done and r not in done[q]),
            None,
        )

    races = []
    for location, group in sorted(mapping.collision_groups(points).items()):
        group = sorted(group, key=lambda p: (dot(weights, p), p))
        for i, p in enumerate(group):
            for q in group[i + 1 :]:
                forward, backward = blocker(p, q), blocker(q, p)
                if forward is not None and backward is not None:
                    races.append(StorageRace(p, q, location, forward))
    return races


def assert_index_matches_oracle(stencil, region):
    index = ForcedBeforeIndex(stencil, region)
    assert index.points == tuple(region_points(region))
    # The last point plus a stencil vector is outside the region, where
    # DONE holds the in-region producers' chains but not the point itself.
    outside = add(index.points[-1], stencil.vectors[0])
    for q in (*index.points, outside):
        assert index.done(q) == frozenset(done_set(stencil, q, region)), q
    for mapping in (
        OVMapping(stencil.initial_uov, region),
        RollingBufferMapping(stencil, region),
    ):
        assert find_storage_races(mapping, stencil, region) == (
            reference_races(mapping, stencil, region)
        ), type(mapping).__name__


class TestIndexMatchesOracle:
    """The one-pass bitset index against the per-point BFS it replaces."""

    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(min_value=2, max_value=3), data=st.data())
    def test_random_stencils_on_boxes(self, dim, data):
        vectors = data.draw(vectors_strategy(dim), label="stencil vectors")
        stencil = build_stencil(vectors, dim)
        top = 7 if dim == 2 else 5
        extents = data.draw(
            st.tuples(*[st.integers(min_value=3, max_value=top)] * dim),
            label="box extents",
        )
        box = Polytope.from_loop_bounds([(0, e - 1) for e in extents])
        assert_index_matches_oracle(stencil, box)

    @pytest.mark.parametrize(
        "vectors",
        [
            [(1, 0), (1, 1), (1, -1)],
            [(1, 0), (0, 1), (1, 1)],
            [(0, 1), (1, -2)],
        ],
    )
    def test_fig3_parallelogram(self, fig3_isg, vectors):
        assert_index_matches_oracle(Stencil(vectors), fig3_isg)

    def test_box_boundary_stencil(self):
        # Plain cone membership would credit orders this box does not
        # force, so this case fails without the region restriction.
        box = Polytope.from_loop_bounds([(0, 2)] * 3)
        assert_index_matches_oracle(BOUNDARY_STENCIL, box)


class TestBoxBoundaryRegression:
    """The box-boundary case: both certifiers accept ``(1, 0, -1)`` for
    ``BOUNDARY_STENCIL``, yet it races on ``[0, E-1]^3``, because the
    dependence chain that would order a colliding pair leaves the box.
    Only the race detector's side is pinned here; the certifiers still
    accept this OV, which is a known defect."""

    OV = (1, 0, -1)

    def scan(self, extent):
        bounds = [(0, extent - 1)] * 3
        box = Polytope.from_loop_bounds(bounds)
        mapping = OVMapping(self.OV, box)
        races = find_storage_races(mapping, BOUNDARY_STENCIL, box)
        return bounds, mapping, races

    @pytest.mark.parametrize("extent,count", [(3, 6), (5, 20)])
    def test_race_counts(self, extent, count):
        _, _, races = self.scan(extent)
        assert len(races) == count

    def test_known_clobber_pair_is_reported(self):
        # Writer (1, 0, 2) can clobber (2, 0, 1) before (2, 1, 2) reads it.
        _, _, races = self.scan(3)
        by_pair = {frozenset((r.first, r.second)): r for r in races}
        assert by_pair[frozenset({(1, 0, 2), (2, 0, 1)})].location == 3

    @pytest.mark.parametrize("extent", [3, 5])
    def test_every_race_replays(self, extent):
        bounds, mapping, races = self.scan(extent)
        for race in races:
            order = race_witness(mapping, BOUNDARY_STENCIL, bounds, race)
            assert order is not None, race
            violation = find_mapping_violation(mapping, BOUNDARY_STENCIL, order)
            assert violation is not None, race
