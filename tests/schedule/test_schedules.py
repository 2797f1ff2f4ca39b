"""Schedules: coverage, ordering, legality criteria."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stencil import Stencil
from repro.schedule import (
    InterchangedSchedule,
    LexicographicSchedule,
    SkewedSchedule,
    TiledSchedule,
    WavefrontSchedule,
    random_legal_order,
    required_skew,
    skew_matrix_2d,
)

ALL_SCHEDULES = [
    LexicographicSchedule(),
    InterchangedSchedule((1, 0)),
    SkewedSchedule([[1, 0], [1, 1]]),
    SkewedSchedule([[1, 0], [3, 1]]),
    WavefrontSchedule((1, 1)),
    WavefrontSchedule((2, 1), reverse_ties=True),
    TiledSchedule((2, 3)),
    TiledSchedule((3, 2), skew=[[1, 0], [2, 1]]),
    TiledSchedule((None, 4)),
]


class TestCoverage:
    """Every schedule must enumerate the box exactly once."""

    @pytest.mark.parametrize(
        "schedule", ALL_SCHEDULES, ids=lambda s: s.name
    )
    def test_permutation_of_box(self, schedule):
        bounds = [(1, 5), (-2, 4)]
        points = list(schedule.order(bounds))
        expected = set(
            itertools.product(range(1, 6), range(-2, 5))
        )
        assert len(points) == len(expected)
        assert set(points) == expected

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    def test_tiled_coverage_random_boxes(self, hi0, hi1, th, tw):
        schedule = TiledSchedule((th, tw), skew=[[1, 0], [1, 1]])
        bounds = [(0, hi0), (0, hi1)]
        points = list(schedule.order(bounds))
        assert sorted(points) == sorted(
            itertools.product(range(hi0 + 1), range(hi1 + 1))
        )


class TestOrdering:
    def test_interchange_runs_inner_axis_first(self):
        sched = InterchangedSchedule((1, 0))
        pts = list(sched.order([(0, 1), (0, 2)]))
        assert pts[:2] == [(0, 0), (1, 0)]  # j fixed, i advancing

    def test_wavefront_fronts_advance(self):
        sched = WavefrontSchedule((1, 1))
        pts = list(sched.order([(0, 2), (0, 2)]))
        sums = [a + b for a, b in pts]
        assert sums == sorted(sums)

    def test_wavefront_reverse_ties(self):
        fwd = list(WavefrontSchedule((1, 1)).order([(0, 2), (0, 2)]))
        rev = list(
            WavefrontSchedule((1, 1), reverse_ties=True).order(
                [(0, 2), (0, 2)]
            )
        )
        assert fwd != rev
        assert set(fwd) == set(rev)

    def test_tiles_are_contiguous(self):
        """Tiles are atomic: along ``order()``, each point's tile index
        (its skewed coordinates divided by the tile sizes) never
        decreases, and each tile's points form one contiguous run."""
        from repro.schedule.skew import transformed_bounding_box
        from repro.util.intmath import matvec

        bounds = [(0, 3), (0, 3)]
        for sched, tile_count in (
            (TiledSchedule((2, 2)), 4),
            (TiledSchedule((2, 3), skew=[[1, 0], [2, 1]]), 5),
        ):
            box = transformed_bounding_box(sched.skew, bounds)
            tile_ids = [
                tuple(
                    (c - lo) // size
                    for c, (lo, _), size in zip(
                        matvec(sched.skew, q), box, sched.tile_sizes
                    )
                )
                for q in sched.order(bounds)
            ]
            assert len(tile_ids) == 16
            assert tile_ids == sorted(tile_ids)
            runs = [tile for tile, _ in itertools.groupby(tile_ids)]
            assert len(runs) == len(set(runs)) == tile_count
        # The unskewed 2x2 tiles of a 4x4 box are full: 4 points each.
        assert all(
            len(list(run)) == 4
            for _, run in itertools.groupby(
                TiledSchedule((2, 2)).order(bounds),
                key=lambda q: (q[0] // 2, q[1] // 2),
            )
        )


_SKEW_3D = required_skew(Stencil([(1, 0, -1), (1, -1, 0), (0, 1, 0)]))
BOX_2D = [(1, 5), (-2, 4)]
BOX_3D = [(0, 3), (1, 5), (-1, 2)]


class TestOrderBlocks:
    """``order_blocks`` is ``order`` as int64 blocks, for every family."""

    @pytest.mark.parametrize(
        "schedule,bounds",
        [
            (LexicographicSchedule(), BOX_2D),
            (LexicographicSchedule(), BOX_3D),
            (LexicographicSchedule(), [(2, 9)]),
            (InterchangedSchedule((1, 0)), BOX_2D),
            (InterchangedSchedule((2, 0, 1)), BOX_3D),
            (TiledSchedule((2, 3)), BOX_2D),
            (TiledSchedule((3, 4)), [(0, 6), (0, 10)]),  # ragged edge tiles
            (TiledSchedule((3, 2), skew=[[1, 0], [2, 1]]), BOX_2D),
            (TiledSchedule((2, 3, 2), skew=_SKEW_3D), BOX_3D),
            (TiledSchedule((None, 4)), BOX_2D),
            (TiledSchedule((2, None), skew=[[1, 0], [1, 1]]), BOX_2D),
            # The base class chunks order().
            (SkewedSchedule([[1, 0], [3, 1]]), BOX_2D),
            (WavefrontSchedule((2, 1), reverse_ties=True), BOX_2D),
        ],
        ids=lambda p: p.name if hasattr(p, "name") else f"{len(p)}d",
    )
    @pytest.mark.parametrize("max_points", [1, 7, 8192])
    def test_blocks_concatenate_to_the_order(
        self, schedule, bounds, max_points
    ):
        blocks = list(schedule.order_blocks(bounds, max_points))
        for block in blocks:
            assert block.dtype == np.int64
            assert block.ndim == 2 and block.shape[1] == len(bounds)
            assert 1 <= block.shape[0] <= max_points
        points = [tuple(p) for p in np.concatenate(blocks).tolist()]
        assert points == [tuple(p) for p in schedule.order(bounds)]

    def test_tiled_blocks_group_whole_tiles(self):
        # Small tiles run together: a 2x4 box of 2x2 tiles is one block.
        (block,) = TiledSchedule((2, 2)).order_blocks([(0, 1), (0, 3)], 8)
        assert block.tolist() == [
            [0, 0], [0, 1], [1, 0], [1, 1], [0, 2], [0, 3], [1, 2], [1, 3],
        ]


class TestSkew:
    def test_skew_matrix_2d(self):
        assert skew_matrix_2d(2) == [[1, 0], [2, 1]]

    def test_required_skew_stencil5(self, stencil5):
        assert required_skew(stencil5) == [[1, 0], [2, 1]]

    def test_required_skew_identity_when_permutable(self, fig1_stencil):
        assert required_skew(fig1_stencil) == [[1, 0], [0, 1]]

    def test_required_skew_3d(self):
        s = Stencil([(1, 0, -1), (1, -1, 0), (0, 1, 0)])
        matrix = required_skew(s)
        from repro.util.intmath import matvec

        for v in s.vectors:
            assert all(c >= 0 for c in matvec(matrix, v))

    def test_required_skew_impossible(self):
        # A dimension with a negative component but no strictly positive
        # earlier dimension across the offenders.
        s = Stencil([(0, 1, -1), (1, 0, -1)])
        with pytest.raises(ValueError):
            required_skew(s)

    def test_skewed_schedule_legality(self, stencil5):
        sched = SkewedSchedule(skew_matrix_2d(2))
        assert sched.is_legal_for(stencil5, [(1, 4), (0, 9)])
        bad = SkewedSchedule(skew_matrix_2d(1))  # not enough skew
        # (1,-2) -> (1,-1): still lexicographically positive, so legal as
        # a sequential order (skewing never breaks lex-positivity with
        # positive factors on a positive leading dimension).
        assert bad.is_legal_for(stencil5, [(1, 4), (0, 9)])


class TestValidation:
    def test_bad_permutation(self):
        with pytest.raises(ValueError):
            InterchangedSchedule((0, 0))

    def test_bad_tile_size(self):
        with pytest.raises(ValueError):
            TiledSchedule((0, 2))

    def test_bounds_mismatch(self):
        with pytest.raises(ValueError):
            list(LexicographicSchedule().order([(2, 1)]))
        with pytest.raises(ValueError):
            list(InterchangedSchedule((1, 0)).order([(0, 1)]))
        with pytest.raises(ValueError):
            list(WavefrontSchedule((1, 1)).order([(0, 1)]))

    def test_non_unimodular_skew_rejected(self):
        with pytest.raises(ValueError):
            SkewedSchedule([[2, 0], [0, 1]])


class TestRandomLegalOrder:
    def test_is_always_legal(self, fig1_stencil):
        from repro.analysis.legality import is_schedule_legal

        rng = random.Random(3)
        for _ in range(10):
            order = random_legal_order(fig1_stencil, [(0, 4), (0, 4)], rng)
            assert is_schedule_legal(order, fig1_stencil)

    def test_produces_distinct_orders(self, fig1_stencil):
        rng = random.Random(4)
        orders = {
            tuple(random_legal_order(fig1_stencil, [(0, 3), (0, 3)], rng))
            for _ in range(10)
        }
        assert len(orders) > 1

    def test_covers_box(self, stencil5):
        rng = random.Random(5)
        order = random_legal_order(stencil5, [(1, 4), (0, 6)], rng)
        assert sorted(order) == sorted(
            itertools.product(range(1, 5), range(7))
        )
