"""Storage cost of occupancy vectors over ISGs (Sections 3.2.1, 4.3)."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stencil import Stencil
from repro.core.storage_metric import (
    min_projection,
    perpendicular_projection,
    search_length_bound,
    storage_for_ov,
)
from repro.mapping import OVMapping
from repro.util.polyhedron import Polytope


class TestPaperNumbers:
    def test_fig3(self, fig3_isg):
        assert storage_for_ov((3, 0), fig3_isg) == 27
        assert storage_for_ov((3, 1), fig3_isg) == 16

    def test_fig6_formula(self):
        # |mv.xp1 - mv.xp2| + 1 over extreme points (0,m) and (n,0).
        n, m = 9, 13
        isg = Polytope.from_box((0, 0), (n, m))
        assert storage_for_ov((1, 1), isg) == n + m + 1

    def test_stencil5_two_rows(self):
        t, length = 16, 100
        isg = Polytope.from_box((1, 0), (t, length - 1))
        assert storage_for_ov((2, 0), isg) == 2 * length


class TestGcdFactor:
    @given(
        st.integers(1, 4),
        st.tuples(st.integers(1, 5), st.integers(-5, 5)).filter(
            lambda v: math.gcd(v[0], v[1]) == 1
        ),
    )
    def test_scaling_ov_multiplies_classes(self, g, primitive):
        isg = Polytope.from_box((0, 0), (12, 12))
        base = storage_for_ov(primitive, isg)
        scaled = storage_for_ov(
            (g * primitive[0], g * primitive[1]), isg
        )
        assert scaled == g * base

    def test_matches_true_class_count_on_small_isg(self):
        # Count distinct classes by brute force: points modulo ov.
        isg = Polytope.from_box((0, 0), (6, 6))
        for ov in [(1, 1), (2, 0), (2, 2), (1, -2), (3, 1)]:
            classes = set()
            for i in range(7):
                for j in range(7):
                    # canonical representative: subtract k*ov for max k
                    p = (i, j)
                    while True:
                        q = (p[0] - ov[0], p[1] - ov[1])
                        if isg.contains(q):
                            p = q
                        else:
                            break
                    classes.add(p)
            # the mapping may allocate a small superset (dense range),
            # never fewer locations than there are classes
            assert storage_for_ov(ov, isg) >= len(classes)


class TestErrors:
    def test_zero_ov_rejected(self):
        with pytest.raises(ValueError):
            storage_for_ov((0, 0), Polytope.from_box((0, 0), (3, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            storage_for_ov((1, 1, 1), Polytope.from_box((0, 0), (3, 3)))


class TestHigherDim:
    def test_3d_prime_ov(self):
        isg = Polytope.from_box((0, 0, 0), (4, 5, 6))
        size = storage_for_ov((1, 1, 1), isg)
        # Two perpendicular coordinates; bounding-box allocation covers
        # all classes (verified by the ND mapping tests); sanity bounds:
        assert size >= 5 * 6  # at least the largest face
        assert size <= 7 * 5 * 6  # no more than the whole box

    def test_3d_gcd(self):
        isg = Polytope.from_box((0, 0, 0), (4, 4, 4))
        assert storage_for_ov((2, 2, 2), isg) == 2 * storage_for_ov(
            (1, 1, 1), isg
        )

    def test_1d(self):
        isg = Polytope.from_box((0,), (99,))
        assert storage_for_ov((3,), isg) == 3
        assert storage_for_ov((1,), isg) == 1


class TestMatchesTheMapping:
    """``storage_for_ov`` keeps a 2-D fast path (it runs tens of thousands
    of times per storage-objective search); it must still report exactly
    what :class:`OVMapping` allocates, in every dimension."""

    @staticmethod
    def assert_sizes_agree(isg, components):
        for ov in itertools.product(components, repeat=isg.dim):
            if any(ov):
                assert storage_for_ov(ov, isg) == OVMapping(ov, isg).size, ov

    def test_1d(self):
        self.assert_sizes_agree(Polytope.from_box((0,), (9,)), range(-4, 5))

    @pytest.mark.parametrize("shape", ["box", "fig3"])
    def test_2d(self, shape, fig3_isg):
        isg = Polytope.from_box((0, 0), (8, 9)) if shape == "box" else fig3_isg
        self.assert_sizes_agree(isg, range(-4, 5))

    def test_3d(self):
        isg = Polytope.from_box((0, 1, -1), (3, 4, 2))
        self.assert_sizes_agree(isg, range(-2, 3))


class TestSearchBounds:
    def test_min_projection_rectangle(self):
        isg = Polytope.from_box((0, 0), (20, 5))
        assert math.isclose(min_projection(isg), 5.0)

    def test_perpendicular_projection_2d(self):
        isg = Polytope.from_box((0, 0), (10, 10))
        # perpendicular to (1,0) is the j-axis: width 10
        assert math.isclose(perpendicular_projection((1, 0), isg), 10.0)

    def test_bound_contains_optimum(self, fig2_stencil, fig3_isg):
        from repro.core.search import find_optimal_uov

        bound = search_length_bound(fig2_stencil, fig3_isg)
        best = find_optimal_uov(fig2_stencil, isg=fig3_isg).ov
        assert math.sqrt(best[0] ** 2 + best[1] ** 2) <= bound

    def test_unknown_bounds_is_initial_length(self, fig1_stencil):
        assert math.isclose(
            search_length_bound(fig1_stencil), math.sqrt(8)
        )
