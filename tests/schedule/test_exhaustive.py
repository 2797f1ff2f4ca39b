"""Exhaustive schedule enumeration: the literal UOV quantifier."""

import itertools

import pytest

from repro.analysis.legality import is_schedule_legal
from repro.analysis.liveness import is_mapping_legal
from repro.core.stencil import Stencil
from repro.core.uov import enumerate_uovs, is_uov
from repro.mapping import OVMapping
from repro.schedule.exhaustive import all_legal_orders, count_legal_orders
from repro.util.polyhedron import Polytope


class TestEnumeration:
    def test_chain_has_one_order(self):
        s = Stencil([(1,)])
        assert count_legal_orders(s, [(0, 4)]) == 1

    def test_independent_points_are_permutations(self):
        # A dependence that never fits in the box: all orders legal.
        s = Stencil([(5, 0)])
        bounds = [(0, 1), (0, 1)]
        import math

        assert count_legal_orders(s, bounds) == math.factorial(4)

    def test_known_small_count(self, fig1_stencil):
        # 2x2 grid under {(1,0),(0,1),(1,1)}: (0,0) first, (1,1) last,
        # middle two free: exactly 2 orders.
        assert count_legal_orders(fig1_stencil, [(0, 1), (0, 1)]) == 2

    def test_every_order_is_legal_and_distinct(self, fig1_stencil):
        bounds = [(0, 1), (0, 2)]
        orders = list(all_legal_orders(fig1_stencil, bounds))
        assert len(orders) == count_legal_orders(fig1_stencil, bounds)
        seen = set()
        for order in orders:
            key = tuple(order)
            assert key not in seen
            seen.add(key)
            assert is_schedule_legal(order, fig1_stencil)
            assert sorted(order) == sorted(
                itertools.product(range(2), range(3))
            )

    def test_limit(self, fig1_stencil):
        orders = list(
            all_legal_orders(fig1_stencil, [(0, 2), (0, 2)], limit=5)
        )
        assert len(orders) == 5


class TestLiteralUniversality:
    """Discharge the 'for every legal schedule' quantifier exactly."""

    def test_uovs_survive_every_schedule(self, fig1_stencil):
        bounds = [(0, 2), (0, 2)]
        isg = Polytope.from_loop_bounds(bounds)
        uovs = enumerate_uovs(fig1_stencil, max_norm2=8)
        orders = list(all_legal_orders(fig1_stencil, bounds))
        assert len(orders) > 10  # the quantifier is not vacuous
        for ov in uovs:
            mapping = OVMapping(ov, isg)
            for order in orders:
                assert is_mapping_legal(mapping, fig1_stencil, order), (
                    f"UOV {ov} failed a legal schedule — "
                    "the membership test is unsound"
                )

    @pytest.mark.parametrize("ov", [(1, 0), (0, 1), (0, 2), (2, -1)])
    def test_non_uovs_fail_some_schedule(self, fig1_stencil, ov):
        bounds = [(0, 2), (0, 2)]
        isg = Polytope.from_loop_bounds(bounds)
        assert not is_uov(ov, fig1_stencil)
        mapping = OVMapping(ov, isg)
        failed = any(
            not is_mapping_legal(mapping, fig1_stencil, order)
            for order in all_legal_orders(fig1_stencil, bounds)
        )
        assert failed, (
            f"non-UOV {ov} survived every schedule of this box; "
            "box too small to witness, or membership too strict"
        )

    def test_5pt_uov_exact_on_tiny_box(self, stencil5):
        bounds = [(0, 2), (0, 2)]
        isg = Polytope.from_loop_bounds(bounds)
        orders = list(all_legal_orders(stencil5, bounds, limit=2000))
        mapping = OVMapping((2, 0), isg, layout="interleaved")
        assert all(
            is_mapping_legal(mapping, stencil5, order) for order in orders
        )
