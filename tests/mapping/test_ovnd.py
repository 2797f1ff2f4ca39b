"""The OV mapping beyond two dimensions (our extension of Section 4).

The 2-D cases, checked against the paper's closed form, are in
``test_ov2d.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping.ov import OVMapping
from repro.util.polyhedron import Polytope

ov3 = st.tuples(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)
).filter(lambda v: v != (0, 0, 0))


def box3(a=4, b=5, c=6):
    return Polytope.from_box((0, 0, 0), (a, b, c))


class TestThreeD:
    @settings(max_examples=30, deadline=None)
    @given(ov3, st.sampled_from(["interleaved", "consecutive"]))
    def test_storage_equivalence(self, ov, layout):
        isg = box3()
        sm = OVMapping(ov, isg, layout=layout)
        import itertools

        points = list(itertools.product(range(5), range(6), range(7)))
        loc = {p: sm(p) for p in points}
        for p in points:
            q = tuple(a + b for a, b in zip(p, ov))
            if q in loc:
                assert loc[p] == loc[q], (p, q, ov)
        for p in points:
            assert 0 <= loc[p] < sm.size

    @settings(max_examples=30, deadline=None)
    @given(ov3)
    def test_no_false_sharing(self, ov):
        """Cohabiting points must differ by an integral multiple of ov."""
        sm = OVMapping(ov, box3())
        import itertools

        by_loc = {}
        for p in itertools.product(range(5), range(6), range(7)):
            by_loc.setdefault(sm(p), []).append(p)
        for cohabitants in by_loc.values():
            base = cohabitants[0]
            for p in cohabitants[1:]:
                d = tuple(a - b for a, b in zip(p, base))
                nz = next(k for k in range(3) if ov[k] != 0)
                k, r = divmod(d[nz], ov[nz])
                assert r == 0
                assert all(d[i] == k * ov[i] for i in range(3))

    def test_compiled_and_expression_agree(self):
        sm = OVMapping((2, 2, 0), box3(), layout="consecutive")
        f = sm.compiled()
        import itertools

        for p in itertools.product(range(5), range(6), range(7)):
            assert f(*p) == sm(p)

    def test_perpendicular_size(self):
        sm = OVMapping((1, 0, 0), box3(4, 5, 6))
        # perpendicular box: the (j, k) face -> 6 * 7 locations
        assert sm.perpendicular_size == 6 * 7
        assert sm.size == 6 * 7

    def test_effective_op_cost_removes_mod(self):
        sm = OVMapping((2, 2, 2), box3())
        assert sm.op_cost().mods == 1
        assert sm.effective_op_cost().mods == 0


class TestValidation:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            OVMapping((0, 0, 0), box3())

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            OVMapping((1, 1), box3())

    def test_bad_layout(self):
        with pytest.raises(ValueError):
            OVMapping((1, 1, 1), box3(), layout="weird")

    def test_class_expression_bounds(self):
        sm = OVMapping((2, 0, 0), box3())
        with pytest.raises(ValueError):
            sm.expression_with_class(["a", "b", "c"], 5)
