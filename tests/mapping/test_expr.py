"""Address-expression IR: simplification, op counting, printing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mapping.expr import Add, Const, Mod, Mul, OpTally, Var, affine


class TestSimplification:
    def test_add_zero(self):
        assert Add.make(Var("x"), Const(0)) == Var("x")
        assert Add.make(Const(0), Var("x")) == Var("x")

    def test_mul_identity_and_zero(self):
        assert Mul.make(Const(1), Var("x")) == Var("x")
        assert Mul.make(Const(0), Var("x")) == Const(0)
        assert Mul.make(Var("x"), Const(1)) == Var("x")

    def test_constant_folding(self):
        assert Add.make(Const(2), Const(3)) == Const(5)
        assert Mul.make(Const(2), Const(3)) == Const(6)
        assert Mod.make(Const(7), Const(3)) == Const(1)

    def test_mod_one_is_zero(self):
        assert Mod.make(Var("x"), Const(1)) == Const(0)

    def test_mod_requires_positive_constant(self):
        with pytest.raises(ValueError):
            Mod.make(Var("x"), Const(0))
        with pytest.raises(ValueError):
            Mod.make(Var("x"), Var("y"))


class TestOpCounts:
    def test_fig1b_mapping_cost(self):
        # (-1,1).q + n: one subtraction, one addition, no multiplies.
        e = affine((-1, 1), ("i", "j"), 8)
        assert e.op_counts() == OpTally(adds=2, muls=0, mods=0)

    def test_general_2d_array_cost(self):
        # row-major (s2, 1): one multiply, one add.
        e = affine((13, 1), ("i", "j"), 0)
        assert e.op_counts() == OpTally(adds=1, muls=1, mods=0)

    def test_power_of_two_scale_counts_as_add(self):
        e = affine((2, 0), ("i", "j"), 0)
        assert e.op_counts().muls == 0
        e8 = affine((8, 1), ("i", "j"), 0)
        assert e8.op_counts() == OpTally(adds=2, muls=0)
        e16 = affine((16, 1), ("i", "j"), 0)
        assert e16.op_counts().muls == 1

    def test_mod_counted(self):
        e = affine((1, 0), ("i", "j"), 0) % 2
        assert e.op_counts().mods == 1

    def test_tally_arithmetic(self):
        t = OpTally(adds=1) + OpTally(muls=2, mods=1)
        assert t == OpTally(adds=1, muls=2, mods=1)
        assert t.total == 4


class TestPrinting:
    def test_negative_coefficients_print_as_subtraction(self):
        assert affine((-1, 1), ("i", "j"), 0).to_python() == "-i + j"
        assert affine((1, -1), ("i", "j"), 0).to_python() == "i - j"

    def test_negative_constant(self):
        assert affine((1,), ("x",), -3).to_python() == "x - 3"

    def test_mod_precedence(self):
        e = affine((0, 2), ("t", "x"), 0) + (affine((1, 0), ("t", "x"), 0) % 2)
        # Python and C give % higher precedence than +, so this is exact.
        assert e.to_python() == "2 * x + t % 2"

    def test_c_matches_python_except_sign_safe_mod(self):
        # Mod-free expressions render identically in both languages.
        plain = affine((3, -1), ("a", "b"), 7)
        assert plain.to_c() == plain.to_python()
        # Python's % floors, C's truncates: the C rendering wraps the
        # modulus in the Euclidean form so negative operands agree.
        e = plain % 5
        assert e.to_python() == "(3 * a - b + 7) % 5"
        assert e.to_c() == "(((3 * a - b + 7) % 5 + 5) % 5)"


@given(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.integers(-20, 20),
    st.tuples(st.integers(0, 30), st.integers(0, 30)),
)
def test_printed_source_evaluates_identically(coeffs, const, point):
    """to_python() is executable and agrees with evaluate()."""
    e = affine(coeffs, ("i", "j"), const)
    env = {"i": point[0], "j": point[1]}
    via_eval = eval(e.to_python(), {}, dict(env))
    assert via_eval == e.evaluate(env)


@given(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.integers(2, 7),
    st.tuples(st.integers(0, 20), st.integers(0, 20)),
)
def test_mod_expression_source_matches(coeffs, modulus, point):
    if coeffs == (0, 0):
        return
    e = affine(coeffs, ("i", "j"), 0) % modulus
    env = {"i": point[0], "j": point[1]}
    assert eval(e.to_python(), {}, dict(env)) == e.evaluate(env)


def _box_2d():
    from repro.util.polyhedron import Polytope

    return Polytope.from_box((1, -2), (6, 5))


def _box_3d():
    from repro.util.polyhedron import Polytope

    return Polytope.from_box((0, 1, -1), (3, 4, 2))


def _mapping_families():
    from repro.core.stencil import Stencil
    from repro.mapping import (
        ColMajorMapping,
        OVMapping,
        RollingBufferMapping,
        RowMajorMapping,
    )
    from repro.mapping.padding import PaddedOVMapping

    fig1 = Stencil([(1, 0), (0, 1), (1, 1)])
    box, box3 = _box_2d(), _box_3d()
    return {
        "row-major": RowMajorMapping((6, 8), origin=(1, -2)),
        "col-major": ColMajorMapping((6, 8), origin=(1, -2)),
        "ov-prime": OVMapping((1, 1), box),
        "ov-psm-paper": OVMapping((2, 2), box, layout="consecutive"),
        "ov-consecutive": OVMapping((2, 0), box, layout="consecutive"),
        "ov-interleaved": OVMapping((2, 0), box, layout="interleaved"),
        "ov-interleaved-skew": OVMapping((3, -3), box),
        "ov-padded": PaddedOVMapping((2, 0), box, pad=5),
        "ovnd-prime": OVMapping((1, 0, 1), box3),
        "ovnd-interleaved": OVMapping((2, 2, 0), box3),
        "ovnd-consecutive": OVMapping(
            (0, 2, -2), box3, layout="consecutive"
        ),
        "rolling": RollingBufferMapping(fig1, box),
        "rolling-permuted": RollingBufferMapping(
            fig1, box, window=17, perm=(1, 0)
        ),
    }


class TestAffineModForm:
    """Every mapping family decomposes into ``a.q + c + sum_j k_j *
    ((b_j.q + e_j) mod g_j)``, and the form is the mapping."""

    @pytest.mark.parametrize("name", sorted(_mapping_families()))
    def test_form_equals_the_mapping_on_every_point(self, name):
        import itertools

        from repro.mapping.expr import affine_mod_form

        mapping = _mapping_families()[name]
        names = [f"q{k}" for k in range(mapping.dim)]
        form = affine_mod_form(mapping.expression(names), names)
        box = _box_3d() if mapping.dim == 3 else _box_2d()
        lower, upper = box.bounding_box()
        points = list(
            itertools.product(
                *[range(lo, hi + 1) for lo, hi in zip(lower, upper)]
            )
        )
        assert [form.evaluate(p) for p in points] == [
            mapping(p) for p in points
        ]

    def test_form_fields(self):
        from repro.mapping.expr import ModTerm, affine_mod_form

        # psm's paper OV (2, 2), consecutive: (-1, 1).q - lo + L*(q1 mod 2)
        mapping = _mapping_families()["ov-psm-paper"]
        form = affine_mod_form(mapping.expression(["i", "j"]), ["i", "j"])
        assert form.linear == (-1, 1)
        assert form.constant == mapping.shift
        assert form.terms == (ModTerm(mapping.size // 2, (0, 1), 0, 2),)

    @pytest.mark.parametrize(
        "expr",
        [
            Mul.make(Var("i"), Var("j")),
            Mod.make(Mod.make(Var("i"), Const(3)) + Var("j"), Const(2)),
            Mod.make(Var("i") * 2, Const(4)) * Var("j"),
            affine((1, 2), ("i", "k"), 0),
        ],
        ids=["product", "mod-in-mod", "mod-times-var", "unknown-variable"],
    )
    def test_outside_the_form_raises(self, expr):
        from repro.mapping.expr import affine_mod_form

        with pytest.raises(ValueError):
            affine_mod_form(expr, ["i", "j"])
