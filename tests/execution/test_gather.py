"""The gather pieces every fast path shares: one halo, one address form.

:func:`fill_halo` is held against the scalar ``input_value`` at every
position of its shell, for every registered code, both example specs
and a 3-D spec, at sizes where producers leave the box through several
faces, edges and corners.  The vectorized engine gathers from that halo;
a mapping outside the affine-mod form takes the scalar fallback under
its own reason code.
"""

import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.codes import MAKERS
from repro.execution import (
    VectorizationFallback,
    execute,
    execute_vectorized,
)
from repro.execution.gather import fill_halo, halo_geometry
from repro.frontend import (
    SpecBuilder,
    StencilSpec,
    make_versions,
    synthesize_code,
)
from repro.frontend.synth import build_version
from repro.mapping import MAPPINGS
from repro.mapping.array import RowMajorMapping
from repro.mapping.expr import Const, Mod
from repro.util.registry import RegistryEntry

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples" / "specs").glob(
        "*.json"
    )
)

#: Odd, non-power-of-two sizes per registered code.
ODD_SIZES = {
    "simple2d": {"n": 5, "m": 7},
    "stencil5": {"T": 4, "L": 13},
    "psm": {"n0": 5, "n1": 7},
    "jacobi": {"T": 3, "L": 11},
}

#: A 3-D stencil whose producers leave through five faces of the box:
#: below ``t``, both sides of ``x`` and of ``y``.
HEAT3 = (
    SpecBuilder("heat3")
    .loop("t", 1, "T")
    .loop("x", 0, "X - 1")
    .loop("y", 0, "Y - 1")
    .distances((1, 1, 0), (1, 0, -1), (1, -2, 1), (0, 1, -1), (1, 0, 0))
    .weighted_sum(0.1, 0.2, 0.3, 0.15, 0.25)
    .inputs("padded-line", axis=1, pad=2, pad_value=0.5)
    .sizes(T=4, X=6, Y=5)
    .build()
)


def halo_cases():
    cases = [
        pytest.param(
            MAKERS[name]()["natural"].code, sizes, id=name
        )
        for name, sizes in ODD_SIZES.items()
    ]
    for spec in [StencilSpec.load(path) for path in EXAMPLES] + [HEAT3]:
        cases.append(
            pytest.param(synthesize_code(spec), dict(spec.sizes), id=spec.name)
        )
    return cases


@pytest.mark.parametrize("code,sizes", halo_cases())
def test_every_shell_position_holds_its_input(code, sizes):
    bounds = code.bounds(sizes)
    ctx = code.make_context(sizes, 5)
    ext_lo, ext_hi, strides = halo_geometry(code.source_distances, bounds)
    halo = fill_halo(code, bounds, ctx)
    extended = list(zip(ext_lo, ext_hi))
    assert halo.shape == (strides[0] * (ext_hi[0] - ext_lo[0] + 1),)

    sides = set()
    corners = 0
    for p in itertools.product(*(range(lo, hi + 1) for lo, hi in extended)):
        offset = sum(s * (c - lo) for s, c, lo in zip(strides, p, ext_lo))
        left = {
            (k, c < lo)
            for k, (c, (lo, hi)) in enumerate(zip(p, bounds))
            if not lo <= c <= hi
        }
        if not left:
            assert halo[offset] == 0.0, p
            continue
        assert halo[offset] == code.input_value(p, ctx), p
        sides |= left
        corners += len(left) > 1
    # The sizes put producers past several faces and their corners.
    assert len(sides) >= 2 and corners >= 1


def test_vectorized_gathers_a_3d_halo_bit_for_bit():
    code = synthesize_code(HEAT3)
    sizes = dict(HEAT3.sizes)
    for key in ("natural", "ov"):
        version = make_versions(code)[key]
        reference = execute(version, sizes, seed=3)
        vectorized = execute_vectorized(version, sizes, seed=3, fallback=False)
        assert np.array_equal(reference.storage, vectorized.storage)
        assert np.array_equal(
            reference.output_values(), vectorized.output_values()
        )


class _NestedModMapping(RowMajorMapping):
    """Row-major storage written as a mod of a mod: the same offsets,
    outside the affine-mod form."""

    def expression(self, variables):
        size = Const(self.size)
        return Mod.make(Mod.make(super().expression(variables), size), size)


def _nested_mod(stencil, bounds, ov, options):
    shape = tuple(hi - lo + 1 for lo, hi in bounds)
    return _NestedModMapping(shape, origin=tuple(lo for lo, _ in bounds))


class TestMappingOutsideTheForm:
    SIZES = {"T": 9, "L": 14}

    @pytest.fixture
    def version(self, monkeypatch):
        monkeypatch.setitem(
            MAPPINGS._entries,
            "nested-mod",
            RegistryEntry("nested-mod", _nested_mod, "test plugin"),
        )
        code = MAKERS["stencil5"]()["natural"].code
        return build_version(
            code, "nested-mod", "nested-mod/lex", "nested-mod", "lex"
        )

    def test_falls_back_with_its_own_reason_bit_for_bit(
        self, version, monkeypatch
    ):
        events = []
        monkeypatch.setattr(
            obs, "event", lambda name, **attrs: events.append((name, attrs))
        )
        obs.reset_dedup()
        with pytest.warns(VectorizationFallback, match="affine-mod"):
            result = execute_vectorized(version, self.SIZES, seed=3)
        obs.reset_dedup()
        assert [
            attrs["reason"]
            for name, attrs in events
            if name == "vectorized.fallback"
        ] == ["no-affine-mod-form"]
        reference = execute(version, self.SIZES, seed=3)
        assert np.array_equal(result.storage, reference.storage)
        assert np.array_equal(
            result.output_values(), reference.output_values()
        )
        # The same offsets as the shipped row-major mapping, batched.
        natural = execute_vectorized(
            MAKERS["stencil5"]()["natural"], self.SIZES, seed=3,
            fallback=False,
        )
        assert np.array_equal(result.storage, natural.storage)

    def test_fallback_false_raises(self, version):
        with warnings.catch_warnings():
            warnings.simplefilter("error", VectorizationFallback)
            with pytest.raises(ValueError, match="no affine-mod address form"):
                execute_vectorized(version, self.SIZES, fallback=False)
