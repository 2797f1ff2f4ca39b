"""Code generation: executable Python twins, C structure, unrolling."""

import numpy as np
import pytest

from repro.codegen import build_runner, generate_c, generate_python
from repro.codegen.unroll import unroll_offsets, unrollable_modulus
from repro.codes import make_jacobi, make_psm, make_simple2d, make_stencil5
from repro.execution import execute
from repro.mapping import OVMapping, RollingBufferMapping
from repro.util.polyhedron import Polytope


def assert_generated_matches_interpreter(version, sizes, unroll=False):
    source = generate_python(version, sizes, unroll_mod=unroll)
    run = build_runner(source)
    code = version.code
    ctx = code.make_context(sizes, 0)
    storage = np.zeros(version.mapping(sizes).size)
    run(storage, ctx, code.combine, code.input_value)
    reference = execute(version, sizes)
    assert np.array_equal(storage, reference.storage), source


ALL_CASES = [
    (make_stencil5, "natural", {"T": 5, "L": 16}),
    (make_stencil5, "ov", {"T": 5, "L": 16}),
    (make_stencil5, "ov-interleaved", {"T": 5, "L": 16}),
    (make_stencil5, "ov-tiled", {"T": 5, "L": 16}),
    (make_stencil5, "ov-interleaved-tiled", {"T": 5, "L": 16}),
    (make_stencil5, "storage-optimized", {"T": 5, "L": 16}),
    (make_psm, "natural", {"n0": 7, "n1": 9}),
    (make_psm, "ov", {"n0": 7, "n1": 9}),
    (make_psm, "ov-tiled", {"n0": 7, "n1": 9}),
    (make_psm, "ov-optimal", {"n0": 7, "n1": 9}),
    (make_psm, "storage-optimized", {"n0": 7, "n1": 9}),
    (make_simple2d, "ov", {"n": 6, "m": 8}),
    (make_simple2d, "ov-tiled", {"n": 6, "m": 8}),
    (make_jacobi, "ov-tiled", {"T": 4, "L": 12}),
]


class TestPythonGeneration:
    @pytest.mark.parametrize(
        "maker,key,sizes",
        ALL_CASES,
        ids=[f"{m.__name__}-{k}" for m, k, s in ALL_CASES],
    )
    def test_generated_source_matches_interpreter(self, maker, key, sizes):
        assert_generated_matches_interpreter(maker()[key], sizes)

    @pytest.mark.parametrize(
        "maker,key,sizes",
        [
            (make_stencil5, "ov", {"T": 5, "L": 16}),
            (make_stencil5, "ov-interleaved", {"T": 5, "L": 17}),
            (make_psm, "ov", {"n0": 7, "n1": 9}),
            (make_jacobi, "ov", {"T": 4, "L": 13}),
        ],
        ids=["s5-ov", "s5-inter", "psm-ov", "jacobi-ov"],
    )
    def test_unrolled_matches_interpreter(self, maker, key, sizes):
        assert_generated_matches_interpreter(maker()[key], sizes, unroll=True)

    @pytest.mark.parametrize("pad", [0, 1, 3])
    def test_unrolled_padded_matches_interpreter(self, pad):
        # The hoisted class offset must step by the padded class stride.
        from dataclasses import replace

        from repro.mapping import PaddedOVMapping

        version = make_stencil5()["ov"]
        padded = replace(
            version,
            mapping_factory=lambda s: PaddedOVMapping(
                (2, 0), Polytope.from_loop_bounds(version.code.bounds(s)), pad
            ),
        )
        assert_generated_matches_interpreter(
            padded, {"T": 5, "L": 16}, unroll=True
        )

    def test_unrolled_source_has_no_inner_mod(self):
        version = make_psm()["ov"]
        source = generate_python(version, {"n0": 8, "n1": 8}, unroll_mod=True)
        main_loop, _, cleanup = source.partition("# cleanup")
        body_lines = [
            ln
            for ln in source.splitlines()
            if "storage[" in ln and "range" not in ln
        ]
        # The unrolled main-body addresses are mod-free; only the short
        # remainder loop may keep one.
        mod_lines = [ln for ln in body_lines if "%" in ln]
        assert len(mod_lines) < len(body_lines) / 2

    def test_wavefront_generation(self):
        from dataclasses import replace

        from repro.schedule import WavefrontSchedule

        version = replace(
            make_simple2d()["ov"],
            key="ov-wavefront",
            schedule_factory=lambda s: WavefrontSchedule((1, 1)),
        )
        assert_generated_matches_interpreter(version, {"n": 6, "m": 7})

    def test_unsupported_schedule_raises(self):
        from dataclasses import replace

        from repro.schedule import WavefrontSchedule

        version = replace(
            make_simple2d()["ov"],
            schedule_factory=lambda s: WavefrontSchedule((2, 1)),
        )
        with pytest.raises(NotImplementedError):
            generate_python(version, {"n": 4, "m": 4})


class TestCGeneration:
    @pytest.mark.parametrize(
        "maker,key,sizes",
        [
            (make_stencil5, "natural", {"T": 4, "L": 12}),
            (make_stencil5, "ov-tiled", {"T": 4, "L": 12}),
            (make_psm, "storage-optimized", {"n0": 5, "n1": 6}),
        ],
        ids=["natural", "ov-tiled", "psm-so"],
    )
    def test_structural_properties(self, maker, key, sizes):
        version = maker()[key]
        source = generate_c(version, sizes)
        assert source.count("{") == source.count("}")
        assert "void run(" in source
        assert source.count("storage[") >= 2  # loads and a store
        assert version.key in source

    def test_tiled_c_has_tile_loops(self):
        source = generate_c(make_stencil5()["ov-tiled"], {"T": 4, "L": 12})
        assert "t0 +=" in source and "t1 +=" in source
        assert "continue;" in source  # the skew guard

    def test_spec_combine_is_inlined(self):
        # Spec-expressed codes (weighted-sum / expr) carry no reader-
        # supplied macro: the combine is a concrete inlined expression
        # and the function pointer is never called.
        source = generate_c(make_stencil5()["ov"], {"T": 4, "L": 12})
        assert "combine(v" not in source
        # 0.4 as a C99 hex literal: exact bit pattern, no decimal rounding.
        assert (0.4).hex() in source

    def test_hook_combine_keeps_function_pointer(self):
        # psm's semantics are a SemanticsHook (data-dependent table
        # reads); only hooks keep the combine function-pointer form.
        source = generate_c(make_psm()["ov"], {"n0": 5, "n1": 6})
        assert "combine(v, qq)" in source

    def test_mod_is_sign_safe_in_c(self):
        # Python's % floors, C's truncates: the emitted form must agree
        # with the interpreter for negative operands too.
        source = generate_c(make_psm()["ov"], {"n0": 5, "n1": 6})
        assert "% 2 + 2) % 2" in source

    def test_pointers_are_restrict_qualified(self):
        source = generate_c(make_stencil5()["natural"], {"T": 4, "L": 12})
        assert "double *restrict storage" in source
        assert "const double *restrict halo" in source

    @pytest.mark.skipif(
        __import__(
            "repro.codegen.build", fromlist=["discover_toolchain"]
        ).discover_toolchain()
        is None,
        reason="no C toolchain on PATH",
    )
    @pytest.mark.parametrize(
        "maker,key,sizes",
        ALL_CASES,
        ids=[f"{m.__name__}-{k}" for m, k, s in ALL_CASES],
    )
    def test_emitted_c_compile_checks_clean(self, maker, key, sizes, tmp_path):
        import subprocess

        from repro.codegen.build import discover_toolchain

        toolchain = discover_toolchain()
        source = generate_c(maker()[key], sizes)
        c_file = tmp_path / "gen.c"
        c_file.write_text(source)
        result = subprocess.run(
            [
                toolchain.cc,
                "-std=c99",
                "-Wall",
                "-Werror",
                "-fsyntax-only",
                str(c_file),
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr + "\n" + source


class TestUnrollHelpers:
    def test_period_of_stencil5_uov(self):
        isg = Polytope.from_box((1, 0), (8, 15))
        m = OVMapping((2, 0), isg)
        # class functional is t-based: constant along the inner loop.
        assert unrollable_modulus(m, inner_axis=1) == 1
        assert unrollable_modulus(m, inner_axis=0) == 2

    def test_period_of_psm_uov(self):
        isg = Polytope.from_box((1, 1), (8, 8))
        m = OVMapping((2, 2), isg)
        assert unrollable_modulus(m, inner_axis=1) == 2

    def test_prime_has_no_period(self):
        isg = Polytope.from_box((0, 0), (8, 8))
        assert unrollable_modulus(OVMapping((1, 1), isg), 1) == 1

    def test_rolling_buffer_not_unrollable(self, fig1_stencil):
        isg = Polytope.from_box((1, 1), (5, 5))
        rb = RollingBufferMapping(fig1_stencil, isg)
        assert unrollable_modulus(rb, 1) == 1

    def test_offsets_cycle_correctly(self):
        isg = Polytope.from_box((1, 1), (8, 8))
        m = OVMapping((2, 2), isg)
        offsets = unroll_offsets(m, inner_axis=1, start=(1, 1))
        assert len(offsets) == 2
        assert offsets == [m.storage_class((1, 1)), m.storage_class((1, 2))]
