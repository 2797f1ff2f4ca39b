"""One shared object per native batch.

Every version of a native batch is lowered into one translation unit,
compiled once and loaded once; each kernel keeps its own entry point,
its own kernel timer, its own ``engine.run`` span and its own
degradation record.  A native execute stage is such a batch (the spec's
version and its natural reference), so it runs the compiler once.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro import obs
from repro.codegen import build as build_mod
from repro.codegen import c_gen
from repro.codes import get_spec, make_stencil5
from repro.execution import execute, run_engine_batch
from repro.execution.native import NativeFallback, native_runners
from repro.frontend import StencilSpec, make_versions, synthesize_code
from repro.obs.summary import load_trace, render_summary

from tests.native.conftest import requires_cc
from tests.native.test_native_differential import EXAMPLES, ODD_SIZES

SIZES = {"T": 4, "L": 13}


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


def _compiles() -> int:
    return obs.get_metrics().counter("native.compiles").value


def family_cases():
    cases = []
    for maker, sizes in ODD_SIZES.items():
        versions = list(maker().values())
        cases.append(
            pytest.param(versions, sizes, id=versions[0].code.name)
        )
    for path in EXAMPLES:
        spec = StencilSpec.load(path)
        versions = list(make_versions(synthesize_code(spec)).values())
        cases.append(pytest.param(versions, dict(spec.sizes), id=spec.name))
    return cases


def _stencil5(*keys):
    family = make_stencil5()
    return [family[key] for key in keys]


class TestUnitSource:
    def test_shared_prelude_is_written_once(self):
        (path,) = [p for p in EXAMPLES if p.stem == "relax3"]
        spec = StencilSpec.load(path)
        versions = list(make_versions(synthesize_code(spec)).values())
        source = c_gen.translation_unit(
            [c_gen.lower_kernel(v, spec.sizes) for v in versions],
            profile=True,
        )
        assert source.count("static double repro_max2(") == 1
        assert source.count("typedef double (*combine_fn)") == 1
        assert source.count("#include <time.h>") == 1
        assert "void run(" not in source
        for entry, timer in c_gen.kernel_symbols(len(versions)):
            assert source.count(f"void {entry}(") == 1
            assert source.count(f"double {timer};") == 1
            body = source.split(f"void {entry}(")[1].split("\n}\n")[0]
            assert f"    {timer} = " in body


@requires_cc
class TestSharedObject:
    @pytest.mark.parametrize("versions,sizes", family_cases())
    def test_every_kernel_matches_the_interpreter(
        self, versions, sizes, tmp_path
    ):
        runners = native_runners(versions, sizes, cache_dir=tmp_path)
        assert _compiles() == 1
        assert len(list(tmp_path.glob("*.so"))) == 1
        for version, run in zip(versions, runners):
            result = run()
            assert result.engine_used == "native"
            assert result.degradation is None
            assert np.array_equal(
                result.storage, execute(version, sizes).storage
            )

    def test_each_kernel_reports_its_own_time(self, tmp_path):
        versions = _stencil5("natural", "ov")
        results = [
            run()
            for run in native_runners(
                versions, SIZES, cache_dir=tmp_path, profile=True
            )
        ]
        # dlopen hands back the handle the runners use: same globals.
        (so_path,) = tmp_path.glob("*.so")
        lib = ctypes.CDLL(str(so_path))
        for (_, timer), result in zip(c_gen.kernel_symbols(2), results):
            assert result.kernel_s > 0
            assert result.kernel_s == (
                ctypes.c_double.in_dll(lib, timer).value * 1e-9
            )
        snap = obs.get_metrics().snapshot()
        assert snap["counters"]["native.profiled_runs"] == 2
        assert snap["histograms"]["native.kernel_s"]["count"] == 2

    def test_a_codegen_gap_degrades_only_its_version(
        self, tmp_path, monkeypatch
    ):
        versions = _stencil5("natural", "ov-tiled", "ov")
        lower = c_gen.lower_kernel

        def gap(version, sizes):
            if version.key == "ov-tiled":
                raise NotImplementedError("synthetic codegen gap")
            return lower(version, sizes)

        monkeypatch.setattr(c_gen, "lower_kernel", gap)
        with pytest.warns(NativeFallback):
            results = [
                run()
                for run in native_runners(versions, SIZES, cache_dir=tmp_path)
            ]
        assert [r.engine_used for r in results] == [
            "native", "vectorized", "native",
        ]
        assert results[1].degradation.reason == "codegen-unsupported"
        assert results[0].degradation is None
        assert results[2].degradation is None
        assert _compiles() == 1
        for version, result in zip(versions, results):
            assert np.array_equal(
                result.storage, execute(version, SIZES).storage
            )

    def test_a_compile_failure_degrades_every_version(
        self, tmp_path, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise build_mod.CompileError("synthetic compiler explosion")

        monkeypatch.setattr(build_mod, "compile_so", broken)
        versions = _stencil5("natural", "ov", "ov-tiled")
        with pytest.warns(NativeFallback):
            results = [
                run()
                for run in native_runners(versions, SIZES, cache_dir=tmp_path)
            ]
        for version, result in zip(versions, results):
            assert result.engine_used == "vectorized"
            assert result.degradation.reason == "compile-failed"
            assert np.array_equal(
                result.storage, execute(version, SIZES).storage
            )
        assert len({id(r.degradation) for r in results}) == 3
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["resilience.degradations.compile-failed"] == 3

    def test_each_version_run_emits_one_engine_run_span(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SO_CACHE", str(tmp_path / "so"))
        path = tmp_path / "trace.jsonl"
        obs.configure(trace_path=str(path), program="unit")
        try:
            run_engine_batch(
                "native", _stencil5("natural", "ov", "ov-tiled"), SIZES
            )
        finally:
            obs.shutdown()
        summary = load_trace(path.read_text().splitlines())
        runs = [n for n in summary.spans.values() if n.name == "engine.run"]
        assert len(runs) == 3
        for node in runs:
            assert node.attrs == {
                "requested": "native", "engine_used": "native",
            }
            assert [c.name for c in node.children] == ["native.run"]
        compiles = [
            n for n in summary.spans.values() if n.name == "native.compile"
        ]
        assert len(compiles) == 1
        text = render_summary(summary)
        assert f"  {'native':<28s} x3  wall" in text
        assert "native compile (C compiler)    x1  " in text


@requires_cc
class TestOneCompilePerStage:
    def test_a_native_execute_stage_runs_the_compiler_once(
        self, tmp_path, monkeypatch
    ):
        from repro.pipeline import ArtifactCache, compile_spec

        monkeypatch.setenv("REPRO_SO_CACHE", str(tmp_path))
        first = compile_spec(get_spec("stencil5"), engine="native")
        assert first.artifact("execute").engine_used == "native"
        assert _compiles() == 1
        assert len(list(tmp_path.glob("*.so"))) == 1
        second = compile_spec(
            get_spec("stencil5"), engine="native", cache=ArtifactCache()
        )
        assert "execute" in second.stages_run
        assert _compiles() == 1
