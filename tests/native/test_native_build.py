"""Build-layer behaviour: caching, fingerprints, degradation, self-heal.

The compile cache must be warm-start cheap (zero recompiles on a second
run), keyed on the toolchain identity (a compiler upgrade is a cache
miss, not a stale hit), and the whole tier must degrade — with a
structured :class:`~repro.resilience.budget.Degradation` — rather than
crash on machines without a compiler.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro import obs
from repro.codegen import build as build_mod
from repro.codegen.build import (
    ARCH_FLAG,
    BASE_FLAGS,
    Toolchain,
    discover_toolchain,
    reset_toolchain_cache,
    source_key,
    toolchain_fingerprint,
)
from repro.codes import make_stencil5
from repro.execution import execute, execute_native
from repro.execution.native import NativeFallback

from tests.native.conftest import requires_cc

SIZES = {"T": 4, "L": 13}


@pytest.fixture
def no_toolchain():
    """A world without a C compiler (restored + re-probed afterwards).

    Saves/restores the env by hand rather than via monkeypatch: the
    re-probe on teardown must run *after* the env is back, and fixture
    teardown order would run monkeypatch's undo too late.
    """
    import os

    old = os.environ.get(build_mod.CC_ENV)
    os.environ[build_mod.CC_ENV] = "none"
    reset_toolchain_cache()
    yield
    if old is None:
        os.environ.pop(build_mod.CC_ENV, None)
    else:
        os.environ[build_mod.CC_ENV] = old
    reset_toolchain_cache()


class TestToolchainIdentity:
    def test_fingerprint_distinguishes_toolchains(self):
        a = Toolchain(cc="/usr/bin/gcc", version="gcc 12.2.0")
        b = Toolchain(cc="/usr/bin/gcc", version="gcc 13.1.0")
        c = Toolchain(cc="/usr/bin/gcc", version="gcc 12.2.0", flags=("-O2",))
        assert len({a.fingerprint, b.fingerprint, c.fingerprint}) == 3

    def test_fingerprint_is_pinned(self):
        # The flags discovery records for a compiler that accepts
        # -march=native.  A new value re-keys every .so and stored result.
        toolchain = Toolchain(
            cc="/usr/bin/cc",
            version="cc (GCC) 12.2.0",
            flags=BASE_FLAGS + (ARCH_FLAG,),
        )
        assert toolchain.fingerprint == "5421557ab69de86b"

    def test_so_key_folds_in_toolchain(self):
        old = Toolchain(cc="/usr/bin/gcc", version="gcc 12.2.0")
        new = Toolchain(cc="/usr/bin/gcc", version="gcc 13.1.0")
        src = "void run(void) {}\n"
        assert source_key(src, old) != source_key(src, new)
        assert source_key(src, old) == source_key(src, old)

    def test_disabled_toolchain_fingerprints_as_none(self, no_toolchain):
        assert discover_toolchain() is None
        assert toolchain_fingerprint() == "none"

    def test_engine_fingerprint_folds_in_toolchain(self, monkeypatch):
        from repro.experiments import harness
        from repro.store.fingerprint import reset_engine_fingerprint

        reset_engine_fingerprint()
        monkeypatch.setattr(
            build_mod, "toolchain_fingerprint", lambda: "gcc-old"
        )
        fp_old = harness.engine_fingerprint()
        reset_engine_fingerprint()
        monkeypatch.setattr(
            build_mod, "toolchain_fingerprint", lambda: "gcc-new"
        )
        fp_new = harness.engine_fingerprint()
        reset_engine_fingerprint()
        assert fp_old != fp_new


@requires_cc
class TestWarmCache:
    def test_second_run_never_recompiles(self, so_cache, monkeypatch):
        version = make_stencil5()["ov"]
        first = execute_native(version, SIZES, cache_dir=so_cache)
        assert first.engine_used == "native"
        compiles_before = obs.get_metrics().counter("native.compiles").value

        def boom(*args, **kwargs):  # any compiler invocation is a failure
            raise AssertionError("warm cache must not invoke the compiler")

        monkeypatch.setattr(build_mod.subprocess, "run", boom)
        second = execute_native(version, SIZES, cache_dir=so_cache)
        assert second.engine_used == "native"
        assert np.array_equal(first.storage, second.storage)
        compiles_after = obs.get_metrics().counter("native.compiles").value
        assert compiles_after == compiles_before

    def test_corrupt_so_self_heals(self, tmp_path):
        from repro.codegen import generate_c
        from repro.codegen.build import compile_so

        version = make_stencil5()["natural"]
        cache = tmp_path / "cache"
        # Compile WITHOUT loading: dlopen caches already-loaded paths per
        # process, so a path loaded once would mask the corruption.
        so_path = compile_so(generate_c(version, SIZES), cache_dir=cache)
        so_path.write_bytes(b"this is not a shared object")
        healed = execute_native(version, SIZES, cache_dir=cache)
        assert healed.engine_used == "native"
        reference = execute(version, SIZES)
        assert np.array_equal(healed.storage, reference.storage)
        quarantined = list((cache / ".corrupt").iterdir())
        assert len(quarantined) == 1


class TestDegradation:
    def test_no_toolchain_degrades_to_vectorized(self, no_toolchain):
        version = make_stencil5()["ov"]
        with pytest.warns(NativeFallback):
            result = execute_native(version, SIZES)
        assert result.engine_used == "vectorized"
        assert result.degradation is not None
        assert result.degradation.reason == "no-toolchain"
        reference = execute(version, SIZES)
        assert np.array_equal(result.storage, reference.storage)

    def test_no_toolchain_is_reported_before_a_codegen_gap(
        self, no_toolchain, monkeypatch
    ):
        from repro.codegen import c_gen

        def unsupported(*args, **kwargs):
            raise NotImplementedError("synthetic codegen gap")

        monkeypatch.setattr(c_gen, "lower_kernel", unsupported)
        result = execute_native(make_stencil5()["ov"], SIZES)
        assert result.degradation.reason == "no-toolchain"

    def test_no_toolchain_fallback_false_raises(self, no_toolchain):
        with pytest.raises(ValueError, match="no-toolchain"):
            execute_native(make_stencil5()["ov"], SIZES, fallback=False)

    def test_compile_failure_degrades(self, so_cache, monkeypatch):
        if discover_toolchain() is None:
            pytest.skip("degradation reason differs without a toolchain")

        def broken(*args, **kwargs):
            raise build_mod.CompileError("synthetic compiler explosion")

        monkeypatch.setattr(build_mod, "compile_so", broken)
        result = execute_native(make_stencil5()["ov"], SIZES)
        assert result.engine_used == "vectorized"
        assert result.degradation.reason == "compile-failed"

    def test_pipeline_records_degradation(self, no_toolchain):
        from repro.codes import get_spec
        from repro.pipeline import compile_spec

        result = compile_spec(get_spec("stencil5"), engine="native")
        artifact = result.artifact("execute")
        assert artifact.verified
        assert artifact.engine == "native"
        assert artifact.engine_used == "vectorized"
        assert artifact.degradation["reason"] == "no-toolchain"

    def test_cli_end_to_end_degraded_line(self, tmp_path):
        """The acceptance check: every entry point completes without a
        compiler, and says so."""
        import os

        env = dict(os.environ)
        env[build_mod.CC_ENV] = "none"
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "run",
                "examples/specs/heat7.json",
                "--engine=native",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(
                __import__("pathlib").Path(__file__).resolve().parents[2]
            ),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "DEGRADED: no-toolchain" in proc.stdout
        assert "engine vectorized" in proc.stdout


@requires_cc
class TestPipelineNative:
    def test_pipeline_native_execute_and_c_codegen(self, so_cache, monkeypatch):
        from repro.codes import get_spec
        from repro.pipeline import compile_spec

        monkeypatch.setenv("REPRO_SO_CACHE", so_cache)
        result = compile_spec(
            get_spec("stencil5"), engine="native", codegen=True
        )
        executed = result.artifact("execute")
        assert executed.engine_used == "native"
        assert executed.degradation is None
        generated = result.artifact("codegen")
        assert generated.supported
        assert generated.lang == "c"
        assert "void run(" in generated.source

    def test_engine_is_part_of_the_cache_key(self, so_cache, monkeypatch):
        from repro.codes import get_spec
        from repro.pipeline import ArtifactCache, compile_spec

        monkeypatch.setenv("REPRO_SO_CACHE", so_cache)
        cache = ArtifactCache()
        spec = get_spec("simple2d")
        first = compile_spec(spec, engine="interpreter", cache=cache)
        second = compile_spec(spec, engine="native", cache=cache)
        # The prefix stages hit; execute must rerun under the new engine.
        assert "execute" in first.stages_run
        assert "execute" in second.stages_run
        assert "uov-search" in second.cache_hits
        assert second.artifact("execute").engine_used == "native"
