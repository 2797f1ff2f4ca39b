"""Toolchain discovery compiles nothing; a failed build finds its fault.

Fake compilers in ``tmp_path`` wrap the real one (see
:func:`tests.native.conftest.fake_cc`): one only logs its calls, one
rejects ``-march=native``, one rejects ``-fsanitize=address``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.codegen.build import (
    ARCH_FLAG,
    BASE_FLAGS,
    CC_ENV,
    SANITIZE_ENV,
    discover_toolchain,
    reset_toolchain_cache,
    sanitize_flags,
)
from repro.codes import make_stencil5
from repro.execution import execute, execute_native

from tests.native.conftest import cc_calls, fake_cc, requires_cc

SIZES = {"T": 4, "L": 13}


def counter(name: str) -> int:
    return obs.get_metrics().counter(name).value


def builds(log) -> list[str]:
    return [call for call in cc_calls(log) if call != "--version"]


@pytest.fixture
def install_cc(tmp_path, monkeypatch):
    """Install a fake compiler as ``REPRO_CC``; returns its call log."""
    reset_toolchain_cache()
    real = discover_toolchain()

    def install(reject=None):
        script, log = fake_cc(tmp_path, real.cc, reject)
        monkeypatch.setenv(CC_ENV, str(script))
        reset_toolchain_cache()
        return log

    yield install
    reset_toolchain_cache()


@requires_cc
class TestDiscovery:
    def test_discovery_only_asks_for_the_version(self, install_cc):
        log = install_cc()
        toolchain = discover_toolchain()
        assert cc_calls(log) == ["--version"]
        assert toolchain.flags == BASE_FLAGS + (ARCH_FLAG,) + sanitize_flags()

    def test_a_cold_build_is_one_run_and_a_warm_one_none(
        self, install_cc, tmp_path
    ):
        log = install_cc()
        cache = tmp_path / "so"
        version = make_stencil5()["ov"]
        cold = execute_native(version, SIZES, cache_dir=cache)
        assert cold.engine_used == "native"
        assert cc_calls(log)[0] == "--version"
        assert len(builds(log)) == 1
        # As a new process would: discover again, then find the object.
        reset_toolchain_cache()
        log.unlink()
        warm = execute_native(version, SIZES, cache_dir=cache)
        assert warm.engine_used == "native"
        assert cc_calls(log) == ["--version"]
        assert np.array_equal(cold.storage, warm.storage)

    def test_a_vectorized_compile_only_asks_for_the_version(
        self, install_cc, tmp_path
    ):
        from repro.codes import get_spec
        from repro.pipeline import ArtifactCache, compile_spec

        log = install_cc()
        store = tmp_path / "store"
        spec = get_spec("stencil5")
        cold = compile_spec(
            spec, engine="vectorized", cache=ArtifactCache(store)
        )
        assert cc_calls(log) == ["--version"]
        # Warm, as a new process would run it: the keys fold in the
        # toolchain, so discovery's one query is still made.
        reset_toolchain_cache()
        log.unlink()
        warm = compile_spec(
            spec, engine="vectorized", cache=ArtifactCache(store)
        )
        assert "execute" in warm.cache_hits
        assert cc_calls(log) == ["--version"]
        assert (
            warm.artifact("execute").outputs_sha256
            == cold.artifact("execute").outputs_sha256
        )

    def test_a_broken_source_degrades_compile_failed(
        self, install_cc, tmp_path, monkeypatch
    ):
        from repro.codegen import c_gen

        log = install_cc()
        monkeypatch.setattr(
            c_gen,
            "translation_unit",
            lambda *args, **kwargs: "#error broken on purpose\n",
        )
        march_before = counter("native.no_march_native")
        result = execute_native(
            make_stencil5()["ov"], SIZES, cache_dir=tmp_path / "so"
        )
        assert result.engine_used == "vectorized"
        assert result.degradation.reason == "compile-failed"
        assert "broken on purpose" in result.degradation.detail
        # The failed build, then the one probe that cleared the flags.
        assert len(builds(log)) == 2
        assert counter("native.no_march_native") == march_before


@requires_cc
class TestMarchNativeRejected:
    def test_first_build_warns_once_and_drops_the_flag(
        self, install_cc, tmp_path
    ):
        log = install_cc(reject=ARCH_FLAG)
        before = counter("native.no_march_native")
        version = make_stencil5()["ov"]
        with pytest.warns(UserWarning, match="-march=native rejected"):
            result = execute_native(version, SIZES, cache_dir=tmp_path / "so")
        assert result.engine_used == "native"
        assert result.degradation is None
        reference = execute(version, SIZES)
        assert np.array_equal(result.storage, reference.storage)
        assert counter("native.no_march_native") == before + 1
        # The fingerprint still covers the requested flags.
        assert ARCH_FLAG in discover_toolchain().flags
        # Build, probe with the flags, probe without, build without.
        calls = builds(log)
        assert len(calls) == 4
        assert ARCH_FLAG not in calls[-1].split()

    def test_a_second_build_does_not_retry(self, install_cc, tmp_path):
        log = install_cc(reject=ARCH_FLAG)
        cache = tmp_path / "so"
        with pytest.warns(UserWarning, match="-march=native rejected"):
            execute_native(make_stencil5()["ov"], SIZES, cache_dir=cache)
        log.unlink()
        version = make_stencil5()["natural"]
        second = execute_native(version, SIZES, cache_dir=cache)
        assert second.engine_used == "native"
        assert np.array_equal(second.storage, execute(version, SIZES).storage)
        calls = builds(log)
        assert len(calls) == 1
        assert ARCH_FLAG not in calls[0].split()


@requires_cc
class TestSanitizerRejected:
    def test_native_degrades_naming_the_flag(
        self, install_cc, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(SANITIZE_ENV, "address")
        install_cc(reject="-fsanitize=address")
        before = counter("native.no_sanitize")
        cache = tmp_path / "so"
        result = execute_native(make_stencil5()["ov"], SIZES, cache_dir=cache)
        assert result.engine_used == "vectorized"
        assert result.degradation.reason == "compile-failed"
        assert "-fsanitize=address" in result.degradation.detail
        assert counter("native.no_sanitize") == before + 1
        assert not list(cache.glob("*.so"))
