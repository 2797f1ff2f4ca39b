"""The native tier's speedup and exactness at benchmark scale.

The acceptance bar for the compiled engine: at least 5x over the
vectorized NumPy engine on stencil5 at N=512 with a *warm* shared-object
cache (compile time is a one-off, so it is excluded by warming first),
and ``np.array_equal`` storage against both the interpreter oracle and
the vectorized engine — bit for bit, not approximately.
"""

import time

import numpy as np
import pytest

from repro.codegen.build import discover_toolchain
from repro.execution import execute, execute_native, execute_vectorized

requires_cc = pytest.mark.skipif(
    discover_toolchain() is None,
    reason="no C toolchain on PATH (or REPRO_CC=none)",
)

N512 = {"T": 512, "L": 512}
LARGE = {"T": 512, "L": 4096}  # scalar-free: only vectorized vs native
BENCH_SIZES = {"T": 128, "L": 128}  # per-round sizes for the timed fixtures


@pytest.fixture(scope="module")
def stencil5_ov(stencil5_versions):
    return stencil5_versions["ov"]


@pytest.fixture(scope="module")
def warm_native(stencil5_ov):
    """Compile every size used below once, so timings are load-only."""
    for sizes in (BENCH_SIZES, N512, LARGE):
        execute_native(stencil5_ov, sizes, fallback=False)
    return stencil5_ov


@requires_cc
def test_native_speedup_5x_at_n512(warm_native):
    t0 = time.perf_counter()
    vectorized = execute_vectorized(warm_native, N512, fallback=False)
    t_vector = time.perf_counter() - t0

    t0 = time.perf_counter()
    native = execute_native(warm_native, N512, fallback=False)
    t_native = time.perf_counter() - t0

    assert native.engine_used == "native"
    assert np.array_equal(native.storage, vectorized.storage)
    assert np.array_equal(
        native.output_values(), vectorized.output_values()
    )
    speedup = t_vector / t_native
    assert speedup >= 5.0, (
        f"native engine only {speedup:.1f}x faster "
        f"({t_vector:.3f}s vectorized vs {t_native:.3f}s native)"
    )


@requires_cc
def test_native_matches_at_large_size(warm_native):
    # Too big for the scalar oracle; the vectorized engine (itself
    # differentially tested against the oracle) is the reference here.
    native = execute_native(warm_native, LARGE, fallback=False)
    vectorized = execute_vectorized(warm_native, LARGE, fallback=False)
    assert np.array_equal(native.storage, vectorized.storage)


@requires_cc
def test_bench_native_engine(benchmark, warm_native):
    result = benchmark.pedantic(
        execute_native,
        args=(warm_native, BENCH_SIZES),
        kwargs={"fallback": False},
        rounds=3,
        iterations=1,
    )
    reference = execute(warm_native, BENCH_SIZES)
    assert np.array_equal(result.storage, reference.storage)


@requires_cc
def test_bench_native_engine_n512(benchmark, warm_native):
    result = benchmark.pedantic(
        execute_native,
        args=(warm_native, N512),
        kwargs={"fallback": False},
        rounds=3,
        iterations=1,
    )
    assert result.engine_used == "native"

