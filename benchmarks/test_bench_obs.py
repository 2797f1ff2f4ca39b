"""Instrumentation overhead: disabled telemetry must be (nearly) free.

The obs layer is permanently compiled into the hot paths — the search
loop, the vectorized engine, the simulator.  The deal that makes that
acceptable is that with no tracer configured the added cost is a shared
no-op span plus a handful of local integer adds, flushed to the metrics
registry once per run.  This file holds the end-to-end gate: executing
stencil5 on the vectorized engine with instrumentation *in place but
disabled*, the obs calls the run makes cost under 3% of the run.

The gate times those calls inside the run itself, in one process, and
reads no committed number: a raw wall-clock baseline from another day or
host cannot resolve 3%, and neither can an A/B against an engine with
``obs`` stubbed out (paired runs of unchanged code drift by about that
much on a shared host).

The unit-level bound (a no-op span costs on the order of a function
call) lives in ``tests/obs/test_noop.py``; this is the integration-level
complement at benchmark scale.
"""

import time
from types import SimpleNamespace

import pytest

from repro import obs
from repro.execution import execute_vectorized, vectorized

BENCH_SIZES = {"T": 128, "L": 128}  # must match test_bench_vectorized.py
OVERHEAD_BUDGET = 0.03  # disabled instrumentation costs under 3% of a run
ROUNDS = 7


@pytest.fixture(scope="module")
def stencil5_ov(stencil5_versions):
    return stencil5_versions["ov"]


class _TimedObs:
    """Stands in for the engine's ``obs`` module: forwards every call to
    the real target and adds the call's wall time to ``clock.spent``.

    What a span, registry or instrument call returns is wrapped the same
    way, so the span's enter, exit and ``set``, and the counter and
    histogram updates, are timed too.  An obs function the gate does not
    know raises ``AttributeError``, so new instrumentation in the engine
    cannot go untimed.
    """

    _WRAPS_RESULT = {"span", "__enter__", "get_metrics", "counter",
                     "histogram"}
    _FORWARDS = _WRAPS_RESULT | {"__exit__", "set", "inc", "observe_many"}

    def __init__(self, target, clock):
        self._target = target
        self._clock = clock

    def _call(self, name, *args, **kwargs):
        fn = getattr(self._target, name)
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self._clock.spent += time.perf_counter() - t0
        if name in self._WRAPS_RESULT:
            return _TimedObs(result, self._clock)
        return result

    def __getattr__(self, name):
        if name not in self._FORWARDS:
            raise AttributeError(f"the overhead gate does not time obs {name}")
        return lambda *args, **kwargs: self._call(name, *args, **kwargs)

    def __enter__(self):
        return self._call("__enter__")

    def __exit__(self, *exc):
        return self._call("__exit__", *exc)


def test_disabled_instrumentation_overhead_under_3pct(
    stencil5_ov, monkeypatch
):
    """The obs calls of a disabled-tracing run, timed in place, vs. the run.

    Min-of-rounds on both sides: the minimum is the best estimate of
    each cost (everything above it is scheduler or cache noise), and a
    real overhead is in every round, so it survives the minimum.
    """
    assert not obs.enabled(), "benchmark requires the default no-op path"
    execute_vectorized(stencil5_ov, BENCH_SIZES, fallback=False)  # warm-up
    clock = SimpleNamespace(spent=0.0)
    monkeypatch.setattr(vectorized, "obs", _TimedObs(obs, clock))
    obs_s, run_s = [], []
    for _ in range(ROUNDS):
        clock.spent = 0.0
        t0 = time.perf_counter()
        execute_vectorized(stencil5_ov, BENCH_SIZES, fallback=False)
        run_s.append(time.perf_counter() - t0)
        assert clock.spent > 0.0, "the run made no obs call"
        obs_s.append(clock.spent)

    overhead = min(obs_s) / min(run_s)
    assert overhead < OVERHEAD_BUDGET, (
        f"disabled instrumentation took {min(obs_s) * 1e3:.3f} ms of a "
        f"{min(run_s) * 1e3:.2f} ms run ({overhead:.2%}; budget "
        f"{OVERHEAD_BUDGET:.0%})"
    )


def test_bench_vectorized_engine_instrumented(benchmark, stencil5_ov):
    """Timed twin of test_bench_vectorized_engine, so a pytest-benchmark
    run reports the instrumented engine's cost under its own name."""
    result = benchmark.pedantic(
        execute_vectorized,
        args=(stencil5_ov, BENCH_SIZES),
        kwargs={"fallback": False},
        rounds=3,
        iterations=1,
    )
    assert result.storage.size > 0


def test_bench_noop_span_throughput(benchmark):
    """The no-op span path itself, at registry scale: 10k span+set pairs
    per round.  Tracked to catch accidental allocation on the hot path."""
    assert not obs.enabled()

    def run():
        for i in range(10_000):
            with obs.span("bench.noop", i=i) as sp:
                sp.set(x=i)

    benchmark.pedantic(run, rounds=3, iterations=1)
