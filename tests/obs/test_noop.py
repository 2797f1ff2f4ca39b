"""The disabled path is cheap enough to leave instrumentation on.

The hard gate lives in ``benchmarks/test_bench_obs.py`` (the obs calls
of a stencil5 run, timed in place, under 3% of the run); this is the
fast unit-level bound: a no-op span must cost on the order of a function
call, not a syscall.
"""

import time

import pytest

from repro import obs
from repro.obs.events import reset_dedup


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


N = 50_000


def test_noop_span_is_shared_and_allocation_free():
    assert obs.span("a") is obs.span("b", attr=1)


def test_noop_span_overhead_bound():
    assert not obs.enabled()
    t0 = time.perf_counter()
    for _ in range(N):
        with obs.span("hot.loop", i=1) as sp:
            sp.set(x=2)
    elapsed = time.perf_counter() - t0
    per_call = elapsed / N
    # Generous CI-safe ceiling: a real syscall/IO path would blow
    # through this by orders of magnitude.
    assert per_call < 20e-6, f"no-op span costs {per_call * 1e6:.2f}µs"


def test_noop_event_overhead_bound():
    t0 = time.perf_counter()
    for _ in range(N):
        obs.event("hot.event", i=3)
    per_call = (time.perf_counter() - t0) / N
    assert per_call < 10e-6, f"no-op event costs {per_call * 1e6:.2f}µs"


def test_deduplicated_warning_is_cheap_after_the_first(recwarn):
    reset_dedup()
    obs.warn_once("k", "warned once")
    t0 = time.perf_counter()
    for _ in range(1000):
        obs.warn_once("k", "warned once")
    per_call = (time.perf_counter() - t0) / 1000
    assert per_call < 100e-6
    assert len(recwarn) == 1
    assert obs.get_metrics().counter("warning").value == 1001
