"""Process-local metrics registry: counters, gauges, histograms.

The registry is deliberately tiny and dependency-free.  Instruments are
create-or-get by name (``metrics.counter("search.nodes")``), mutate in
O(1) with no locks on the hot path (CPython attribute stores are atomic
enough for our single-writer uses), and ``snapshot()`` renders the whole
registry as a plain JSON-serialisable dict — the same payload the tracer
appends as the final record of a trace file.

Hot loops should accumulate into locals and flush once (see
:mod:`repro.core.search`); the registry is for *aggregates*, not for
per-element updates.  Worker processes get their own registry — the
worker pool (:mod:`repro.resilience.pool`) ships each job's snapshot
home, where :func:`merge_snapshot` folds it into the parent's registry.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "get_metrics",
    "merge_snapshot",
    "reset_metrics",
]


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-write-wins scalar."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming summary: count, sum, min, max (no stored samples).

    Enough to answer "how many batches, how big on average, how skewed"
    without unbounded memory; callers that need percentiles keep their
    own samples.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Metrics:
    """A named collection of instruments with a ``snapshot()`` view."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- create-or-get ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            instrument = self._histograms[name] = Histogram()
            return instrument

    # -- views -----------------------------------------------------------

    def snapshot(self) -> dict:
        """The whole registry as a plain, JSON-serialisable dict."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                    "mean": h.mean,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another registry's ``snapshot()`` into this one.

        The worker-process merge path: counters add, gauges are
        last-write-wins (the incoming value wins, matching ``set``),
        histogram summaries combine count/sum/min/max exactly — only
        ``mean`` is recomputed, so merging N worker snapshots equals
        having observed every sample locally.
        """
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, h in snap.get("histograms", {}).items():
            if not h.get("count"):
                continue
            local = self.histogram(name)
            local.count += h["count"]
            local.total += h["sum"]
            if h["min"] is not None and h["min"] < local.min:
                local.min = h["min"]
            if h["max"] is not None and h["max"] > local.max:
                local.max = h["max"]

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def render(self) -> str:
        """Terminal-friendly rendering of the snapshot (``--profile``)."""
        snap = self.snapshot()
        lines: list[str] = []
        if snap["counters"]:
            lines.append("counters:")
            lines.extend(
                f"  {name:<40s} {value}"
                for name, value in snap["counters"].items()
            )
        if snap["gauges"]:
            lines.append("gauges:")
            lines.extend(
                f"  {name:<40s} {value:g}"
                for name, value in snap["gauges"].items()
            )
        if snap["histograms"]:
            lines.append("histograms:")
            for name, h in snap["histograms"].items():
                lines.append(
                    f"  {name:<40s} n={h['count']} mean={h['mean']:.3g} "
                    f"min={h['min']} max={h['max']} sum={h['sum']:.6g}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"


_METRICS = Metrics()


def get_metrics() -> Metrics:
    """The process-wide registry every subsystem records into."""
    return _METRICS


def merge_snapshot(snap: dict) -> None:
    """Fold a snapshot into the process-wide registry (worker results)."""
    _METRICS.merge_snapshot(snap)


def reset_metrics() -> None:
    """Clear the process-wide registry (tests; never on the hot path)."""
    _METRICS.reset()
