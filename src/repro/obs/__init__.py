"""``repro.obs`` — the observability layer: tracing, metrics, logging.

Zero-dependency structured telemetry for every hot subsystem (DESIGN.md
§8).  Three pieces:

- :func:`span` / :func:`event` — nested structured tracing to JSONL
  (:mod:`repro.obs.tracer`).  Disabled by default: both degrade to a
  shared no-op whose overhead is benchmarked, so call sites stay
  instrumented permanently.
- :func:`get_metrics` — the process-local registry of counters, gauges
  and histograms (:mod:`repro.obs.metrics`), always on (updates are a
  few dict/attribute operations, and hot loops batch them).
- :func:`warn_once` — deduplicated structured warnings
  (:mod:`repro.obs.events`).

Lifecycle: the CLI (or any embedder) calls ``configure(trace_path=...)``
once at startup and ``shutdown()`` at exit; ``shutdown`` appends the
metrics snapshot as the final trace record and closes the file.  Library
code never configures anything — it just calls ``obs.span``/``obs.event``
and records metrics, which are no-ops / cheap when nothing is listening.

Typical instrumentation::

    from repro import obs

    with obs.span("search.find_optimal_uov", objective=objective) as sp:
        ...
        obs.event("search.incumbent", ov=list(ov), node=nodes_visited)
        ...
        sp.set(nodes=nodes_visited)
    obs.get_metrics().counter("search.runs").inc()
"""

from __future__ import annotations

import logging
import sys
from typing import Any, Optional

from repro.obs.events import merge_dedup, reset_dedup, seen_keys, warn_once
from repro.obs.ledger import (
    configure_ledger,
    get_ledger,
    ledger_record,
    shutdown_ledger,
)
from repro.obs.metrics import (
    Metrics,
    get_metrics,
    merge_snapshot,
    reset_metrics,
)
from repro.obs.tracer import NULL_SPAN, Span, Tracer

__all__ = [
    "Metrics",
    "Span",
    "Tracer",
    "configure",
    "configure_ledger",
    "detach_tracer",
    "enabled",
    "event",
    "get_ledger",
    "get_metrics",
    "get_tracer",
    "ledger_record",
    "log",
    "merge_dedup",
    "merge_snapshot",
    "profiling",
    "render_profile",
    "reset",
    "reset_dedup",
    "reset_metrics",
    "seen_keys",
    "set_profiling",
    "shutdown",
    "shutdown_ledger",
    "span",
    "warn_once",
]

#: The package logger every subsystem hangs its child loggers off:
#: ``logging.getLogger("repro.search")`` etc.  ``configure(log_level=...)``
#: attaches a stderr handler here.
log = logging.getLogger("repro")
log.addHandler(logging.NullHandler())

_TRACER: Optional[Tracer] = None
_TRACE_FILE = None  # the file object we own (and must close)
_LOG_HANDLER: Optional[logging.Handler] = None


def configure(
    trace_path: Optional[str] = None,
    log_level: Optional[str] = None,
    program: Optional[str] = None,
) -> Optional[Tracer]:
    """Turn telemetry on: open a trace sink and/or set the log level.

    Idempotent-ish: reconfiguring tracing closes the previous trace file
    first.  Returns the live tracer (None when tracing stays off).
    """
    global _TRACER, _TRACE_FILE, _LOG_HANDLER
    if log_level is not None:
        level = logging.getLevelName(str(log_level).upper())
        if not isinstance(level, int):
            raise ValueError(f"unknown log level {log_level!r}")
        if _LOG_HANDLER is None:
            _LOG_HANDLER = logging.StreamHandler(sys.stderr)
            _LOG_HANDLER.setFormatter(
                logging.Formatter("%(levelname)s %(name)s: %(message)s")
            )
            log.addHandler(_LOG_HANDLER)
        log.setLevel(level)
    if trace_path is not None:
        _close_trace(write_snapshot=False)
        _TRACE_FILE = open(trace_path, "w")
        _TRACER = Tracer(_TRACE_FILE, program=program)
    return _TRACER


def shutdown() -> None:
    """Finalize the trace (metrics snapshot record) and close the file."""
    _close_trace(write_snapshot=True)
    shutdown_ledger()


_PROFILING = False


def set_profiling(on: bool) -> None:
    """Arm deep profiling (``--profile``): subsystems that can measure
    more precisely at a small cost — e.g. the native tier's
    ``clock_gettime`` kernel timers — check this flag."""
    global _PROFILING
    _PROFILING = bool(on)


def profiling() -> bool:
    """True when ``--profile`` asked for per-kernel instrumentation."""
    return _PROFILING


def _close_trace(write_snapshot: bool) -> None:
    global _TRACER, _TRACE_FILE
    if _TRACER is not None:
        _TRACER.finish(get_metrics().snapshot() if write_snapshot else None)
    if _TRACE_FILE is not None:
        _TRACE_FILE.close()
    _TRACER = None
    _TRACE_FILE = None


def detach_tracer() -> None:
    """Stop tracing in a forked worker, leaving the inherited file alone.

    The parent owns the trace file: closing (or collecting) the child's
    copy would flush the parent's buffered records into it a second time.
    """
    global _TRACER
    _TRACER = None


def enabled() -> bool:
    """True when a trace sink is live (metrics are always on)."""
    return _TRACER is not None


def get_tracer() -> Optional[Tracer]:
    return _TRACER


def span(name: str, **attrs: Any):
    """A context-managed span — the shared no-op when tracing is off."""
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """A point-in-time trace record — dropped when tracing is off."""
    tracer = _TRACER
    if tracer is not None:
        tracer.event(name, **attrs)


def render_profile() -> str:
    """The ``--profile`` text: the metrics registry, rendered."""
    return get_metrics().render()


def reset() -> None:
    """Tests only: clear metrics and warning dedup, drop any tracer."""
    global _PROFILING
    _close_trace(write_snapshot=False)
    shutdown_ledger()
    reset_metrics()
    reset_dedup()
    _PROFILING = False
