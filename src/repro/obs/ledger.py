"""Append-only, self-healing JSONL run ledger.

Every compile, execute, experiment batch and perf-check leaves one line
in the ledger: *what* ran (spec hash, code/version, engine), *under
which toolchain* (engine fingerprint), *how long* it took, and a metrics
snapshot slice.  The file is plain JSONL so it appends in O(1), tails
cleanly, and survives concurrent writers (each line is a single
``write`` of under PIPE_BUF bytes); each line carries the same
``{"schema": 1, "digest": ..., "body": ...}`` wrapper the store's
entries use (:func:`repro.store.backend.wrap`), so a torn or corrupted
line is *detected and skipped* on read — the ledger self-heals by
ignoring damage rather than dying on it.

The ledger is the durable half of observability: traces and metrics die
with the process, the ledger accumulates across runs and feeds
``repro stats`` (engine comparison, top-k slowest, cache hit rates,
trend-over-time, store maintenance).

Opt-in: nothing writes a ledger unless ``--ledger PATH`` or the
``REPRO_LEDGER`` environment variable names one.  The store is imported
only when a ledger is written or read, so ``import repro.obs`` never
loads it (or sqlite).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterable, Optional

__all__ = [
    "LEDGER_ENV",
    "RunLedger",
    "configure_ledger",
    "get_ledger",
    "ledger_record",
    "read_entries",
    "aggregate",
    "render_stats",
]

LEDGER_ENV = "REPRO_LEDGER"

#: Entry kinds the ledger understands (free-form kinds are stored too;
#: these are the ones ``repro stats`` aggregates specially).  ``store``
#: entries record unified-store maintenance (migrate/gc) actions.
KINDS = ("compile", "execute", "experiment", "perf-check", "store")


class RunLedger:
    """One append-only JSONL ledger file.

    Lines are written with a single ``os.write``-backed ``write()`` call
    on a line-buffered append handle, so concurrent processes interleave
    whole lines, never fragments.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", buffering=1)
        self.entries_written = 0

    def record(self, kind: str, **fields: Any) -> dict:
        """Append one entry; returns the body that was written."""
        from repro import obs
        from repro.store.backend import wrap

        body = {"ts": round(time.time(), 3), "kind": kind}
        body.update(fields)
        self._fh.write(json.dumps(wrap(body), sort_keys=True) + "\n")
        self.entries_written += 1
        obs.get_metrics().counter("ledger.entries").inc()
        return body

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass


# -- module-level plumbing (mirrors the tracer lifecycle) ----------------

_LEDGER: Optional[RunLedger] = None


def configure_ledger(path: Optional[str] = None) -> Optional[RunLedger]:
    """Open the run ledger (explicit path wins over ``REPRO_LEDGER``).

    Passing None with no environment override leaves the ledger off —
    :func:`ledger_record` stays a cheap no-op.
    """
    global _LEDGER
    if path is None:
        path = os.environ.get(LEDGER_ENV) or None
    if _LEDGER is not None:
        _LEDGER.close()
        _LEDGER = None
    if path:
        _LEDGER = RunLedger(path)
    return _LEDGER


def get_ledger() -> Optional[RunLedger]:
    return _LEDGER


def ledger_record(kind: str, **fields: Any) -> Optional[dict]:
    """Append to the live ledger; no-op (None) when none is configured."""
    ledger = _LEDGER
    if ledger is None:
        return None
    return ledger.record(kind, **fields)


def shutdown_ledger() -> None:
    global _LEDGER
    if _LEDGER is not None:
        _LEDGER.close()
        _LEDGER = None


# -- reading & aggregation ----------------------------------------------


def read_entries(path: os.PathLike) -> tuple[list[dict], int]:
    """All verified entry bodies in the ledger, plus the corrupt count.

    Damaged lines (torn writes, bit rot, schema/digest mismatch) are
    skipped and counted — never fatal — with one deduplicated warning
    per file, so a ledger shared by a crashing fleet still reads.
    """
    from repro import obs
    from repro.store.backend import unwrap

    path = Path(path)
    entries: list[dict] = []
    corrupt = 0
    try:
        lines = path.read_text().splitlines()
    except FileNotFoundError:
        return [], 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            body, problem = unwrap(json.loads(line))
        except ValueError:
            problem = "bad JSON"
        if problem is not None:
            corrupt += 1
            continue
        entries.append(body)
    if corrupt:
        obs.get_metrics().counter("ledger.corrupt_lines").inc(corrupt)
        obs.warn_once(
            ("ledger-corrupt", str(path)),
            f"run ledger {path}: skipped {corrupt} corrupt line(s)",
            event="ledger.corrupt",
            counter="ledger.corrupt_events",
            path=str(path),
            corrupt=corrupt,
        )
    return entries, corrupt


def aggregate(entries: Iterable[dict]) -> dict:
    """Roll the ledger up for ``repro stats``.

    Returns a JSON-friendly dict: per-engine wall statistics, top-k
    slowest executions, compile/so-cache hit rates, and a per-kind
    count — everything the stats renderer prints.
    """
    entries = list(entries)
    by_kind: dict[str, int] = {}
    engines: dict[str, dict] = {}
    executions: list[dict] = []
    store_ops: dict[str, int] = {}
    compiles = cache_hits = 0
    first_ts = last_ts = None
    for e in entries:
        kind = e.get("kind", "?")
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if kind == "store":
            action = str(e.get("action", "?"))
            store_ops[action] = store_ops.get(action, 0) + 1
        ts = e.get("ts")
        if isinstance(ts, (int, float)):
            first_ts = ts if first_ts is None else min(first_ts, ts)
            last_ts = ts if last_ts is None else max(last_ts, ts)
        if kind == "execute":
            engine = e.get("engine", "?")
            slot = engines.setdefault(
                engine, {"runs": 0, "wall_s": 0.0, "max_s": 0.0}
            )
            wall = float(e.get("wall_s") or 0.0)
            slot["runs"] += 1
            slot["wall_s"] += wall
            slot["max_s"] = max(slot["max_s"], wall)
            executions.append(e)
        elif kind == "compile":
            compiles += 1
            if e.get("cached"):
                cache_hits += 1
    executions.sort(key=lambda e: float(e.get("wall_s") or 0.0), reverse=True)
    for slot in engines.values():
        slot["mean_s"] = slot["wall_s"] / slot["runs"] if slot["runs"] else 0.0
    return {
        "entries": len(entries),
        "by_kind": by_kind,
        "engines": engines,
        "slowest": executions[:10],
        "compiles": compiles,
        "compile_cache_hits": cache_hits,
        "compile_cache_hit_rate": (
            cache_hits / compiles if compiles else None
        ),
        "store_ops": store_ops,
        "span_s": (
            (last_ts - first_ts)
            if first_ts is not None and last_ts is not None
            else 0.0
        ),
    }


def render_stats(path: os.PathLike, top: int = 5) -> str:
    """The ``repro stats`` report for one ledger file."""
    entries, corrupt = read_entries(path)
    if not entries:
        return f"ledger {path}: no entries" + (
            f" ({corrupt} corrupt line(s) skipped)" if corrupt else ""
        )
    agg = aggregate(entries)
    lines = [f"ledger {path}: {agg['entries']} entries"]
    if corrupt:
        lines[0] += f" ({corrupt} corrupt line(s) skipped)"
    if agg["span_s"]:
        lines[0] += f", spanning {agg['span_s']:.0f}s"
    lines.append("")
    lines.append("by kind:")
    for kind, n in sorted(agg["by_kind"].items()):
        lines.append(f"  {kind:<12s} {n}")
    if agg["engines"]:
        lines.append("")
        lines.append("engine comparison (execute entries):")
        lines.append(
            f"  {'engine':<14s} {'runs':>5s} {'mean_s':>10s} {'max_s':>10s}"
        )
        for engine, slot in sorted(agg["engines"].items()):
            lines.append(
                f"  {engine:<14s} {slot['runs']:>5d} "
                f"{slot['mean_s']:>10.4f} {slot['max_s']:>10.4f}"
            )
    if agg["slowest"]:
        lines.append("")
        lines.append(f"top {min(top, len(agg['slowest']))} slowest:")
        for e in agg["slowest"][:top]:
            label = e.get("label") or (
                f"{e.get('code', '?')}:{e.get('version', '?')}"
            )
            lines.append(
                f"  {float(e.get('wall_s') or 0.0):>10.4f}s  "
                f"{e.get('engine', '?'):<12s} {label}"
            )
    if agg["compiles"]:
        lines.append("")
        rate = agg["compile_cache_hit_rate"]
        lines.append(
            f"compiles: {agg['compiles']} "
            f"(so-cache hit rate {rate:.0%})"
        )
    if agg.get("store_ops"):
        lines.append("")
        lines.append("store maintenance:")
        for action, n in sorted(agg["store_ops"].items()):
            lines.append(f"  {action:<12s} {n}")
    return "\n".join(lines)
