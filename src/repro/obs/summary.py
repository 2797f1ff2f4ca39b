"""Render a JSONL trace as an ASCII span tree with self-time ranking.

``repro-uov trace-summary FILE`` is the human end of the tracer: it
reconstructs the span tree from ``id``/``parent`` edges (file order is
children-first, because spans are written as they close), computes each
span's *self* time (wall time minus its children's wall time), and
prints

- the tree, with wall/self milliseconds and attribute highlights,
- a top-k table of spans by self time (where the run actually went),
- the event tally by name (incumbent updates, cache hits, fallbacks),
- the final metrics snapshot's counters (prune tallies and friends).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = ["TraceSummary", "SpanNode", "load_trace", "render_summary"]


@dataclass
class SpanNode:
    """One closed span, re-linked into the reconstructed tree."""

    id: int
    parent: Optional[int]
    name: str
    t0: float
    wall_s: float
    cpu_s: float
    attrs: dict
    children: list["SpanNode"] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)

    @property
    def self_s(self) -> float:
        return max(0.0, self.wall_s - sum(c.wall_s for c in self.children))


@dataclass
class TraceSummary:
    """Everything parsed out of one trace file."""

    meta: dict
    roots: list[SpanNode]
    spans: dict[int, SpanNode]
    #: Events whose parent span never closed (or was None): kept so the
    #: tally still counts them.
    orphan_events: list[dict]
    metrics: Optional[dict]

    @property
    def all_events(self) -> list[dict]:
        out = list(self.orphan_events)
        for node in self.spans.values():
            out.extend(node.events)
        return out


def load_trace(lines: Iterable[str]) -> TraceSummary:
    """Parse JSONL records and rebuild the span tree.

    Raises ``ValueError`` on malformed JSON or a record without a
    ``type`` — a truncated final line (killed process) is tolerated.
    """
    meta: dict = {}
    spans: dict[int, SpanNode] = {}
    events: list[dict] = []
    metrics: Optional[dict] = None
    rows = list(lines)
    for lineno, line in enumerate(rows, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            if lineno == len(rows):
                continue  # interrupted writer: tolerate a torn last line
            raise ValueError(f"line {lineno}: bad JSON ({exc})") from exc
        kind = record.get("type")
        if kind == "meta":
            meta = record
        elif kind == "span":
            spans[record["id"]] = SpanNode(
                id=record["id"],
                parent=record.get("parent"),
                name=record["name"],
                t0=record.get("t0", 0.0),
                wall_s=record.get("wall_s", 0.0),
                cpu_s=record.get("cpu_s", 0.0),
                attrs=record.get("attrs", {}),
            )
        elif kind == "event":
            events.append(record)
        elif kind == "metrics":
            metrics = record.get("snapshot")
        elif kind is None:
            raise ValueError(f"line {lineno}: record without a type")
        # unknown types: forward compatibility, skip silently

    roots: list[SpanNode] = []
    for node in spans.values():
        parent = spans.get(node.parent) if node.parent is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in spans.values():
        node.children.sort(key=lambda c: c.t0)
    roots.sort(key=lambda c: c.t0)

    orphans: list[dict] = []
    for record in events:
        parent = record.get("parent")
        if parent is not None and parent in spans:
            spans[parent].events.append(record)
        else:
            orphans.append(record)
    return TraceSummary(
        meta=meta,
        roots=roots,
        spans=spans,
        orphan_events=orphans,
        metrics=metrics,
    )


def render_summary(summary: TraceSummary, top: int = 10) -> str:
    """The full ``trace-summary`` text for one parsed trace."""
    out: list[str] = []
    meta = summary.meta
    if meta:
        program = meta.get("program") or "?"
        out.append(
            f"trace: {program} (pid {meta.get('pid', '?')}, "
            f"schema {meta.get('schema', '?')})"
        )
    if not summary.spans:
        out.append("(no spans recorded)")
    for root in summary.roots:
        _render_node(root, out, depth=0)

    ranked = sorted(
        summary.spans.values(), key=lambda n: n.self_s, reverse=True
    )[:top]
    if ranked:
        out.append("")
        out.append(f"top {len(ranked)} spans by self time:")
        width = max(len(n.name) for n in ranked)
        for n in ranked:
            out.append(
                f"  {n.name:<{width}s}  self {_ms(n.self_s):>10s}  "
                f"wall {_ms(n.wall_s):>10s}  cpu {_ms(n.cpu_s):>10s}"
            )

    engine_lines = _render_engines(summary)
    if engine_lines:
        out.append("")
        out.extend(engine_lines)

    degradation_lines = _render_degradations(summary)
    if degradation_lines:
        out.append("")
        out.extend(degradation_lines)

    tally: dict[str, int] = {}
    for record in summary.all_events:
        tally[record.get("name", "?")] = tally.get(record.get("name", "?"), 0) + 1
    if tally:
        out.append("")
        out.append("events:")
        for name in sorted(tally):
            out.append(f"  {name:<40s} x{tally[name]}")

    if summary.metrics:
        counters = summary.metrics.get("counters", {})
        resilience = {
            name: value
            for name, value in counters.items()
            if name.startswith("resilience.")
        }
        if resilience:
            out.append("")
            out.append("resilience:")
            for name, value in sorted(resilience.items()):
                out.append(f"  {name:<40s} {value}")
        if counters:
            out.append("")
            out.append("counters (final snapshot):")
            for name, value in counters.items():
                out.append(f"  {name:<40s} {value}")
    return "\n".join(out)


def _render_engines(summary: TraceSummary) -> list[str]:
    """The engines section: requested vs. actually-used per engine span.

    Tallies ``engine.run`` spans (which carry ``requested`` and
    ``engine_used``) plus any span with an ``engine_used`` attribute, so
    a native run that silently degraded to the vectorized engine shows
    up as ``native -> vectorized`` instead of disappearing.  The count
    and wall time of ``native.compile`` spans say how much of a cold
    run went to the C compiler.
    """
    tally: dict[tuple[str, str], dict] = {}
    for node in summary.spans.values():
        used = node.attrs.get("engine_used")
        if used is None:
            continue
        requested = node.attrs.get("requested", used)
        slot = tally.setdefault(
            (str(requested), str(used)), {"runs": 0, "wall_s": 0.0}
        )
        slot["runs"] += 1
        slot["wall_s"] += node.wall_s
    # Kernel-level native spans carry profiled kernel seconds.
    kernel_s = [
        node.attrs.get("kernel_s")
        for node in summary.spans.values()
        if node.name == "native.run"
        and isinstance(node.attrs.get("kernel_s"), (int, float))
    ]
    compiles = [
        node.wall_s
        for node in summary.spans.values()
        if node.name == "native.compile"
    ]
    if not tally and not kernel_s and not compiles:
        return []
    lines = ["engines:"]
    for (requested, used), slot in sorted(tally.items()):
        label = used if requested == used else f"{requested} -> {used}"
        flag = "" if requested == used else "  DEGRADED"
        lines.append(
            f"  {label:<28s} x{slot['runs']}  "
            f"wall {_ms(slot['wall_s'])}{flag}"
        )
    if kernel_s:
        lines.append(
            f"  native kernel time (profiled)  x{len(kernel_s)}  "
            f"total {_ms(sum(kernel_s))}"
        )
    if compiles:
        lines.append(
            f"  native compile (C compiler)    x{len(compiles)}  "
            f"wall {_ms(sum(compiles))}"
        )
    return lines


def _render_degradations(summary: TraceSummary) -> list[str]:
    """Structured Degradation records: native fallbacks and budget/
    resilience degradations, with their reasons — previously invisible
    in the summary."""
    lines: list[str] = []
    for record in summary.all_events:
        name = record.get("name")
        attrs = record.get("attrs", {})
        if name == "native.fallback":
            lines.append(
                f"  native.fallback: {attrs.get('code', '?')}:"
                f"{attrs.get('version', '?')} "
                f"({attrs.get('reason', '?')})"
            )
        elif name == "resilience.degradation":
            fallback = attrs.get("fallback")
            suffix = f" -> {fallback}" if fallback else ""
            lines.append(
                f"  {attrs.get('site', '?')}: "
                f"{attrs.get('reason', attrs.get('message', '?'))}"
                f"{suffix}"
            )
    if not lines:
        return []
    return ["degradations:"] + lines


def _render_node(node: SpanNode, out: list[str], depth: int) -> None:
    indent = "  " * depth
    attrs = ""
    if node.attrs:
        shown = ", ".join(
            f"{k}={_short(v)}" for k, v in sorted(node.attrs.items())
        )
        attrs = f"  [{shown}]"
    marker = f" ({len(node.events)} events)" if node.events else ""
    out.append(
        f"{indent}{node.name}  wall {_ms(node.wall_s)} "
        f"self {_ms(node.self_s)}{marker}{attrs}"
    )
    for child in node.children:
        _render_node(child, out, depth + 1)


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}ms"


def _short(value, limit: int = 48) -> str:
    text = str(value)
    return text if len(text) <= limit else text[: limit - 1] + "…"
