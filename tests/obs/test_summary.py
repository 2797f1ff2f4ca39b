"""trace-summary: tree reconstruction and ASCII rendering."""

import io
import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.summary import load_trace, render_summary
from repro.obs.tracer import Tracer


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


def _trace_lines() -> list[str]:
    sink = io.StringIO()
    tracer = Tracer(sink, program="unit-test")
    with tracer.span("root", figure="fig7"):
        with tracer.span("child-a"):
            tracer.event("cache.hit")
            tracer.event("cache.hit")
        with tracer.span("child-b"):
            pass
    tracer.finish({"counters": {"sim.runs": 3}, "gauges": {}, "histograms": {}})
    return sink.getvalue().splitlines()


class TestLoadTrace:
    def test_rebuilds_the_tree_from_parent_ids(self):
        summary = load_trace(_trace_lines())
        (root,) = summary.roots
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert len(summary.spans) == 3
        assert summary.metrics == {
            "counters": {"sim.runs": 3},
            "gauges": {},
            "histograms": {},
        }

    def test_self_time_subtracts_children(self):
        summary = load_trace(_trace_lines())
        (root,) = summary.roots
        child_wall = sum(c.wall_s for c in root.children)
        assert root.self_s == pytest.approx(root.wall_s - child_wall)

    def test_events_attach_to_their_span(self):
        summary = load_trace(_trace_lines())
        (root,) = summary.roots
        child_a = root.children[0]
        assert [e["name"] for e in child_a.events] == [
            "cache.hit",
            "cache.hit",
        ]

    def test_tolerates_a_torn_final_line(self):
        lines = _trace_lines()
        lines.append('{"type": "span", "id": 99, "na')  # killed mid-write
        summary = load_trace(lines)
        assert len(summary.spans) == 3

    def test_rejects_bad_json_mid_file(self):
        lines = _trace_lines()
        lines.insert(1, "{nope")
        with pytest.raises(ValueError, match="line 2"):
            load_trace(lines)

    def test_rejects_records_without_a_type(self):
        with pytest.raises(ValueError, match="without a type"):
            load_trace([json.dumps({"id": 1}), json.dumps({"type": "meta"})])

    def test_unknown_record_types_are_skipped(self):
        lines = _trace_lines()
        lines.insert(1, json.dumps({"type": "future-thing", "x": 1}))
        assert len(load_trace(lines).spans) == 3


class TestRender:
    def test_tree_top_k_events_and_counters_sections(self):
        text = render_summary(load_trace(_trace_lines()))
        assert "trace: unit-test" in text
        assert "root" in text and "  child-a" in text and "  child-b" in text
        assert "top 3 spans by self time:" in text
        assert "cache.hit" in text and "x2" in text
        assert "counters (final snapshot):" in text
        assert "sim.runs" in text

    def test_top_limits_the_ranking(self):
        text = render_summary(load_trace(_trace_lines()), top=1)
        assert "top 1 spans by self time:" in text

    def test_empty_trace_renders(self):
        assert "(no spans recorded)" in render_summary(load_trace([]))


class TestCli:
    def test_trace_summary_renders_a_real_trace(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(_trace_lines()) + "\n")
        assert main(["trace-summary", str(path), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "root" in out and "top 2 spans" in out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace-summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n{also broken\n")
        assert main(["trace-summary", str(path)]) == 2
        assert "not a valid trace" in capsys.readouterr().err


def _engine_trace_lines() -> list[str]:
    sink = io.StringIO()
    tracer = Tracer(sink, program="unit-test")
    with tracer.span("engine.run", requested="native", engine_used="native"):
        with tracer.span(
            "native.run", profiled=True, kernel_s=0.002
        ):
            pass
    with tracer.span(
        "engine.run", requested="native", engine_used="vectorized"
    ):
        tracer.event(
            "native.fallback",
            code="stencil5",
            version="ov",
            reason="no-toolchain",
        )
    with tracer.span("search"):
        tracer.event(
            "resilience.degradation",
            site="pipeline.uov-search",
            reason="budget-exhausted",
            fallback="incumbent",
        )
    tracer.finish({"counters": {}, "gauges": {}, "histograms": {}})
    return sink.getvalue().splitlines()


class TestEngineSections:
    def test_engines_section_tallies_requested_vs_used(self):
        text = render_summary(load_trace(_engine_trace_lines()))
        assert "engines:" in text
        assert "native " in text or "native  " in text
        assert "native -> vectorized" in text
        assert "DEGRADED" in text

    def test_profiled_kernel_time_is_summed(self):
        text = render_summary(load_trace(_engine_trace_lines()))
        assert "native kernel time (profiled)" in text
        assert "2.00ms" in text

    def test_compiler_time_is_summed(self):
        spans = [
            {"type": "span", "id": k, "parent": None,
             "name": "native.compile", "t0": float(k), "wall_s": wall,
             "cpu_s": 0.0, "attrs": {"label": "stencil5/natural+stencil5/ov"}}
            for k, wall in ((1, 0.05), (2, 0.03))
        ]
        text = render_summary(load_trace(json.dumps(s) for s in spans))
        assert "engines:" in text
        assert "native compile (C compiler)    x2  wall 80.00ms" in text

    def test_degradations_section_lists_reasons(self):
        text = render_summary(load_trace(_engine_trace_lines()))
        assert "degradations:" in text
        assert "native.fallback: stencil5:ov (no-toolchain)" in text
        assert "pipeline.uov-search: budget-exhausted -> incumbent" in text

    def test_sections_absent_without_engine_activity(self):
        text = render_summary(load_trace(_trace_lines()))
        assert "engines:" not in text
        assert "degradations:" not in text
