"""Every experiment runs in quick mode and its paper-claims hold."""

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.harness import (
    Claim,
    ExperimentResult,
    Series,
    ascii_chart,
    ascii_table,
)

CHEAP = ["overview", "fig1", "fig3", "fig5", "table1", "table2", "npc"]
OVERHEAD = ["fig7", "fig8"]
SCALING = ["fig9_11", "fig12_14"]


@pytest.mark.parametrize("name", CHEAP)
def test_cheap_experiments_pass(name):
    import importlib

    module = importlib.import_module(f"repro.experiments.{name}")
    result = module.run("quick")
    failing = [c for c in result.claims if not c.holds]
    assert not failing, "\n".join(str(c) for c in failing)
    assert result.render()


@pytest.mark.parametrize("name", OVERHEAD)
def test_overhead_experiments_pass(name):
    import importlib

    module = importlib.import_module(f"repro.experiments.{name}")
    result = module.run("quick")
    failing = [c for c in result.claims if not c.holds]
    assert not failing, "\n".join(str(c) for c in failing)


@pytest.mark.parametrize("name", SCALING)
def test_scaling_experiments_pass(name):
    import importlib

    module = importlib.import_module(f"repro.experiments.{name}")
    result = module.run("quick")
    failing = [c for c in result.claims if not c.holds]
    assert not failing, "\n".join(str(c) for c in failing)
    # the rendering includes per-machine tables and a chart
    text = result.render()
    assert "cycles/iteration" in text
    assert "```" in text


def test_registry_is_complete():
    import importlib

    for name in ALL_EXPERIMENTS:
        module = importlib.import_module(f"repro.experiments.{name}")
        assert hasattr(module, "run")
        assert hasattr(module, "TITLE")


class TestHarnessPieces:
    def test_ascii_table(self):
        text = ascii_table([["a", "bb"], ["1", "2"]])
        assert "| a | bb |" in text
        assert ascii_table([]) == ""

    def test_series(self):
        s = Series("x", [1, 2, 3], [10.0, 20.0, 30.0])
        assert s.y_at(2) == 20.0
        assert s.final == 30.0

    def test_chart_renders(self):
        s = [Series("a", [1, 2], [10.0, 100.0]), Series("b", [1, 2], [5.0, 5.0])]
        chart = ascii_chart(s)
        assert "A=a" in chart and "B=b" in chart
        assert ascii_chart([]) == ""

    def test_claim_records_exceptions_as_failures(self):
        result = ExperimentResult("x", "t", "quick")
        result.claim("boom", lambda: 1 / 0)
        assert not result.ok
        assert "error" in result.claims[0].detail

    def test_claim_str(self):
        assert "[PASS] yes" in str(Claim("yes", True))
        assert "[FAIL] no (why)" in str(Claim("no", False, "why"))


class TestTelemetryAppendix:
    @staticmethod
    def _result(name, sims, hits):
        r = ExperimentResult(experiment=name, title=name, mode="quick")
        r.telemetry = {
            "simulated": sims,
            "cache_hits": hits,
            "elapsed_s": 0.5,
        }
        return r

    def test_appendix_reports_per_figure_counts_and_hit_rate(self):
        from repro.experiments.harness import SimulationRunner
        from repro.experiments.report import telemetry_appendix

        results = [self._result("fig7", 12, 0), self._result("fig8", 0, 9)]
        runner = SimulationRunner()
        runner.simulated, runner.cache_hits = 12, 9
        text = telemetry_appendix(
            results, runner=runner, trace_path="/tmp/t.jsonl"
        )
        assert "## Telemetry" in text
        assert "| fig7" in text and "| 0%" in text.replace("  ", " ")
        assert "| fig8" in text and "100%" in text
        assert "cache hit rate" in text
        assert "vectorization fallbacks" in text
        assert "`/tmp/t.jsonl`" in text

    def test_degradations_by_reason_and_hierarchy_counts(self):
        from repro import obs
        from repro.experiments.report import telemetry_appendix
        from repro.resilience.budget import Degradation, record_degradation

        obs.reset()
        try:
            assert "- degradations by reason: none" in telemetry_appendix([])
            for site, reason in (
                ("execution.native", "no-toolchain"),
                ("execution.simulate", "no-toolchain"),
                ("core.search", "wall-budget"),
            ):
                record_degradation(site, Degradation(reason=reason))
            metrics = obs.get_metrics()
            metrics.counter("simulate.runs").inc(5)
            metrics.counter("simulate.hierarchy.kernel").inc(3)
            metrics.counter("simulate.hierarchy.python").inc(2)
            text = telemetry_appendix([])
        finally:
            obs.reset()
        assert "degraded searches" not in text
        assert (
            "- degradations by reason: no-toolchain 2, wall-budget 1" in text
        )
        assert (
            "5 (parent-process registry view): 3 on the C hierarchy kernel, "
            "2 on the Python hierarchy" in text
        )

    def test_hit_rate_formatting(self):
        from repro.experiments.report import _pct

        assert _pct(0, 0) == "n/a"
        assert _pct(0, 7) == "0%"
        assert _pct(7, 7) == "100%"
        assert _pct(1, 3) == "33.3%"

    def test_write_report_always_appends_the_appendix(self, tmp_path):
        from repro.experiments.report import write_report

        out = tmp_path / "EXPERIMENTS.md"
        write_report(
            [self._result("fig7", 3, 1)], str(out), "quick", elapsed=1.0
        )
        assert "## Telemetry" in out.read_text()
