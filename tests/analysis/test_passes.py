"""The lint pass registry and the corpus-wide driver."""

import pytest

from repro.analysis.diag import Diagnostics, Severity
from repro.analysis.passes import (
    LINT_SIZES,
    build_targets,
    registered_passes,
    run_lint,
)
from repro.codes import MAKERS
from repro.obs.metrics import Metrics

EXPECTED_PASSES = {
    "applicability",
    "schedule-legality",
    "uov-certificate",
    "uov-symbolic-certificate",
    "storage-race",
    "storage-accounting",
    "differential-fuzz",
}


class TestRegistry:
    def test_all_builtin_passes_registered(self):
        assert set(registered_passes()) == EXPECTED_PASSES

    def test_fuzz_is_off_by_default(self):
        assert not registered_passes()["differential-fuzz"].default

    def test_symbolic_is_off_by_default(self):
        assert not registered_passes()["uov-symbolic-certificate"].default

    def test_every_code_has_lint_sizes(self):
        assert set(LINT_SIZES) == set(MAKERS)

    def test_lint_sizes_are_not_powers_of_two(self):
        for sizes in LINT_SIZES.values():
            assert any(n & (n - 1) for n in sizes.values()), sizes


class TestTargets:
    def test_targets_cover_registry(self):
        targets = build_targets()
        assert [t.name for t in targets] == sorted(MAKERS)
        for target in targets:
            assert target.versions and target.stencil.dim == len(target.bounds)

    def test_unknown_code_raises_before_analysis(self):
        with pytest.raises(KeyError, match="unknown code"):
            build_targets(["nosuch"])


class TestDriver:
    def test_corpus_lints_clean(self):
        """The acceptance bar: only the rolling buffers' expected
        schedule-dependence infos; exit 0 at both thresholds."""
        diag = run_lint(diag=Diagnostics(metrics=Metrics()))
        assert {f.code for f in diag} == {"RACE002"}
        assert all(
            f.subject.endswith("/storage-optimized") for f in diag
        )
        assert diag.exit_code(Severity.ERROR) == 0
        assert diag.exit_code(Severity.WARNING) == 0

    def test_single_code_single_pass(self):
        diag = run_lint(
            codes=["stencil5"],
            passes=["uov-certificate"],
            diag=Diagnostics(metrics=Metrics()),
        )
        assert len(diag) == 0

    def test_unknown_pass_raises(self):
        with pytest.raises(KeyError, match="unknown lint pass"):
            run_lint(passes=["nosuch"], diag=Diagnostics(metrics=Metrics()))

    def test_metrics_record_findings(self):
        metrics = Metrics()
        run_lint(
            codes=["simple2d"],
            passes=["storage-race"],
            diag=Diagnostics(metrics=metrics),
        )
        counters = metrics.snapshot()["counters"]
        assert counters["lint.findings.RACE002"] >= 1
        assert "lint.findings.RACE001" not in counters
        assert "lint.findings.RACE003" not in counters

    def test_capped_race_count_is_a_lower_bound(self):
        """The storage-race scan stops at 64 races.  jacobi's rolling
        buffer has more at lint sizes, so its count is a lower bound;
        simple2d's 32 stay exact."""
        (capped,) = run_lint(
            codes=["jacobi"],
            passes=["storage-race"],
            diag=Diagnostics(metrics=Metrics()),
        )
        assert capped.data == {"races": 64, "capped": True}
        assert "64 or more colliding pair(s)" in capped.message
        (exact,) = run_lint(
            codes=["simple2d"],
            passes=["storage-race"],
            diag=Diagnostics(metrics=Metrics()),
        )
        assert exact.data == {"races": 32, "capped": False}
        assert "mapping: 32 colliding pair(s)" in exact.message

    def test_fuzz_budget_enables_the_fuzz_pass(self):
        from repro.obs import metrics as metrics_mod

        global_counters = metrics_mod.get_metrics()
        before = global_counters.snapshot()["counters"].get(
            "lint.fuzz.samples", 0
        )
        diag = run_lint(
            codes=["simple2d"], fuzz=2, diag=Diagnostics(metrics=Metrics())
        )
        after = global_counters.snapshot()["counters"].get(
            "lint.fuzz.samples", 0
        )
        assert after > before
        assert not any(f.code == "FUZ001" for f in diag)


class TestSymbolicPass:
    def test_symbolic_flag_enables_the_pass(self):
        from repro.analysis.passes import select_passes

        names = [p.name for p in select_passes(symbolic=True)]
        assert "uov-symbolic-certificate" in names
        assert "uov-symbolic-certificate" not in [
            p.name for p in select_passes()
        ]

    def test_corpus_certifies_symbolically(self):
        """Every shipped OV mapping is parametrically safe: no SYM
        findings at all (not even degradations) across the corpus."""
        diag = run_lint(symbolic=True, diag=Diagnostics(metrics=Metrics()))
        assert not any(f.code.startswith("SYM") for f in diag)
        assert diag.exit_code(Severity.ERROR) == 0

    def test_bad_ov_emits_sym001(self):
        """A non-universal OV smuggled into a version's mapping is caught
        parametrically, with minimal witness sizes in the payload."""
        import dataclasses

        from repro.analysis.passes import build_target, lint_target
        from repro.codes import get_versions

        from repro.mapping import OVMapping
        from repro.util.polyhedron import Polytope

        versions = dict(get_versions("simple2d"))
        good = versions["ov"]

        def bad_factory(sizes):
            isg = Polytope.from_loop_bounds(good.code.bounds(sizes))
            return OVMapping((0, 1), isg)

        versions["ov"] = dataclasses.replace(
            good, mapping_factory=bad_factory
        )
        target = build_target(
            "simple2d", versions, LINT_SIZES["simple2d"]
        )
        diag = lint_target(
            target,
            passes=["uov-symbolic-certificate"],
            diag=Diagnostics(metrics=Metrics()),
        )
        findings = [f for f in diag if f.code == "SYM001"]
        assert len(findings) == 1
        assert findings[0].data["witness_sizes"]
        assert findings[0].data["confirmed"] is True

        # The enumerative pass on the same target records the grown
        # replay box in its payload, so a JSON consumer can reproduce
        # the clobber without re-deriving the bounds.
        diag = lint_target(
            target,
            passes=["uov-certificate"],
            diag=Diagnostics(metrics=Metrics()),
        )
        (uov,) = [f for f in diag if f.code == "UOV001"]
        assert uov.data["replayable"] is True
        assert uov.data["bounds"] is not None
        assert all(len(pair) == 2 for pair in uov.data["bounds"])
        assert uov.data["writer"] is not None
        assert uov.data["victim"] is not None
