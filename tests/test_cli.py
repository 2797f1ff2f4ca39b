"""The command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


class TestFind:
    def test_find_shortest(self, capsys):
        assert main(["find", "--stencil", "1,0;0,1;1,1"]) == 0
        out = capsys.readouterr().out
        assert "UOV (1, 1)" in out
        assert "initial UOV: (2, 2)" in out

    def test_find_with_bounds(self, capsys):
        assert (
            main(
                [
                    "find",
                    "--stencil",
                    "1,0;1,1;1,-1",
                    "--bounds",
                    "1,1;1,6;10,9;10,4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "UOV (3, 1)" in out
        assert "16 locations" in out

    def test_find_with_node_budget(self, capsys):
        assert (
            main(["find", "--stencil", "1,-2;1,-1;1,0;1,1;1,2",
                  "--max-nodes", "1"])
            == 0
        )
        assert "best-so-far" in capsys.readouterr().out


class TestMap:
    def test_map_2d(self, capsys):
        assert main(["map", "--ov", "2,0", "--box", "1,0:8,9"]) == 0
        out = capsys.readouterr().out
        assert "interleaved" in out and "consecutive" in out
        assert "q0 % 2" in out

    def test_map_3d(self, capsys):
        assert main(["map", "--ov", "1,1,1", "--box", "0,0,0:4,4,4"]) == 0
        assert "SM(" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "ov,box,reason",
        [
            ("0,0", "0,0:3,3", "zero vector"),
            ("1,1,1", "0,0:3,3", "dimensionality mismatch"),
            ("1,x", "0,0:3,3", "invalid literal"),
            ("1,1", "3,3:0,0", "empty box"),
        ],
        ids=["zero-ov", "dim-mismatch", "non-integer", "empty-box"],
    )
    def test_malformed_input_is_a_usage_error(self, ov, box, reason, capsys):
        assert main(["map", "--ov", ov, "--box", box]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("map: ") and reason in captured.err


class TestCodegen:
    def test_python_output(self, capsys):
        assert (
            main(["codegen", "stencil5", "ov", "--sizes", "T=3,L=8"]) == 0
        )
        out = capsys.readouterr().out
        assert "def run(" in out

    def test_c_output(self, capsys):
        assert (
            main(
                [
                    "codegen",
                    "psm",
                    "ov-tiled",
                    "--sizes",
                    "n0=5,n1=5",
                    "--lang",
                    "c",
                ]
            )
            == 0
        )
        assert "void run(" in capsys.readouterr().out

    def test_unknown_code(self, capsys):
        assert main(["codegen", "nope", "ov", "--sizes", "T=1,L=2"]) == 2

    def test_unknown_version(self, capsys):
        assert (
            main(["codegen", "stencil5", "nope", "--sizes", "T=1,L=2"]) == 2
        )


class TestClosedStdout:
    """A reader that stops early (``| head``) is not an error for any
    subcommand: no traceback, exit 0."""

    @staticmethod
    def long_trace(path):
        # About 400 KB of rendered spans: far more than a pipe buffers,
        # so the writer is still writing when the reader goes away.
        records = [{"type": "meta", "schema": 1, "program": "t", "pid": 1}]
        records += [
            {
                "type": "span", "id": i, "parent": None, "name": f"span.{i}",
                "t0": 0.0, "wall_s": 1e-3, "cpu_s": 1e-3,
                "attrs": {"pad": "x" * 80},
            }
            for i in range(3000)
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace-summary", "{trace}"],
            ["codegen", "jacobi", "ov-interleaved-tiled", "--sizes",
             "T=8,L=64", "--lang", "python"],
        ],
        ids=["trace-summary", "codegen"],
    )
    def test_reader_closing_after_the_first_line(self, tmp_path, argv):
        trace = self.long_trace(tmp_path / "t.jsonl")
        argv = [arg.format(trace=trace) for arg in argv]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert stderr == ""


class TestParsing:
    def test_bad_stencil_text(self):
        with pytest.raises(SystemExit):
            main(["find"])  # missing required argument

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["find", "--stencil", "abc"], id="stencil-text"),
            pytest.param(["find", "--stencil", ""], id="stencil-empty"),
            pytest.param(["find", "--stencil", "1,0;0"], id="stencil-mixed"),
            pytest.param(["find", "--stencil", "0,0"], id="stencil-illegal"),
            pytest.param(
                ["find", "--stencil", "1,0;0,1", "--bounds", "1,1;x"],
                id="bounds-text",
            ),
            pytest.param(
                ["find", "--stencil", "1,0;0,1", "--bounds", "0,0,0;1,1,1"],
                id="bounds-dimension",
            ),
            pytest.param(
                ["common", "--stencils", "1,0;0,1|1,x"], id="stencils-text"
            ),
            pytest.param(
                ["common", "--stencils", "1,0|1,0,0"], id="stencils-mixed"
            ),
            pytest.param(
                ["codegen", "stencil5", "ov", "--sizes", "T=x"],
                id="codegen-size-text",
            ),
            pytest.param(
                ["codegen", "stencil5", "ov", "--sizes", "T"],
                id="codegen-size-pair",
            ),
            pytest.param(
                ["codegen", "stencil5", "ov", "--sizes", "T=8"],
                id="codegen-size-unbound",
            ),
            pytest.param(
                ["codegen", "stencil5", "ov", "--sizes", "T=0,L=4"],
                id="codegen-size-empty",
            ),
            pytest.param(
                ["codegen", "nope", "ov", "--sizes", "T=1,L=2"],
                id="codegen-unknown-code",
            ),
            pytest.param(
                ["codegen", "stencil5", "nope", "--sizes", "T=1,L=2"],
                id="codegen-unknown-version",
            ),
            pytest.param(
                ["compile", "stencil5", "--sizes", "T=8,L"],
                id="compile-size-pair",
            ),
            pytest.param(
                ["run", "stencil5", "--sizes", "T=x"], id="run-size-text"
            ),
        ],
    )
    def test_malformed_vectors_and_sizes_are_usage_errors(self, argv, capsys):
        try:
            rc, rejected_by_parser = main(argv), False
        except SystemExit as exc:
            rc, rejected_by_parser = exc.code, True
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        if rejected_by_parser:
            assert "error: argument --" in captured.err
        else:
            assert captured.err.startswith(f"{argv[0]}: ")
            assert captured.err.count("\n") == 1


class TestObservability:
    def test_find_prints_prunes_and_incumbent_history(self, capsys):
        assert main(["find", "--stencil", "1,0;0,1;1,1"]) == 0
        out = capsys.readouterr().out
        assert "pruned:" in out and "phi-bound=" in out
        assert "incumbents:  (2, 2)@node0 -> (1, 1)@node4" in out

    def test_find_trace_round_trips_through_trace_summary(
        self, tmp_path, capsys
    ):
        import json

        from repro import obs

        obs.reset()
        path = tmp_path / "t.jsonl"
        assert (
            main(["find", "--stencil", "1,0;0,1;1,1", "--trace", str(path)])
            == 0
        )
        capsys.readouterr()
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records[0]["type"] == "meta"
        assert records[-1]["type"] == "metrics"
        counters = records[-1]["snapshot"]["counters"]
        assert counters["search.pruned.phi_bound"] > 0
        assert any(
            r["type"] == "event" and r["name"] == "search.incumbent"
            for r in records
        )

        assert main(["trace-summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "search.find_optimal_uov" in out
        assert "search.incumbent" in out
        assert "search.pruned.phi_bound" in out

    def test_profile_prints_metrics_to_stderr(self, capsys):
        from repro import obs

        assert main(["find", "--stencil", "1,0;0,1;1,1", "--profile"]) == 0
        err = capsys.readouterr().err
        assert "-- metrics --" in err and "search.nodes_visited" in err
        # Disarmed on return: later native runs in this process must not
        # compile the instrumented kernel.
        assert not obs.profiling()

    def test_bad_log_level_is_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            main(
                ["find", "--stencil", "1,0;0,1;1,1", "--log-level", "nope"]
            )


class TestLint:
    """The ``repro lint`` exit-code contract: 0 below the --fail-on
    threshold, 1 at/above it, 2 on usage errors."""

    def test_corpus_is_clean_at_default_threshold(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        # Rolling buffers report their expected schedule-dependence as
        # info findings; nothing reaches error severity.
        assert "RACE002" in out
        assert "error" not in out.splitlines()[-1]

    def test_corpus_is_clean_at_warning_threshold(self, capsys):
        assert main(["lint", "--fail-on", "warning"]) == 0

    def test_json_format_and_artifact(self, tmp_path, capsys):
        import json

        artifact = tmp_path / "findings.json"
        assert (
            main(
                [
                    "lint", "--codes", "stencil5", "--format", "json",
                    "--out", str(artifact),
                ]
            )
            == 0
        )
        stdout_record = json.loads(capsys.readouterr().out)
        file_record = json.loads(artifact.read_text())
        assert stdout_record == file_record
        assert file_record["schema"] == 1
        assert "summary" in file_record

    def test_unknown_code_is_usage_error(self, capsys):
        assert main(["lint", "--codes", "nosuch"]) == 2
        assert "unknown code" in capsys.readouterr().err

    def test_unknown_pass_is_usage_error(self, capsys):
        assert main(["lint", "--passes", "nosuch"]) == 2
        assert "unknown lint pass" in capsys.readouterr().err

    def test_unwritable_artifact_is_usage_error(self, tmp_path, capsys):
        assert (
            main(["lint", "--codes", "psm", "--out", str(tmp_path)]) == 2
        )
        assert "cannot write" in capsys.readouterr().err

    def test_fail_on_thresholds(self, monkeypatch, capsys):
        """A warning finding fails --fail-on warning but not the default."""
        from repro.analysis import passes
        from repro.analysis.diag import Diagnostics, Severity
        from repro.obs.metrics import Metrics

        def fake_run_lint(**kwargs):
            diag = Diagnostics(metrics=Metrics())
            diag.emit("APP001", Severity.WARNING, "x/y", "non-uniform reference")
            return diag

        monkeypatch.setattr(passes, "run_lint", fake_run_lint)
        assert main(["lint"]) == 0
        assert main(["lint", "--fail-on", "error"]) == 0
        assert main(["lint", "--fail-on", "warning"]) == 1
        capsys.readouterr()

    def test_fuzz_budget_runs_the_fuzz_pass(self, capsys):
        from repro.obs.metrics import get_metrics

        before = get_metrics().snapshot()["counters"].get(
            "lint.fuzz.samples", 0
        )
        assert main(["lint", "--codes", "simple2d", "--fuzz", "2"]) == 0
        after = get_metrics().snapshot()["counters"].get(
            "lint.fuzz.samples", 0
        )
        assert after > before
        capsys.readouterr()


class TestCommon:
    def test_shared_uov_found(self, capsys):
        assert (
            main(
                [
                    "common",
                    "--stencils",
                    "1,-2;1,-1;1,0;1,1;1,2 | 1,-1;1,0;1,1",
                ]
            )
            == 0
        )
        assert "common UOV: (2, 0)" in capsys.readouterr().out

    def test_no_common_uov(self, capsys):
        assert main(["common", "--stencils", "1,0 | 0,1"]) == 1
        assert "no common UOV" in capsys.readouterr().out


class TestCompile:
    def test_compile_registered_code(self, capsys):
        assert main(["compile", "stencil5", "--execute", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "uov-search" in out and "verified" in out

    def test_compile_spec_file(self, capsys, tmp_path):
        import json

        spec_path = tmp_path / "probe.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "probe",
                    "indices": ["t", "x"],
                    "bounds": [[1, "T"], [0, "L - 1"]],
                    "distances": [[1, 1], [1, 0], [1, -1]],
                    "combine": {
                        "kind": "weighted-sum",
                        "weights": [0.25, 0.5, 0.25],
                    },
                    "inputs": {
                        "kind": "padded-line",
                        "axis": 1,
                        "pad": 1,
                        "pad_value": 0.0,
                    },
                    "sizes": {"T": 4, "L": 8},
                }
            )
        )
        assert (
            main(
                ["compile", str(spec_path), "--lint", "--execute",
                 "--no-cache"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "UOV [2, 0]" in out
        assert "verified" in out

    def test_compile_json_format(self, capsys):
        import json

        assert (
            main(["compile", "jacobi", "--no-cache", "--format", "json"])
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in doc["stages"]][:3] == [
            "parse", "dependence", "uov-search",
        ]

    def test_invalid_spec_reports_diagnostics_not_a_traceback(
        self, capsys, tmp_path
    ):
        spec_path = tmp_path / "broken.json"
        spec_path.write_text('{"name": "broken", "indices": ["t"]}')
        assert main(["compile", str(spec_path)]) == 1
        err = capsys.readouterr().err
        assert "SPEC001" in err

    @pytest.mark.parametrize(
        "bound", [1.5, None, [1], {"lo": 1}],
        ids=["float", "null", "list", "object"],
    )
    def test_ill_typed_bound_reports_diagnostics(self, capsys, tmp_path, bound):
        spec_path = tmp_path / "bad-bound.json"
        spec_path.write_text(
            json.dumps({
                "name": "bad-bound",
                "indices": ["t", "x"],
                "bounds": [[bound, "T"], [0, "L - 1"]],
                "distances": [[1, 0]],
                "combine": {"kind": "weighted-sum", "weights": [1.0]},
                "inputs": {"kind": "padded-line", "axis": 1, "pad": 0},
                "sizes": {"T": 4, "L": 8},
            })
        )
        assert main(["compile", str(spec_path), "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert "SPEC003" in err and "Traceback" not in err

    def test_missing_file_is_a_usage_error(self, capsys):
        assert main(["compile", "no/such/spec.json"]) == 2
        capsys.readouterr()

    def test_undeclared_size_binding_is_a_usage_error(self, capsys):
        argv = ["compile", "stencil5", "--no-cache", "--sizes"]
        assert main([*argv, "T=4,L=8,X=3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("compile: ")
        assert captured.err.count("\n") == 1
        assert "['X']" in captured.err
        # The tile bindings are not size symbols, but they are declared.
        assert main([*argv, "T=4,L=8,tile=4"]) == 0
        assert "'tile': 4" in capsys.readouterr().out

    def test_unknown_code_name_suggests(self, capsys):
        assert main(["compile", "stencil6"]) == 2
        assert "did you mean 'stencil5'?" in capsys.readouterr().err

    def test_cache_dir_warm_second_run(self, capsys, tmp_path):
        argv = ["compile", "jacobi", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[cached]" in out


class TestRun:
    def test_run_registered_code(self, capsys):
        assert (
            main(["run", "stencil5", "--sizes", "T=4,L=10", "--no-cache"])
            == 0
        )
        assert "verified" in capsys.readouterr().out

    def test_run_with_schedule_override(self, capsys):
        assert (
            main(
                ["run", "jacobi", "--schedule", "tiled", "--tile", "2,4",
                 "--no-cache"]
            )
            == 0
        )
        assert "tiled: legal" in capsys.readouterr().out

    def test_run_unknown_code(self, capsys):
        assert main(["run", "jacobbi"]) == 2
        assert "did you mean 'jacobi'?" in capsys.readouterr().err


class TestList:
    def test_list_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for heading in (
            "codes:", "mappings:", "schedules:", "input-rules:",
            "combine-hooks:", "passes:",
        ):
            assert heading in out
        assert "stencil5" in out and "rolling-buffer" in out

    def test_list_one_registry(self, capsys):
        assert main(["list", "codes"]) == 0
        out = capsys.readouterr().out
        assert "stencil5" in out
        assert "mappings:" not in out

    def test_list_unknown_registry(self, capsys):
        assert main(["list", "codez"]) == 2
        assert "unknown registry" in capsys.readouterr().err


class TestCertify:
    def test_code_certifies(self, capsys):
        assert main(["certify", "--code", "stencil5"]) == 0
        out = capsys.readouterr().out
        assert "universal" in out
        assert "agrees" in out

    def test_stencil_with_bad_ov_exits_1(self, capsys):
        assert (
            main(["certify", "--stencil", "1,0;0,1;1,1", "--ov", "0,1"])
            == 1
        )
        out = capsys.readouterr().out
        assert "NOT universal" in out
        assert "cross-check: agrees" in out

    def test_spec_certifies(self, capsys):
        assert main(["certify", "--spec", "examples/specs/heat7.json"]) == 0
        assert "universal" in capsys.readouterr().out

    def test_json_format(self, capsys):
        import json as json_mod

        assert main(["certify", "--code", "simple2d", "--format", "json"]) == 0
        record = json_mod.loads(capsys.readouterr().out)
        assert record["verdict"] == "universal"

    def test_requires_exactly_one_subject(self, capsys):
        assert main(["certify"]) == 2
        assert (
            main(["certify", "--code", "simple2d", "--spec", "x.json"]) == 2
        )

    def test_stencil_requires_ov(self, capsys):
        assert main(["certify", "--stencil", "1,0;0,1"]) == 2


class TestLintSymbolic:
    def test_symbolic_corpus_is_clean(self, capsys):
        assert main(["lint", "--symbolic"]) == 0
        out = capsys.readouterr().out
        assert "SYM001" not in out and "SYM002" not in out


class TestLintCodes:
    def test_check_passes_when_current(self, capsys):
        assert main(["lint-codes", "--check"]) == 0

    def test_check_fails_when_stale(self, tmp_path, capsys):
        stale = tmp_path / "LINT_CODES.md"
        stale.write_text("# stale\n")
        assert main(["lint-codes", "--check", "--path", str(stale)]) == 1
        assert "stale" in capsys.readouterr().err.lower()

    def test_prints_the_table(self, capsys):
        assert main(["lint-codes"]) == 0
        out = capsys.readouterr().out
        assert "SYM001" in out and "RACE002" in out


class TestExperiments:
    def test_runner_flags_reach_the_installed_runner(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.experiments import harness, report

        seen = {}

        def fake_run_all(mode, progress=print):
            seen["mode"], seen["runner"] = mode, harness.get_runner()
            return []

        monkeypatch.setattr(report, "run_all", fake_run_all)
        monkeypatch.setattr(report, "write_report", lambda *a, **k: None)
        # The command installs its runner globally; put the old one back.
        monkeypatch.setattr(harness, "_RUNNER", harness.get_runner())
        out = tmp_path / "EXPERIMENTS.md"
        argv = [
            "experiments", "--mode", "full", "--out", str(out),
            "--jobs", "3", "--timeout", "2.5", "--retries", "4", "--no-cache",
        ]
        assert main(argv) == 0
        runner = seen["runner"]
        assert seen["mode"] == "full"
        assert runner.jobs == 3
        assert runner.timeout_s == 2.5
        assert runner.retry.retries == 4
        assert runner.cache_dir is None and runner.checkpoint_path is None
        assert f"wrote {out}: 0/0 claims hold" in capsys.readouterr().out

    @pytest.mark.parametrize("cache", [False, True])
    def test_unusable_checkpoint_names_its_flag(self, tmp_path, capsys, cache):
        blocker = tmp_path / "file"
        blocker.write_text("")
        bad = blocker / "checkpoint"
        argv = ["experiments", "--out", str(tmp_path / "E.md")]
        argv += (
            ["--cache-dir", str(tmp_path / "cache")] if cache else ["--no-cache"]
        )
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--checkpoint", str(bad)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]  # past the usage
        assert "--checkpoint" in err and str(bad) in err
        assert "--cache-dir" not in err

    def test_unusable_cache_dir_names_its_flag(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        bad = blocker / "cache"
        with pytest.raises(SystemExit) as excinfo:
            main([
                "experiments", "--out", str(tmp_path / "E.md"),
                "--cache-dir", str(bad),
                "--checkpoint", str(tmp_path / "checkpoint"),
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert "--cache-dir" in err and str(bad) in err
        assert "--checkpoint" not in err

    def test_resume_needs_a_checkpoint_only_without_a_cache(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.experiments import harness, report

        monkeypatch.setattr(report, "run_all", lambda mode: [])
        monkeypatch.setattr(report, "write_report", lambda *a, **k: None)
        monkeypatch.setattr(harness, "_RUNNER", harness.get_runner())
        out = ["--out", str(tmp_path / "E.md")]
        cached = ["--cache-dir", str(tmp_path / "cache"), "--resume"]
        assert main(["experiments", *out, *cached]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", *out, "--no-cache", "--resume"])
        assert excinfo.value.code == 2
        assert "--checkpoint" in capsys.readouterr().err
