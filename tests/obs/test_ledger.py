"""Run ledger: append/read roundtrip, self-healing, aggregation."""

import json
import time

import pytest

from repro import obs
from repro.obs.ledger import (
    LEDGER_ENV,
    RunLedger,
    aggregate,
    configure_ledger,
    get_ledger,
    ledger_record,
    read_entries,
    render_stats,
    shutdown_ledger,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


class TestRoundtrip:
    def test_record_then_read_back(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        ledger.record("execute", engine="native", wall_s=0.5, code="stencil5")
        ledger.record("compile", spec="heat7", cached=True)
        ledger.close()
        entries, corrupt = read_entries(path)
        assert corrupt == 0
        assert [e["kind"] for e in entries] == ["execute", "compile"]
        assert entries[0]["engine"] == "native"
        assert all("ts" in e for e in entries)

    def test_lines_are_digest_wrapped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        ledger.record("execute", engine="vectorized", wall_s=0.1)
        ledger.close()
        wrapper = json.loads(path.read_text().splitlines()[0])
        assert set(wrapper) == {"schema", "digest", "body"}

    def test_line_bytes_are_pinned(self, tmp_path, monkeypatch):
        """Ledgers in the field must keep reading: one line, byte for
        byte, as every earlier release wrote it."""
        monkeypatch.setattr(time, "time", lambda: 1.0)
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        ledger.record("execute", engine="vectorized", wall_s=0.1)
        ledger.close()
        line = (
            '{"body": {"engine": "vectorized", "kind": "execute", '
            '"ts": 1.0, "wall_s": 0.1}, "digest": "8c4d309934d0eb10", '
            '"schema": 1}\n'
        )
        assert path.read_text() == line
        assert read_entries(path)[0][0]["engine"] == "vectorized"

    def test_append_only_across_handles(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        for k in range(3):
            ledger = RunLedger(path)
            ledger.record("execute", engine="interpreter", wall_s=k)
            ledger.close()
        entries, _ = read_entries(path)
        assert len(entries) == 3

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_entries(tmp_path / "nope.jsonl") == ([], 0)


class TestSelfHealing:
    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        ledger.record("execute", engine="native", wall_s=0.5)
        ledger.close()
        with open(path, "a") as fh:
            fh.write("{torn half-li\n")  # torn write
            fh.write(json.dumps({"schema": 1, "digest": "x", "body": {}}))
            fh.write("\n")  # digest mismatch (bit rot)
        ledger = RunLedger(path)
        ledger.record("execute", engine="native", wall_s=0.6)
        ledger.close()
        with pytest.warns(UserWarning, match="corrupt"):
            entries, corrupt = read_entries(path)
        assert corrupt == 2
        assert [e["wall_s"] for e in entries] == [0.5, 0.6]
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["ledger.corrupt_lines"] == 2

    def test_corrupt_warning_deduplicated_per_file(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("garbage\n")
        with pytest.warns(UserWarning):
            read_entries(path)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            read_entries(path)  # second read: no warning


class TestLifecycle:
    def test_off_by_default(self, monkeypatch, tmp_path):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        configure_ledger(None)
        assert get_ledger() is None
        assert ledger_record("execute", engine="x") is None

    def test_env_fallback(self, monkeypatch, tmp_path):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv(LEDGER_ENV, str(path))
        configure_ledger(None)
        try:
            assert ledger_record("execute", engine="native") is not None
        finally:
            shutdown_ledger()
        entries, _ = read_entries(path)
        assert len(entries) == 1

    def test_explicit_path_wins_and_reset_closes(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path / "env.jsonl"))
        configure_ledger(str(tmp_path / "flag.jsonl"))
        assert get_ledger().path.name == "flag.jsonl"
        obs.reset()
        assert get_ledger() is None


class TestAggregate:
    def _entries(self):
        return [
            {"kind": "execute", "ts": 10.0, "engine": "native",
             "wall_s": 0.1, "code": "a", "version": "ov"},
            {"kind": "execute", "ts": 11.0, "engine": "native",
             "wall_s": 0.3, "code": "b", "version": "ov"},
            {"kind": "execute", "ts": 12.0, "engine": "interpreter",
             "wall_s": 2.0, "label": "slowest-one"},
            {"kind": "compile", "ts": 13.0, "cached": True},
            {"kind": "compile", "ts": 14.0, "cached": False},
            {"kind": "experiment", "ts": 15.0, "experiment": "fig7"},
        ]

    def test_engine_comparison_and_slowest(self):
        agg = aggregate(self._entries())
        assert agg["by_kind"] == {"execute": 3, "compile": 2, "experiment": 1}
        native = agg["engines"]["native"]
        assert native["runs"] == 2
        assert native["mean_s"] == pytest.approx(0.2)
        assert native["max_s"] == pytest.approx(0.3)
        assert agg["slowest"][0]["label"] == "slowest-one"
        assert agg["compile_cache_hit_rate"] == pytest.approx(0.5)
        assert agg["span_s"] == pytest.approx(5.0)

    def test_render_stats_text(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        for e in self._entries():
            kind = e.pop("kind")
            e.pop("ts")
            ledger.record(kind, **e)
        ledger.close()
        text = render_stats(path)
        assert "engine comparison" in text
        assert "slowest-one" in text
        assert "hit rate 50%" in text

    def test_render_stats_empty(self, tmp_path):
        text = render_stats(tmp_path / "none.jsonl")
        assert "no entries" in text


class TestCliIntegration:
    def test_run_with_ledger_then_stats(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "runs.jsonl"
        rc = main(
            ["run", "simple2d", "--sizes", "n=4,m=6",
             "--ledger", str(path)]
        )
        assert rc == 0
        assert get_ledger() is None  # closed by the CLI lifecycle
        rc = main(["stats", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "by kind" in out
        assert "compile" in out and "execute" in out

    def test_stats_without_a_ledger_is_a_usage_error(self, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv(LEDGER_ENV, raising=False)
        assert main(["stats"]) == 2
