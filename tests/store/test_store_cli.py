"""The ``repro store`` CLI group and ``repro stats --store``, driven
end-to-end through ``repro.cli.main``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.store import Provenance, Store
from repro.store.cli import parse_since
from tests.store.test_migrate import SIM_KEY, STAGE_KEY, seed_legacy


def seed(root):
    """Three annotated entries and one bare entry."""
    store = Store.open(root)
    store.put("a", {"v": 1}, provenance=Provenance(
        op="simulate", engine="eng-a", created_at=100.0))
    store.put("b", {"v": 2}, provenance=Provenance(
        op="simulate", engine="eng-b", created_at=200.0))
    store.put(f"execute-{STAGE_KEY}", {"v": 3}, provenance=Provenance(
        op="execute", engine="eng-a", created_at=300.0))
    store.put("bare", {"v": 4})
    store.close()
    return root


@pytest.fixture
def seeded(tmp_path):
    return seed(tmp_path / "unified")


@pytest.mark.parametrize("name", ["nope", "nope.sqlite"])
@pytest.mark.parametrize(
    "argv",
    [
        ["store", "stats", "{}"],
        ["store", "query", "{}"],
        ["store", "gc", "{}", "--keep-latest", "1"],
        ["stats", "--store", "{}"],
    ],
    ids=["store-stats", "store-query", "store-gc", "stats-store"],
)
def test_missing_store_is_an_error_not_created(tmp_path, capsys, argv, name):
    missing = tmp_path / name
    assert main([arg.format(missing) for arg in argv]) == 2
    assert f"no store at {missing}" in capsys.readouterr().err
    assert not missing.exists()


class TestStoreStats:
    def test_text(self, seeded, capsys):
        assert main(["store", "stats", str(seeded)]) == 0
        out = capsys.readouterr().out
        assert "4 entries" in out
        assert "simulate" in out and "execute" in out
        assert "stale" in out

    def test_json(self, seeded, capsys):
        assert main(["store", "stats", str(seeded), "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 4
        assert stats["by_op"]["simulate"]["entries"] == 2
        assert set(stats["engine"]) == {
            "current_fingerprint", "current", "stale",
        }


class TestStoreQuery:
    def test_filter_by_op(self, seeded, capsys):
        assert main(["store", "query", str(seeded), "--op", "execute"]) == 0
        out = capsys.readouterr().out
        assert f"execute-{STAGE_KEY}" in out
        assert "\na " not in out

    def test_json_carries_provenance(self, seeded, capsys):
        assert main([
            "store", "query", str(seeded),
            "--op", "simulate", "--format", "json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["key"] for r in rows] == ["b", "a"]  # newest first
        assert rows[0]["provenance"]["engine"] == "eng-b"

    def test_engine_filter(self, seeded, capsys):
        assert main([
            "store", "query", str(seeded),
            "--engine", "eng-a", "--format", "json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["key"] for r in rows} == {"a", f"execute-{STAGE_KEY}"}

    def test_stale_flags_unknown_engines(self, seeded, capsys):
        # Every seeded engine differs from the live fingerprint, so with
        # no override everything (incl. the bare entry) is stale.
        assert main([
            "store", "query", str(seeded), "--stale", "--format", "json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["key"] for r in rows} == {
            "a", "b", "bare", f"execute-{STAGE_KEY}",
        }

    def test_stale_and_current_conflict(self, seeded, capsys):
        assert main([
            "store", "query", str(seeded), "--stale", "--current",
        ]) == 2

    def test_bad_since_is_a_usage_error(self, seeded):
        assert main([
            "store", "query", str(seeded), "--since", "yesterday",
        ]) == 2

    def test_no_matches(self, seeded, capsys):
        assert main(["store", "query", str(seeded), "--op", "nope"]) == 0
        assert "no matching entries" in capsys.readouterr().out


class TestParseSince:
    def test_ages(self):
        import time

        now = time.time()
        assert now - parse_since("1h") == pytest.approx(3600.0, abs=5.0)
        assert now - parse_since("7d") == pytest.approx(604800.0, abs=5.0)
        assert now - parse_since("30m") == pytest.approx(1800.0, abs=5.0)

    def test_epoch_passthrough(self):
        assert parse_since("12345.5") == 12345.5

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_since("yesterday")


class TestStoreGc:
    def test_requires_a_policy(self, seeded):
        assert main(["store", "gc", str(seeded)]) == 2

    def test_keep_latest(self, seeded, capsys):
        assert main([
            "store", "gc", str(seeded), "--keep-latest", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "removed a" in out  # older of the two simulate entries
        store = Store.open(seeded)
        assert not store.has("a")
        assert store.has("b")

    def test_dry_run_deletes_nothing(self, seeded, capsys):
        assert main([
            "store", "gc", str(seeded), "--keep-latest", "1", "--dry-run",
        ]) == 0
        assert "would remove a" in capsys.readouterr().out
        assert Store.open(seeded).has("a")

    @pytest.mark.parametrize("name", ["unified", "unified.sqlite"])
    @pytest.mark.parametrize(
        "policy", ["keep-latest", "max-bytes", "both"]
    )
    def test_dry_run_previews_exactly_what_gc_removes(
        self, tmp_path, capsys, name, policy
    ):
        root = seed(tmp_path / name)
        with Store.open(root) as store:
            half = sum(info.nbytes for info in store.items()) // 2
        flags = {
            "keep-latest": ["--keep-latest", "1"],
            "max-bytes": ["--max-bytes", str(half)],
            "both": ["--keep-latest", "1", "--max-bytes", str(half)],
        }[policy]
        argv = ["store", "gc", str(root), *flags]
        assert main([*argv, "--dry-run"]) == 0
        previewed = [
            line.split()[-1]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("would remove ")
        ]
        assert main(argv) == 0
        removed = [
            line.split()[-1]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("removed ")
        ]
        assert previewed and previewed == removed


class TestStoreMigrate:
    def test_in_place(self, tmp_path, capsys):
        root = tmp_path / "legacy"
        seed_legacy(root)
        assert main(["store", "migrate", str(root)]) == 0
        out = capsys.readouterr().out
        assert "3 entries migrated in place" in out
        store = Store.open(root)
        assert store.provenance(SIM_KEY).op == "simulate"

    def test_json_report(self, tmp_path, capsys):
        root = tmp_path / "legacy"
        seed_legacy(root)
        assert main([
            "store", "migrate", str(root), "--format", "json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["migrated"] == 3
        assert report["by_op"]["compile-so"] == 1

    def test_into_sqlite(self, tmp_path, capsys):
        root = tmp_path / "legacy"
        seed_legacy(root)
        target = tmp_path / "unified.sqlite"
        assert main(["store", "migrate", str(root), "--into", str(target)]) == 0
        assert f"into {target}" in capsys.readouterr().out
        store = Store.open(target)
        assert store.get(SIM_KEY) == {"series": [1, 2, 3]}
        store.close()

    def test_missing_dir(self, tmp_path):
        assert main(["store", "migrate", str(tmp_path / "nope")]) == 2


class TestStatsStoreFlag:
    def test_stats_learns_store(self, seeded, capsys):
        assert main(["stats", "--store", str(seeded)]) == 0
        out = capsys.readouterr().out
        assert "4 entries" in out

    def test_stats_without_anything_errors(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert main(["stats"]) == 2
