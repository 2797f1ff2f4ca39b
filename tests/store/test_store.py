"""Store core behavior over both backends: CRUD, provenance, query, gc,
corruption healing, and byte-compatibility with the pre-store caches."""

from __future__ import annotations

import sqlite3

import pytest

from repro import obs
from repro.store import DirBackend, Provenance, SqliteBackend, Store
from repro.store.backend import CORRUPT_DIR
from tests.store.test_migrate import write_legacy


def prov(op="simulate", engine="eng-a", created_at=100.0, **kw):
    return Provenance(op=op, engine=engine, created_at=created_at, **kw)


class TestRoundTrip:
    def test_put_get(self, store):
        store.put("k1", {"value": 42}, label="k1")
        assert store.get("k1") == {"value": 42}

    def test_missing_key_is_default(self, store):
        assert store.get("nope") is None
        assert store.get("nope", default="x") == "x"

    def test_has_and_delete(self, store):
        store.put("k", [1, 2, 3])
        assert store.has("k")
        assert store.delete("k")
        assert not store.has("k")
        assert not store.delete("k")

    def test_overwrite_wins(self, store):
        store.put("k", {"v": 1})
        store.put("k", {"v": 2})
        assert store.get("k") == {"v": 2}

    def test_hit_miss_counters(self, store):
        store.put("k", 1)
        store.get("k")
        store.get("absent")
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["store.hits"] == 1
        assert counters["store.misses"] == 1
        assert counters["store.puts"] == 1


class TestProvenance:
    def test_round_trips(self, store):
        record = prov(
            op="execute",
            inputs={"parent": "abc"},
            spec="deadbeef",
            machine="pentium-pro",
            wall_s=0.25,
            extra={"label": "stencil5"},
        )
        store.put("k", {"v": 1}, provenance=record)
        got = store.provenance("k")
        assert got == record

    def test_absent_provenance_is_none(self, store):
        store.put("k", {"v": 1})
        assert store.provenance("k") is None

    def test_annotate_attaches_without_rewriting(self, store):
        store.put("k", {"v": 1})
        store.annotate("k", prov(op="late"))
        assert store.get("k") == {"v": 1}
        assert store.provenance("k").op == "late"


class TestQuery:
    def seed(self, store):
        store.put("a", 1, provenance=prov(op="simulate", engine="eng-a",
                                          created_at=100.0))
        store.put("b", 2, provenance=prov(op="simulate", engine="eng-b",
                                          created_at=200.0))
        store.put("c", 3, provenance=prov(op="execute", engine="eng-a",
                                          created_at=300.0))
        store.put("d", 4)  # no provenance: op "?", engine "unknown"

    def test_filter_by_op(self, store):
        self.seed(store)
        assert [i.key for i in store.query(op="simulate")] == ["b", "a"]
        assert [i.key for i in store.query(op="execute")] == ["c"]

    def test_filter_by_engine(self, store):
        self.seed(store)
        assert {i.key for i in store.query(engine="eng-a")} == {"a", "c"}

    def test_filter_by_since(self, store):
        self.seed(store)
        keys = {i.key for i in store.query(since=150.0)}
        # the unannotated entry's created_at is its mtime (now) — present
        assert {"b", "c"} <= keys
        assert "a" not in keys

    def test_stale_vs_current(self, store):
        self.seed(store)
        stale = {i.key for i in store.query(stale=True,
                                            current_engine="eng-a")}
        current = {i.key for i in store.query(stale=False,
                                              current_engine="eng-a")}
        assert stale == {"b", "d"}
        assert current == {"a", "c"}

    def test_newest_first(self, store):
        self.seed(store)
        annotated = [i for i in store.query() if i.key in "abc"]
        assert [i.key for i in annotated] == ["c", "b", "a"]


class TestGc:
    def test_keep_latest_per_op(self, store):
        for k, ts in (("a", 1.0), ("b", 2.0), ("c", 3.0)):
            store.put(k, k, provenance=prov(op="simulate", created_at=ts))
        store.put("x", "x", provenance=prov(op="execute", created_at=1.0))
        removed = store.gc(keep_latest=1)
        assert sorted(removed) == ["a", "b"]
        assert store.has("c") and store.has("x")

    def test_max_bytes_evicts_oldest_first(self, store):
        for k, ts in (("old", 1.0), ("mid", 2.0), ("new", 3.0)):
            store.put(k, {"pad": "z" * 50}, provenance=prov(created_at=ts))
        sizes = {i.key: i.nbytes for i in store.items()}
        budget = sizes["new"] + sizes["mid"]
        removed = store.gc(max_bytes=budget)
        assert removed == ["old"]
        assert store.has("new") and store.has("mid")

    def test_no_arguments_is_a_no_op(self, store):
        store.put("k", 1)
        assert store.gc() == []
        assert store.has("k")


class TestStats:
    def test_counts_bytes_and_engine_split(self, store):
        store.put("a", 1, provenance=prov(op="simulate", engine="cur"))
        store.put("b", 2, provenance=prov(op="simulate", engine="old"))
        store.put("c", 3, provenance=prov(op="execute", engine="cur"))
        stats = store.stats(current_engine="cur")
        assert stats["entries"] == 3
        assert stats["by_op"]["simulate"]["entries"] == 2
        assert stats["by_op"]["execute"]["entries"] == 1
        assert stats["engine"] == {
            "current_fingerprint": "cur", "current": 2, "stale": 1,
        }
        assert stats["bytes"] == sum(i.nbytes for i in store.items())
        assert stats["session"]["store.puts"] == 3


class TestHealing:
    def test_dir_backend_quarantines_corrupt_entry(self, tmp_path):
        root = tmp_path / "cache"
        store = Store(DirBackend(root, site="test"))
        store.put("k", {"v": 1})
        (root / "k.json").write_text("{ not json")
        assert store.get("k") is None  # miss, healed
        assert (root / CORRUPT_DIR / "k.json").exists()
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["store.heal.quarantined"] == 1
        assert counters["resilience.cache.corrupt"] == 1

    def test_sqlite_backend_deletes_corrupt_row(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        store = Store(SqliteBackend(path, site="test"))
        store.put("k", {"v": 1})
        store.close()
        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE entries SET body = '{\"v\": 999}' WHERE key='k'")
        conn.commit()
        conn.close()
        store = Store(SqliteBackend(path, site="test"))
        assert store.get("k") is None  # digest mismatch: healed miss
        assert store.backend.keys() == []  # row deleted
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["store.heal.quarantined"] == 1
        store.close()


class TestLegacyCompat:
    """Entries written by the pre-store caches keep hitting."""

    def test_reads_pre_store_files(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        write_legacy(root / "legacy.json", {"old": True})
        store = Store(DirBackend(root, site="test"))
        assert store.get("legacy") == {"old": True}
        assert store.provenance("legacy") is None

    def test_writes_the_same_wrapper_format(self, tmp_path):
        root = tmp_path / "cache"
        store = Store(DirBackend(root, site="test", indent=None))
        store.put("k", {"v": 1})
        assert (root / "k.json").read_bytes() == (
            b'{"body": {"v": 1}, "digest": "9ab2253fc38981f5", "schema": 1}'
        )

    def test_provenance_lives_in_a_sidecar(self, tmp_path):
        """The value file stays byte-identical with and without
        provenance — the self-heal suite asserts bit-identical
        recomputation, so provenance must never touch value bytes."""
        root = tmp_path / "cache"
        store = Store(DirBackend(root, site="test"))
        store.put("bare", {"v": 1})
        store.put("rich", {"v": 1}, provenance=prov())
        assert (root / "bare.json").read_bytes() == (
            root / "rich.json"
        ).read_bytes()
        assert (root / ".prov" / "rich.json").exists()

    def test_delete_removes_companion_file(self, tmp_path):
        root = tmp_path / "cache"
        store = Store(DirBackend(root, site="test"))
        so = root / "run-aaaa.so"
        root.mkdir(parents=True, exist_ok=True)
        so.write_bytes(b"\x7fELF fake")
        store.put("run-aaaa", {"file": "run-aaaa.so"}, provenance=prov())
        assert store.delete("run-aaaa")
        assert not so.exists()
        assert not (root / "run-aaaa.json").exists()


class TestOpenBackend:
    def test_sqlite_suffix_selects_sqlite(self, tmp_path):
        st = Store.open(tmp_path / "x.sqlite")
        assert isinstance(st.backend, SqliteBackend)
        st.close()

    def test_directory_is_the_default(self, tmp_path):
        st = Store.open(tmp_path / "plain-dir")
        assert isinstance(st.backend, DirBackend)
        st.close()


class TestSqliteDurability:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "cache.db"
        store = Store.open(path)
        store.put("k", {"v": 1}, provenance=prov(op="execute"))
        store.close()
        store = Store.open(path)
        assert store.get("k") == {"v": 1}
        assert store.provenance("k").op == "execute"
        store.close()

    def test_wal_mode_is_armed(self, tmp_path):
        backend = SqliteBackend(tmp_path / "cache.sqlite")
        mode = backend._connect().execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        backend.close()


def test_entryinfo_defaults():
    from repro.store import EntryInfo

    info = EntryInfo(key="k", nbytes=1, created_at=0.0, provenance=None)
    assert info.op == "?"
    assert info.engine == "unknown"
    rich = EntryInfo(
        key="k", nbytes=1, created_at=0.0,
        provenance=prov(op="execute", engine="fp"),
    )
    assert rich.op == "execute"
    assert rich.engine == "fp"


def test_json_bodies_only(store):
    with pytest.raises(TypeError):
        store.put("bad", object())
