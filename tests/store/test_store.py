"""Store core behavior over both backends: CRUD, provenance, query, gc,
corruption healing, and byte-compatibility with the pre-store caches."""

from __future__ import annotations

import json
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
        store = Store(DirBackend(root, site="test"))
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


def reencoded(*args, **kwargs):
    raise AssertionError("the body was re-encoded")


class TestVerifiedAsStored:
    """Reads hash the stored body bytes and parse them once; a write
    encodes its body once."""

    def test_compact_entry_reads_without_reencoding(self, store, monkeypatch):
        from repro.store import backend

        body = {"proof": [{"ok": True, "terms": [1, -2]}], "name": "é"}
        store.put("k", body)
        monkeypatch.setattr(backend, "content_hash", reencoded)
        monkeypatch.setattr(backend, "canonical_json", reencoded)
        assert store.get("k") == body

    def test_one_put_serialises_its_body_once(self, store, monkeypatch):
        from repro.store import backend

        body = {"v": [1, 2, 3]}
        encoded = []
        real = backend.canonical_json

        def counting(payload):
            encoded.append(payload)
            return real(payload)

        monkeypatch.setattr(backend, "canonical_json", counting)
        monkeypatch.setattr(backend, "content_hash", reencoded)
        store.put("k", body)
        assert encoded == [body]

    def test_compact_bytes_match_the_json_encoder(self, tmp_path):
        from repro.store.fingerprint import content_hash

        root = tmp_path / "cache"
        store = Store(DirBackend(root, site="test"))
        bodies = [
            {"v": 1}, [], None, 2.5, "x", {"é": " \n"},
            {"b": {"z": 1, "a": [True, None]}},
            {"digest": "0", "body": ', "digest": "', "schema": 1},
        ]
        for n, body in enumerate(bodies):
            store.put(f"k{n}", body)
            wrapper = {
                "schema": 1, "digest": content_hash(body, 16), "body": body,
            }
            assert (root / f"k{n}.json").read_bytes() == (
                json.dumps(wrapper, sort_keys=True).encode()
            )
            assert store.backend.get(f"k{n}") == body

    def test_tampered_directory_entry_is_quarantined(self, tmp_path):
        root = tmp_path / "cache"
        store = Store(DirBackend(root, site="test"))
        store.put("k", {"v": 12345})
        path = root / "k.json"
        # One digit of the body changed: still valid JSON, wrong digest.
        path.write_text(path.read_text().replace("12345", "12346"))
        assert store.get("k") is None
        assert (root / CORRUPT_DIR / "k.json").exists()
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["store.heal.quarantined"] == 1
        assert counters["store.heal.test"] == 1

    def test_undecodable_bytes_are_quarantined(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        (root / "k.json").write_bytes(
            b'{"body": "\xff\xfe", "digest": "0", "schema": 1}'
        )
        store = Store(DirBackend(root, site="test"))
        assert store.get("k") is None
        assert (root / CORRUPT_DIR / "k.json").exists()
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["store.heal.test"] == 1

    def test_pipeline_entries_are_compact(self, tmp_path):
        from repro.pipeline.cache import ArtifactCache

        root = tmp_path / "pipeline"
        cache = ArtifactCache(root)
        cache.store("execute", "a" * 24, {"verified": True, "cycles": 9})
        data = (root / f"execute-{'a' * 24}.json").read_bytes()
        assert data == json.dumps(json.loads(data), sort_keys=True).encode()
        assert b"\n" not in data


class TestVerifyThenParse:
    """A lookup verifies the stored bytes and returns a handle that parses
    them on first use, without going back to the store."""

    def test_lookup_defers_the_parse(self, store):
        store.put("k", {"v": [1, 2]})
        entry = store.read("k")
        assert not entry.parsed
        assert entry.body == {"v": [1, 2]}
        assert entry.parsed
        assert store.get("k") == {"v": [1, 2]}

    def test_lookups_count_hits_and_misses(self, store):
        store.put("k", {"v": 1})
        assert store.read("k") is not None
        assert store.read("absent") is None
        assert store.has("k")
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["store.hits"] == 1 and counters["store.misses"] == 1

    def test_handle_outlives_its_entry_and_the_store(self, store):
        store.put("k", {"v": 1})
        entry = store.read("k")
        assert store.delete("k")
        store.close()
        assert entry.body == {"v": 1}

    def test_corruption_after_the_lookup_changes_nothing(self, tmp_path):
        root = tmp_path / "cache"
        store = Store(DirBackend(root, site="test"))
        store.put("k", {"v": 1})
        entry = store.read("k")
        (root / "k.json").write_text("{torn")
        assert entry.body == {"v": 1}

    def test_indented_entry_is_parsed_to_be_verified(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        write_legacy(root / "legacy.json", {"old": True}, indent=2)
        entry = Store(DirBackend(root, site="test")).read("legacy")
        assert entry.parsed and entry.body == {"old": True}


class TestUnreadableEntries:
    """The directory reader opens ``<key>.json`` itself: a present path
    it cannot read is quarantined, counted and read as a miss."""

    def test_directory_at_an_entry_name_is_quarantined(self, tmp_path):
        root = tmp_path / "cache"
        store = Store(DirBackend(root, site="test"))
        (root / "k.json").mkdir()
        with pytest.warns(UserWarning, match="unreadable"):
            assert store.read("k") is None
        assert (root / CORRUPT_DIR / "k.json").is_dir()
        assert not (root / "k.json").exists()
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["store.heal.quarantined"] == 1
        assert counters["store.heal.test"] == 1
        assert counters["store.misses"] == 1
        store.put("k", {"v": 1})  # the name is free again: it heals
        assert store.get("k") == {"v": 1}

    def test_directory_at_a_provenance_name_is_quarantined(self, tmp_path):
        root = tmp_path / "cache"
        store = Store(DirBackend(root, site="test"))
        store.put("k", {"v": 1})
        (root / ".prov" / "k.json").mkdir(parents=True)
        with pytest.warns(UserWarning, match="unreadable"):
            assert store.provenance("k") is None
        assert (root / ".prov" / CORRUPT_DIR / "k.json").is_dir()
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["store.heal.quarantined"] == 1
        assert counters["store.heal.test.prov"] == 1
        assert store.get("k") == {"v": 1}  # the value is untouched
        store.annotate("k", prov(op="execute"))
        assert store.provenance("k").op == "execute"

    def test_missing_sidecar_heals_nothing(self, tmp_path):
        root = tmp_path / "cache"
        store = Store(DirBackend(root, site="test"))
        store.put("k", {"v": 1})
        assert store.provenance("k") is None
        counters = obs.get_metrics().snapshot()["counters"]
        assert not any(name.startswith("store.heal") for name in counters)
        assert not (root / ".prov").exists()


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
