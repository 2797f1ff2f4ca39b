"""Migration of the three pre-store cache layouts into the unified
store: in-place annotation, idempotence, warm-hit preservation, and
``--into`` copies (including onto sqlite)."""

from __future__ import annotations

import hashlib
import json

from repro.pipeline.cache import ArtifactCache
from repro.store import SqliteBackend, Store
from repro.store.backend import CORRUPT_DIR
from repro.store.fingerprint import content_hash
from repro.store.migrate import infer_op, migrate_path

SIM_KEY = content_hash({"task": "sim"})  # 64 hex
STAGE_KEY = content_hash({"stage": "x"}, length=24)
SO_KEY = f"run-{content_hash({'so': 'y'}, length=24)}"


class TestInferOp:
    def test_harness_key_is_simulate(self):
        assert infer_op(SIM_KEY) == "simulate"

    def test_pipeline_key_is_the_stage(self):
        assert infer_op(f"execute-{STAGE_KEY}") == "execute"
        assert infer_op(f"uov-search-{STAGE_KEY}") == "uov-search"

    def test_so_key_is_compile_so(self):
        # Checked before the stage pattern: "run-<hex>" must not
        # classify as stage "run".
        assert infer_op(SO_KEY) == "compile-so"

    def test_unrecognised(self):
        assert infer_op("README") is None
        assert infer_op("notes-abc") is None


def write_legacy(path, body, indent=None):
    """A pre-store cache entry, written by hand rather than by the
    store, so the format the store reads is pinned independently."""
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode())
    wrapper = {"schema": 1, "digest": digest.hexdigest()[:16], "body": body}
    path.write_text(json.dumps(wrapper, sort_keys=True, indent=indent))


def seed_legacy(root):
    """One entry per historical cache layout, written the legacy way."""
    root.mkdir(parents=True, exist_ok=True)
    # Harness result cache: compact JSON under the full 64-hex task key.
    write_legacy(root / f"{SIM_KEY}.json", {"series": [1, 2, 3]})
    # Pipeline artifact cache: indent=2 under <stage>-<24 hex>.
    write_legacy(
        root / f"execute-{STAGE_KEY}.json", {"verified": True}, indent=2
    )
    # Native object cache: a bare .so, no wrapper.
    (root / f"{SO_KEY}.so").write_bytes(b"\x7fELF not really")


class TestInPlace:
    def test_annotates_every_layout(self, tmp_path):
        root = tmp_path / "legacy"
        seed_legacy(root)
        report = migrate_path(root)
        assert report["migrated"] == 3
        assert report["by_op"] == {
            "simulate": 1, "execute": 1, "compile-so": 1,
        }
        store = Store.open(root)
        assert store.provenance(SIM_KEY).op == "simulate"
        assert store.provenance(f"execute-{STAGE_KEY}").op == "execute"
        assert store.provenance(SO_KEY).op == "compile-so"
        # Migrated provenance cannot know the producing engine.
        assert store.provenance(SIM_KEY).engine == "unknown"
        # The .so gains a meta entry naming the object file.
        assert store.get(SO_KEY)["file"] == f"{SO_KEY}.so"

    def test_value_bytes_untouched(self, tmp_path):
        root = tmp_path / "legacy"
        seed_legacy(root)
        entries = [root / f"{SIM_KEY}.json", root / f"execute-{STAGE_KEY}.json"]
        before = [path.read_bytes() for path in entries]
        migrate_path(root)
        assert [path.read_bytes() for path in entries] == before
        # The indented pipeline entry reads through the re-hashing check.
        assert Store.open(root).get(f"execute-{STAGE_KEY}") == {
            "verified": True,
        }

    def test_idempotent(self, tmp_path):
        root = tmp_path / "legacy"
        seed_legacy(root)
        migrate_path(root)
        again = migrate_path(root)
        assert again["migrated"] == 0
        assert again["already"] == 4  # 3 seeds + the .so meta entry

    def test_quarantines_corrupt_entries(self, tmp_path):
        root = tmp_path / "legacy"
        seed_legacy(root)
        (root / f"{SIM_KEY}.json").write_text("{ torn")
        report = migrate_path(root)
        assert report["quarantined"] == 1
        assert report["migrated"] == 2
        assert (root / CORRUPT_DIR / f"{SIM_KEY}.json").exists()

    def test_skips_unrecognised_files(self, tmp_path):
        root = tmp_path / "legacy"
        seed_legacy(root)
        write_legacy(root / "checkpoint-meta.json", {"x": 1})
        report = migrate_path(root)
        assert report["unrecognised"] >= 1

    def test_pipeline_cache_still_warm_hits(self, tmp_path):
        """The acceptance property: migration must not cost a single
        warm hit through the historical key scheme."""
        root = tmp_path / "pipeline"
        cache = ArtifactCache(root)
        cache.store("execute", STAGE_KEY, {"verified": True, "cycles": 9})
        migrate_path(root)
        rewarmed = ArtifactCache(root)
        assert rewarmed.load("execute", STAGE_KEY) == {
            "verified": True, "cycles": 9,
        }
        assert rewarmed.provenance("execute", STAGE_KEY).op == "execute"


class TestInto:
    def test_copy_into_directory(self, tmp_path):
        root = tmp_path / "legacy"
        seed_legacy(root)
        target = tmp_path / "unified"
        report = migrate_path(root, into=target)
        assert report["into"] == str(target)
        assert report["migrated"] == 3
        store = Store.open(target)
        assert store.get(SIM_KEY) == {"series": [1, 2, 3]}
        assert store.get(f"execute-{STAGE_KEY}") == {"verified": True}
        assert store.provenance(SIM_KEY).extra["migrated_from"] == str(root)

    def test_copy_into_sqlite(self, tmp_path):
        root = tmp_path / "legacy"
        seed_legacy(root)
        target = tmp_path / "unified.sqlite"
        report = migrate_path(root, into=target)
        assert report["migrated"] == 3
        store = Store(SqliteBackend(target))
        assert store.get(SIM_KEY) == {"series": [1, 2, 3]}
        assert store.provenance(SO_KEY).op == "compile-so"
        assert {i.op for i in store.query()} == {
            "simulate", "execute", "compile-so",
        }
        store.close()

    def test_source_untouched_by_copy(self, tmp_path):
        root = tmp_path / "legacy"
        seed_legacy(root)
        before = sorted(p.name for p in root.iterdir())
        migrate_path(root, into=tmp_path / "unified")
        assert sorted(p.name for p in root.iterdir()) == before

    def test_missing_source_raises(self, tmp_path):
        import pytest

        with pytest.raises(FileNotFoundError):
            migrate_path(tmp_path / "nope")
