"""Self-healing caches: digests, quarantine, atomic writes.

Both on-disk caches (the harness's simulation-result cache and the
pipeline's ArtifactCache) must detect a corrupted entry on read, move it
to ``.corrupt/``, recompute a bit-identical replacement, and keep going.
"""

import dataclasses
import json

import pytest

from repro import obs
from repro.codes import get_spec, get_version
from repro.experiments.harness import SimTask, SimulationRunner
from repro.machine.configs import PENTIUM_PRO
from repro.pipeline import ArtifactCache, compile_spec
from repro.resilience.faults import FaultPlan, install_plan
from repro.store import DirBackend, content_hash
from repro.store.backend import CORRUPT_DIR

SIZES = {"T": 4, "L": 12}
MACHINE = PENTIUM_PRO.scaled(64)


class TestPrimitives:
    def test_write_read_round_trip(self, tmp_path):
        backend = DirBackend(tmp_path, site="t")
        body = {"a": [1, 2, 3], "b": "x"}
        backend.put("entry", body)
        assert backend.get("entry") == body
        wrapper = json.loads((tmp_path / "entry.json").read_text())
        assert wrapper["digest"] == content_hash(body, length=16)

    def test_missing_file_is_a_silent_miss(self, tmp_path):
        assert DirBackend(tmp_path, site="t").get("absent") is None
        assert not (tmp_path / CORRUPT_DIR).exists()

    @pytest.mark.parametrize(
        "corruption",
        [
            "{not json",
            '{"schema": 1, "body": {}}',  # no digest
            '{"schema": 99, "digest": "x", "body": {}}',  # wrong schema
            '{"schema": 1, "digest": "0000", "body": {"a": 1}}',  # mismatch
            '"just a string"',
        ],
    )
    def test_every_corruption_class_quarantines(self, tmp_path, corruption):
        path = tmp_path / "entry.json"
        path.write_text(corruption)
        with pytest.warns(UserWarning, match="corrupt cache entry"):
            assert DirBackend(tmp_path, site="t").get("entry") is None
        assert not path.exists()
        assert (tmp_path / CORRUPT_DIR / "entry.json").read_text() == corruption

    def test_no_tmp_droppings_after_write(self, tmp_path):
        path = tmp_path / "entry.json"
        DirBackend(tmp_path, site="t").put("entry", {"k": 1})
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != path.name]
        assert leftovers == []


class TestHarnessCacheHealing:
    def test_corrupt_entry_recomputed_bit_identical(self, tmp_path):
        task = SimTask.of(get_version("stencil5", "ov"), SIZES, MACHINE)
        first = SimulationRunner(cache_dir=tmp_path)
        first.run_tasks([task])
        (entry,) = tmp_path.glob("*.json")
        pristine = entry.read_bytes()
        entry.write_bytes(pristine[: len(pristine) // 2])
        healed = SimulationRunner(cache_dir=tmp_path)
        with pytest.warns(UserWarning, match="quarantined"):
            healed.run_tasks([task])
        assert healed.simulated == 1  # the miss was recomputed...
        assert entry.read_bytes() == pristine  # ...bit-identical
        assert (tmp_path / CORRUPT_DIR / entry.name).exists()

    def test_injected_corruption_heals_end_to_end(self, tmp_path):
        cache = tmp_path / "cache"
        install_plan(FaultPlan.from_spec("harness.cache.store:corrupt"))
        task = SimTask.of(get_version("stencil5", "ov"), SIZES, MACHINE)
        writer = SimulationRunner(cache_dir=cache)
        (clean,) = writer.run_tasks([task])
        reader = SimulationRunner(cache_dir=cache)
        with pytest.warns(UserWarning, match="quarantined"):
            (recomputed,) = reader.run_tasks([task])
        assert reader.simulated == 1 and recomputed == clean
        # Third run: the healed entry hits cleanly.
        third = SimulationRunner(cache_dir=cache)
        (hit,) = third.run_tasks([task])
        assert third.cache_hits == 1 and hit == clean

    def test_corrupt_counter_fires(self, tmp_path):
        task = SimTask.of(get_version("stencil5", "ov"), SIZES, MACHINE)
        SimulationRunner(cache_dir=tmp_path).run_tasks([task])
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("junk")
        obs.reset()
        with pytest.warns(UserWarning):
            SimulationRunner(cache_dir=tmp_path).run_tasks([task])
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["resilience.cache.corrupt"] == 1


class TestPipelineCacheHealing:
    def test_corrupt_artifact_recomputed_bit_identical(self, tmp_path):
        spec = dataclasses.replace(get_spec("stencil5"), uov=None)
        compile_spec(spec, execute=False, cache=ArtifactCache(tmp_path))
        target = next(tmp_path.glob("uov-search-*.json"))
        pristine = target.read_bytes()
        target.write_text("{torn")
        fresh = ArtifactCache(tmp_path)  # new memory layer: disk is read
        with pytest.warns(UserWarning, match="quarantined"):
            result = compile_spec(spec, execute=False, cache=fresh)
        assert "uov-search" in result.stages_run
        assert target.read_bytes() == pristine
        assert (tmp_path / CORRUPT_DIR / target.name).exists()

    def test_injected_corruption_on_store(self, tmp_path):
        spec = dataclasses.replace(get_spec("stencil5"), uov=None)
        install_plan(
            FaultPlan.from_spec("pipeline.cache.store:corrupt:match=parse")
        )
        compile_spec(spec, execute=False, cache=ArtifactCache(tmp_path))
        with pytest.warns(UserWarning, match="quarantined"):
            result = compile_spec(
                spec, execute=False, cache=ArtifactCache(tmp_path)
            )
        assert "parse" in result.stages_run  # healed by recomputation
        third = compile_spec(spec, execute=False, cache=ArtifactCache(tmp_path))
        assert third.stages_run == []  # fully healed: everything hits

    def test_atomic_writes_leave_no_tmp_files(self, tmp_path):
        spec = get_spec("stencil5")
        compile_spec(spec, execute=False, cache=ArtifactCache(tmp_path))
        assert not list(tmp_path.glob("*.tmp"))
