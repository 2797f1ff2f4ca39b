"""SimulationRunner: caching, fan-out, and key hygiene."""

import json

import pytest

from repro.codes import get_version, get_versions
from repro.execution.simulator import simulate
from repro.experiments.harness import (
    SimTask,
    SimulationRunner,
    engine_fingerprint,
    get_runner,
    set_runner,
)
from repro.experiments.perf import overhead_point, sweep
from repro.machine.configs import PENTIUM_PRO, ULTRA_2

SIZES = {"T": 6, "L": 24}
MACHINE = PENTIUM_PRO.scaled(64)


@pytest.fixture
def version():
    return get_version("stencil5", "ov")


class TestRunner:
    def test_matches_direct_simulation(self, version):
        runner = SimulationRunner()
        result = runner.run(version, SIZES, MACHINE)
        direct = simulate(version, SIZES, MACHINE)
        assert result == direct
        assert runner.simulated == 1 and runner.cache_hits == 0

    def test_warm_cache_runs_zero_simulations(self, version, tmp_path):
        tasks = [
            SimTask.of(version, {"T": 6, "L": length}, MACHINE)
            for length in (16, 24, 32)
        ]
        cold = SimulationRunner(cache_dir=tmp_path)
        first = cold.run_tasks(tasks)
        assert cold.simulated == 3 and cold.cache_hits == 0

        warm = SimulationRunner(cache_dir=tmp_path)
        second = warm.run_tasks(tasks)
        assert warm.simulated == 0 and warm.cache_hits == 3
        assert second == first

    def test_cached_result_round_trips_exactly(self, version, tmp_path):
        runner = SimulationRunner(cache_dir=tmp_path)
        first = runner.run(version, SIZES, MACHINE, passes=2)
        again = SimulationRunner(cache_dir=tmp_path).run(
            version, SIZES, MACHINE, passes=2
        )
        assert again == first  # dataclass equality: every field, stats too

    def test_corrupt_cache_entry_is_a_miss(self, version, tmp_path):
        runner = SimulationRunner(cache_dir=tmp_path)
        runner.run(version, SIZES, MACHINE)
        (cache_file,) = tmp_path.glob("*.json")
        cache_file.write_text("{not json")
        rerun = SimulationRunner(cache_dir=tmp_path)
        rerun.run(version, SIZES, MACHINE)
        assert rerun.simulated == 1
        assert json.loads(cache_file.read_text())  # rewritten clean

    def test_process_pool_matches_in_process(self, version):
        tasks = [
            SimTask.of(version, {"T": 6, "L": length}, machine)
            for length in (16, 24)
            for machine in (MACHINE, ULTRA_2.scaled(64))
        ]
        serial = SimulationRunner(jobs=1).run_tasks(tasks)
        parallel = SimulationRunner(jobs=2).run_tasks(tasks)
        assert parallel == serial


class TestTelemetry:
    def test_counts_hits_misses_and_wall_time(self, version, tmp_path):
        runner = SimulationRunner(cache_dir=tmp_path)
        task = SimTask.of(version, SIZES, MACHINE)
        runner.run_tasks([task])
        runner.run_tasks([task])  # second batch hits the cache
        t = runner.telemetry()
        assert t["simulated"] == 1 and t["cache_hits"] == 1
        assert t["tasks"] == 2 and t["hit_rate"] == 0.5
        assert t["sim_wall_s"] > 0
        assert t["workers"]  # the in-process "worker" counts
        (slowest,) = t["slowest"]
        assert slowest["task"] == task.label
        assert slowest["wall_s"] == pytest.approx(t["sim_wall_s"])

    def test_empty_runner_telemetry(self):
        t = SimulationRunner().telemetry()
        assert t["tasks"] == 0 and t["hit_rate"] is None
        assert t["slowest"] == []

    def test_slowest_keeps_a_bounded_top_k(self, version, tmp_path):
        runner = SimulationRunner(cache_dir=tmp_path)
        tasks = [
            SimTask.of(version, {"T": 6, "L": length}, MACHINE)
            for length in range(8, 8 + 4 * (runner.SLOWEST_KEPT + 2), 4)
        ]
        runner.run_tasks(tasks)
        t = runner.telemetry()
        assert len(t["slowest"]) == runner.SLOWEST_KEPT
        walls = [entry["wall_s"] for entry in t["slowest"]]
        assert walls == sorted(walls, reverse=True)

    def test_task_label_is_human_readable(self, version):
        task = SimTask.of(version, SIZES, MACHINE)
        assert task.label == f"stencil5/ov L=24,T=6 @{MACHINE.name}"

    def test_machine_stats_reach_the_metrics_registry(self, version):
        from repro import obs

        obs.reset_metrics()
        try:
            SimulationRunner().run(version, SIZES, MACHINE)
            counters = obs.get_metrics().snapshot()["counters"]
            assert counters["simulate.runs"] == 1
            assert counters["machine.accesses"] > 0
            assert counters["sim.cache.misses"] == 1
        finally:
            obs.reset_metrics()


class TestTaskKey:
    def test_key_ignores_sizes_insertion_order(self, version):
        runner = SimulationRunner()
        a = SimTask.of(version, {"T": 6, "L": 24}, MACHINE)
        b = SimTask.of(version, {"L": 24, "T": 6}, MACHINE)
        assert runner.task_key(a) == runner.task_key(b)

    def test_key_separates_everything_else(self, version):
        runner = SimulationRunner()
        base = SimTask.of(version, SIZES, MACHINE)
        variants = [
            SimTask.of(version, {"T": 6, "L": 32}, MACHINE),
            SimTask.of(version, SIZES, ULTRA_2.scaled(64)),
            SimTask.of(version, SIZES, MACHINE.scaled(2)),
            SimTask.of(version, SIZES, MACHINE, passes=2),
            SimTask.of(version, SIZES, MACHINE, seed=1),
            SimTask.of(
                get_version("stencil5", "natural"), SIZES, MACHINE
            ),
        ]
        keys = {runner.task_key(t) for t in variants}
        assert runner.task_key(base) not in keys
        assert len(keys) == len(variants)

    def test_engine_fingerprint_is_stable(self):
        assert engine_fingerprint() == engine_fingerprint()
        assert len(engine_fingerprint()) == 16


class TestPerfDrivers:
    def test_sweep_uses_the_cache(self, tmp_path):
        versions = list(get_versions("stencil5").values())[:2]
        sizes_list = [{"T": 6, "L": 16}, {"T": 6, "L": 24}]
        lines = []
        cold = SimulationRunner(cache_dir=tmp_path)
        g1 = sweep(
            versions,
            sizes_list,
            [MACHINE],
            lambda s: s["L"],
            progress=lines.append,
            runner=cold,
        )
        assert cold.simulated == 4
        assert len(lines) == 4  # progress still fires per point
        warm = SimulationRunner(cache_dir=tmp_path)
        g2 = sweep(
            versions, sizes_list, [MACHINE], lambda s: s["L"], runner=warm
        )
        assert warm.simulated == 0 and warm.cache_hits == 4
        for s1, s2 in zip(g1[MACHINE.name], g2[MACHINE.name]):
            assert s1.xs == s2.xs and s1.ys == s2.ys

    def test_overhead_point_shape(self):
        versions = list(get_versions("stencil5").values())[:2]
        out = overhead_point(versions, SIZES, [MACHINE])
        assert set(out) == {MACHINE.name}
        assert set(out[MACHINE.name]) == {v.key for v in versions}

    def test_default_runner_is_swappable(self):
        original = get_runner()
        try:
            runner = SimulationRunner()
            assert set_runner(runner) is original
            assert get_runner() is runner
        finally:
            set_runner(original)


class TestWorkerObservability:
    """Worker-process metrics must reach the parent registry (merged,
    not double-counted) — previously only the machine.* slice survived
    the pipe."""

    def test_worker_counters_merge_into_parent(self, version):
        from repro import obs

        obs.reset_metrics()
        try:
            tasks = [
                SimTask.of(version, {"T": 6, "L": length}, MACHINE)
                for length in (16, 24, 32)
            ]
            SimulationRunner(jobs=2).run_tasks(tasks)
            counters = obs.get_metrics().snapshot()["counters"]
            # Each task's worker registry merges back: exactly 3 runs,
            # no double count.
            assert counters["simulate.runs"] == 3
            assert counters["machine.accesses"] > 0
            assert counters["simulate.iterations"] > 0  # non-machine.* too
        finally:
            obs.reset_metrics()

    def test_worker_and_inprocess_counters_agree(self, version):
        from repro import obs

        tasks = [
            SimTask.of(version, {"T": 6, "L": length}, MACHINE)
            for length in (16, 24)
        ]
        obs.reset_metrics()
        SimulationRunner(jobs=1).run_tasks(tasks)
        serial = obs.get_metrics().snapshot()["counters"]
        obs.reset_metrics()
        SimulationRunner(jobs=2).run_tasks(tasks)
        parallel = obs.get_metrics().snapshot()["counters"]
        obs.reset_metrics()
        assert parallel["machine.accesses"] == serial["machine.accesses"]
        assert parallel["simulate.runs"] == serial["simulate.runs"]

    def test_worker_dedup_keys_merge(self, version):
        from repro import obs

        obs.reset()
        try:
            # Merging a worker's seen-keys means the parent will not
            # re-emit a warning the worker already issued.
            obs.merge_dedup([("native-fallback", "stencil5", "no-toolchain")])
            assert (
                "native-fallback",
                "stencil5",
                "no-toolchain",
            ) in obs.seen_keys()
        finally:
            obs.reset()
