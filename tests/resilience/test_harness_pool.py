"""The simulation harness on the shared crash-only worker pool.

A batch that needs processes runs on one :class:`WorkerPool` for its
whole length: workers persist across tasks, a hung or dead worker is
replaced without losing the rest of the batch, and the numbers match
the in-process run exactly.
"""

import os

from repro import obs
from repro.codes import get_version
from repro.experiments.harness import SimTask, SimulationRunner
from repro.machine.configs import PENTIUM_PRO, ULTRA_2
from repro.resilience.faults import FaultPlan, install_plan

MACHINE = PENTIUM_PRO.scaled(64)


def tasks_over(lengths, machines=(MACHINE,), passes=1):
    version = get_version("stencil5", "ov")
    return [
        SimTask.of(version, {"T": 4, "L": length}, machine, passes=passes)
        for length in lengths
        for machine in machines
    ]


def arm(spec: str, tmp_path) -> None:
    plan = FaultPlan.from_spec(spec, scratch_dir=tmp_path / "faults")
    install_plan(plan)
    plan.arm_env()


class TestPersistentWorkers:
    def test_a_batch_runs_on_at_most_jobs_workers(self):
        runner = SimulationRunner(jobs=2)
        results = runner.run_tasks(tasks_over(range(8, 56, 4)))
        assert len(results) == 12 and all(results)
        assert runner.simulated == 12
        assert 1 <= len(runner.workers) <= 2
        assert os.getpid() not in runner.workers

    def test_pooled_results_equal_the_in_process_run(self):
        tasks = tasks_over(
            (8, 16, 24), machines=(MACHINE, ULTRA_2.scaled(64)), passes=2
        )
        obs.reset_metrics()
        inline = SimulationRunner().run_tasks(tasks)
        inline_counters = obs.get_metrics().snapshot()["counters"]
        obs.reset_metrics()
        pooled = SimulationRunner(jobs=3, timeout_s=60.0).run_tasks(tasks)
        pooled_counters = obs.get_metrics().snapshot()["counters"]
        assert pooled == inline
        for name in ("simulate.runs", "machine.accesses", "sim.cache.misses"):
            assert pooled_counters[name] == inline_counters[name]


class TestReplacementWorker:
    def test_hung_task_times_out_and_the_batch_goes_on(self, tmp_path):
        # One worker: the task after the hang can only run on the
        # worker the pool spawned to replace the one it killed.
        arm("harness.worker:timeout:times=1,delay=60,match=L=12", tmp_path)
        runner = SimulationRunner(timeout_s=2.0)
        results = runner.run_tasks(tasks_over((8, 12, 16, 20)), strict=False)
        assert results[1] is None
        assert all(results[i] is not None for i in (0, 2, 3))
        (record,) = runner.quarantined
        assert record.error == "timeout"
        assert record.identity["sizes"] == {"T": 4, "L": 12}
        assert record.message == "timed out after 2s"
        assert len(runner.workers) == 2  # the first worker, its replacement
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["harness.worker_restarts"] == 1
