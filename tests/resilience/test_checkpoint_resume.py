"""Checkpoint stores: a killed run resumes with zero redundant work."""

from repro.codes import get_version
from repro.experiments.harness import (
    SimTask,
    SimulationRunner,
    engine_fingerprint,
)
from repro.machine.configs import PENTIUM_PRO
from repro.store.core import Store

MACHINE = PENTIUM_PRO.scaled(64)


def make_tasks(lengths=(8, 12, 16)):
    version = get_version("stencil5", "ov")
    return [
        SimTask.of(version, {"T": 4, "L": length}, MACHINE)
        for length in lengths
    ]


class TestResume:
    def test_interrupted_run_resumes_with_zero_redundant_sims(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        tasks = make_tasks()

        # "Interrupted" run: only the first two tasks completed.
        partial = SimulationRunner(checkpoint_path=ckpt)
        first = partial.run_tasks(tasks[:2])
        partial.close()  # the kill; the store survives

        resumed = SimulationRunner(checkpoint_path=ckpt, resume=True)
        full = resumed.run_tasks(tasks)
        resumed.close()
        assert resumed.simulated == 1  # only the task the kill interrupted
        assert resumed.resumed == 2
        assert full[:2] == first

    def test_full_resume_simulates_nothing(self, tmp_path):
        ckpt = tmp_path / "ckpt.sqlite"
        tasks = make_tasks()
        writer = SimulationRunner(checkpoint_path=ckpt)
        baseline = writer.run_tasks(tasks)
        writer.close()

        resumed = SimulationRunner(checkpoint_path=ckpt, resume=True)
        replayed = resumed.run_tasks(tasks)
        resumed.close()
        assert resumed.simulated == 0
        assert resumed.resumed == len(tasks)
        assert replayed == baseline

    def test_resume_works_without_a_result_cache(self, tmp_path):
        # --no-cache --checkpoint: the CI chaos smoke relies on this.
        ckpt = tmp_path / "ckpt"
        tasks = make_tasks()
        writer = SimulationRunner(cache_dir=None, checkpoint_path=ckpt)
        writer.run_tasks(tasks)
        writer.close()
        resumed = SimulationRunner(
            cache_dir=None, checkpoint_path=ckpt, resume=True
        )
        resumed.run_tasks(tasks)
        assert resumed.simulated == 0 and resumed.resumed == len(tasks)

    def test_fresh_run_discards_stale_checkpoint(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        tasks = make_tasks(lengths=(8,))
        writer = SimulationRunner(checkpoint_path=ckpt)
        writer.run_tasks(tasks)
        writer.close()
        # No --resume: the next run must not inherit the records.
        fresh = SimulationRunner(checkpoint_path=ckpt)
        fresh.run_tasks(tasks)
        fresh.close()
        assert fresh.simulated == 1 and fresh.resumed == 0

    def test_stale_engine_checkpoint_contributes_nothing(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        (task,) = make_tasks(lengths=(8,))
        with Store.open(ckpt) as store:
            # A dead engine's key: the task's key folds in the engine.
            store.put("0" * 64, {"cycles": -1}, label=task.label)
        resumed = SimulationRunner(checkpoint_path=ckpt, resume=True)
        (result,) = resumed.run_tasks([task])
        resumed.close()
        assert resumed.simulated == 1 and resumed.resumed == 0
        assert result.cycles_per_iteration > 0

    def test_resume_after_torn_line_still_works(self, tmp_path):
        # A corrupt checkpoint entry is quarantined and recomputed; the
        # intact ones still resume.
        ckpt = tmp_path / "ckpt"
        tasks = make_tasks(lengths=(8, 12))
        writer = SimulationRunner(checkpoint_path=ckpt)
        baseline = writer.run_tasks(tasks)
        writer.close()
        entry = ckpt / f"{writer.task_key(tasks[1])}.json"
        entry.write_text(entry.read_text()[:40])
        resumed = SimulationRunner(checkpoint_path=ckpt, resume=True)
        replayed = resumed.run_tasks(tasks)
        resumed.close()
        assert resumed.simulated == 1 and resumed.resumed == 1
        assert replayed == baseline

    def test_checkpoint_meta_records_engine(self, tmp_path):
        # Each entry's provenance records the engine that computed it.
        ckpt = tmp_path / "ckpt"
        tasks = make_tasks(lengths=(8, 12))
        runner = SimulationRunner(checkpoint_path=ckpt)
        runner.run_tasks(tasks)
        runner.close()
        with Store.open(ckpt) as store:
            records = [store.provenance(runner.task_key(t)) for t in tasks]
        assert [r.engine for r in records] == [engine_fingerprint()] * 2
        assert {r.op for r in records} == {"simulate"}
