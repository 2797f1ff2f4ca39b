"""The result cache is the checkpoint: a killed run re-run on the same
cache resumes with zero redundant work, on either store backend."""

import sqlite3

from repro.codes import get_version
from repro.experiments import harness
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


def run_once(cache, tasks):
    """One run of ``tasks`` on ``cache``: the runner and its results."""
    runner = SimulationRunner(cache_dir=cache)
    try:
        return runner, runner.run_tasks(tasks)
    finally:
        runner.close()  # as a kill would leave it: the store survives


class TestResume:
    """On a directory cache; :class:`TestResumeSqlite` runs every test
    again on a ``*.sqlite`` cache."""

    CACHE = "cache"

    @staticmethod
    def tear(cache, key):
        """Cut the entry under ``key`` short, as a torn write would."""
        entry = cache / f"{key}.json"
        entry.write_text(entry.read_text()[:40])

    def test_interrupted_run_resumes_with_zero_redundant_sims(self, tmp_path):
        cache = tmp_path / self.CACHE
        tasks = make_tasks()
        # "Interrupted" run: only the first two tasks completed.
        _, first = run_once(cache, tasks[:2])

        resumed, full = run_once(cache, tasks)
        assert resumed.simulated == 1  # only the task the kill interrupted
        assert resumed.cache_hits == 2
        assert full[:2] == first

    def test_full_resume_simulates_nothing(self, tmp_path):
        cache = tmp_path / self.CACHE
        tasks = make_tasks()
        _, baseline = run_once(cache, tasks)

        resumed, replayed = run_once(cache, tasks)
        assert resumed.simulated == 0
        assert resumed.cache_hits == len(tasks)
        assert replayed == baseline

    def test_stale_engine_checkpoint_contributes_nothing(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / self.CACHE
        tasks = make_tasks(lengths=(8,))
        # A dead engine's entry: keys fold in the engine fingerprint.
        with monkeypatch.context() as patch:
            patch.setattr(harness, "engine_fingerprint", lambda: "dead")
            run_once(cache, tasks)
        with Store.open(cache) as store:
            assert len(store.keys()) == 1

        current, (result,) = run_once(cache, tasks)
        assert current.simulated == 1 and current.cache_hits == 0
        assert result.cycles_per_iteration > 0

    def test_resume_after_torn_line_still_works(self, tmp_path):
        # A torn entry is healed and is the only one recomputed; the
        # intact one still resumes.
        cache = tmp_path / self.CACHE
        tasks = make_tasks(lengths=(8, 12))
        writer, baseline = run_once(cache, tasks)
        self.tear(cache, writer.task_key(tasks[1]))

        resumed, replayed = run_once(cache, tasks)
        assert resumed.simulated == 1 and resumed.cache_hits == 1
        assert replayed == baseline

    def test_checkpoint_meta_records_engine(self, tmp_path):
        # Each entry's provenance records the engine that computed it.
        cache = tmp_path / self.CACHE
        tasks = make_tasks(lengths=(8, 12))
        runner, _ = run_once(cache, tasks)
        with Store.open(cache) as store:
            records = [store.provenance(runner.task_key(t)) for t in tasks]
        assert [r.engine for r in records] == [engine_fingerprint()] * 2
        assert {r.op for r in records} == {"simulate"}


class TestResumeSqlite(TestResume):
    CACHE = "cache.sqlite"

    @staticmethod
    def tear(cache, key):
        conn = sqlite3.connect(str(cache))
        conn.execute(
            "UPDATE entries SET body = substr(body, 1, 40) WHERE key = ?",
            (key,),
        )
        conn.commit()
        conn.close()
