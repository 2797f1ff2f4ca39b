"""The crash-only worker pool under serve's handler: crashes, timeouts,
restarts, telemetry.

Uses cheap ``probe`` jobs plus the ``serve.worker`` fault site, so every
failure mode is deterministic and each test stays fast.
"""

import concurrent.futures
import functools
import sqlite3
import threading
import time

import pytest

from repro import obs
from repro.resilience.faults import FaultPlan, install_plan
from repro.resilience.pool import JobFailed, WorkerCrash, WorkerPool, WorkerTimeout
from repro.serve.workers import execute_job, serve_job

PROBE = {"kind": "probe", "label": "probe"}


def arm(spec: str, tmp_path, seed: int = 0) -> FaultPlan:
    """Install + env-arm a plan with cross-process sentinel counting."""
    plan = FaultPlan.from_spec(spec, seed=seed, scratch_dir=tmp_path / "faults")
    install_plan(plan)
    plan.arm_env()
    return plan


@pytest.fixture
def make_pool():
    """Factory so tests can arm faults *before* the workers fork (workers
    copy the environment at fork time; arming afterwards is invisible)."""
    pools = []

    def factory(workers=2, deadline_s=None, cache_dir=None):
        pool = WorkerPool(
            functools.partial(serve_job, cache_dir=cache_dir),
            workers=workers,
            deadline_s=deadline_s,
            name="serve",
        )
        pool.start()
        pools.append(pool)
        return pool

    yield factory
    for pool in pools:
        pool.shutdown(grace_s=2.0)


@pytest.fixture
def pool(make_pool):
    return make_pool()


class TestHappyPath:
    def test_probe_round_trips(self, pool):
        result = pool.submit(dict(PROBE)).result(timeout=30)
        assert isinstance(result["pid"], int)
        assert result["pid"] != 0

    def test_jobs_fan_out_and_all_complete(self, pool):
        futures = [pool.submit(dict(PROBE)) for _ in range(8)]
        pids = {f.result(timeout=30)["pid"] for f in futures}
        assert pids  # at least one worker served them
        assert pool.completed == 8
        assert pool.snapshot()["queued"] == 0

    def test_worker_metrics_ship_home(self, pool):
        pool.submit(dict(PROBE)).result(timeout=30)
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters.get("serve.jobs.completed") == 1

    def test_unknown_kind_is_job_failure_not_crash(self, pool):
        with pytest.raises(JobFailed, match="unknown job kind"):
            pool.submit({"kind": "nope"}).result(timeout=30)
        assert pool.restarts == 0  # the worker survived


class TestCrashOnly:
    def test_injected_kill_is_a_crash_and_the_pool_recovers(
        self, make_pool, tmp_path
    ):
        arm("serve.worker:kill:times=1", tmp_path)
        pool = make_pool()
        with pytest.raises(WorkerCrash) as excinfo:
            pool.submit(dict(PROBE)).result(timeout=30)
        assert excinfo.value.exitcode == 113  # KILL_EXIT_CODE
        # The replacement worker serves the next job.
        assert pool.submit(dict(PROBE)).result(timeout=30)["pid"]
        assert pool.restarts == 1
        assert pool.crashes == 1

    def test_crash_exception_stays_in_the_worker(self, make_pool, tmp_path):
        arm("serve.worker:crash:times=1", tmp_path)
        pool = make_pool()
        with pytest.raises(JobFailed, match="serve.worker"):
            pool.submit(dict(PROBE)).result(timeout=30)
        assert pool.restarts == 0  # raised, reported, worker lives on
        assert pool.submit(dict(PROBE)).result(timeout=30)["pid"]

    def test_other_inflight_jobs_survive_a_crash(self, make_pool, tmp_path):
        # Exactly one kill, matched to one label: the poisoned job dies,
        # the healthy ones complete on their own workers.
        arm("serve.worker:kill:times=1,match=poison", tmp_path)
        pool = make_pool()
        poisoned = pool.submit({"kind": "probe", "label": "poison"})
        healthy = [
            pool.submit({"kind": "probe", "label": f"ok-{i}"})
            for i in range(4)
        ]
        with pytest.raises(WorkerCrash):
            poisoned.result(timeout=30)
        for future in healthy:
            assert future.result(timeout=30)["pid"]

    def test_idle_dead_worker_is_replaced_without_deadlock(self):
        # Regression: _dispatch used to call _replace while still holding
        # the pool lock (a non-reentrant Lock) when sending to an
        # idle-dead worker failed — wedging the scheduler thread forever.
        # Drive _dispatch directly against a pre-killed idle worker and
        # require it to return and respawn.
        pool = WorkerPool(serve_job, workers=1, name="serve")
        try:
            victim = pool._spawn()
            pool._workers.append(victim)
            victim.proc.kill()
            victim.proc.join()
            pool.submit(dict(PROBE))
            done = threading.Event()

            def run():
                pool._dispatch()
                done.set()

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            assert done.wait(20), "_dispatch deadlocked on an idle-dead worker"
            assert pool.restarts == 1
            assert victim not in pool._workers
            assert len(pool._workers) == 1  # the replacement
        finally:
            pool.shutdown(grace_s=0.2)

    def test_idle_crash_recovers_end_to_end(self, pool):
        # The scheduler route for the same failure: kill a worker while it
        # sits idle between jobs, then keep submitting — the pool must
        # keep serving (no wedge, no lost jobs).
        pids = {pool.submit(dict(PROBE)).result(timeout=30)["pid"]}
        victims = list(pool._workers)
        for worker in victims:
            worker.proc.kill()
        for worker in victims:
            worker.proc.join()  # fully dead before the next dispatch
        for _ in range(4):
            pids.add(pool.submit(dict(PROBE)).result(timeout=30)["pid"])
        assert pool.snapshot()["alive"] >= 1

    def test_deadline_reaps_a_wedged_worker(self, make_pool, tmp_path):
        arm("serve.worker:timeout:times=1,delay=60", tmp_path)
        pool = make_pool(workers=1, deadline_s=0.5)
        with pytest.raises(WorkerTimeout):
            pool.submit(dict(PROBE)).result(timeout=30)
        assert pool.timeouts == 1
        assert pool.restarts == 1
        # The replacement worker is live.
        assert pool.submit(dict(PROBE)).result(timeout=30)["pid"]

    def test_timeout_reports_the_jobs_own_deadline(self, make_pool, tmp_path):
        # Regression: the reaper reported the pool's default deadline
        # (here none, rendered "0s"), not the one the job was submitted
        # with.
        arm("serve.worker:timeout:times=1,delay=60", tmp_path)
        pool = make_pool(workers=1)
        with pytest.raises(WorkerTimeout, match="its 0.5s deadline") as excinfo:
            pool.submit(dict(PROBE), deadline_s=0.5).result(timeout=30)
        assert excinfo.value.deadline_s == 0.5


class TestShutdown:
    def test_shutdown_fails_pending_futures(self):
        pool = WorkerPool(serve_job, workers=1, name="serve")
        pool.start()
        future = pool.submit(dict(PROBE))
        future.result(timeout=30)
        pool.shutdown(grace_s=1.0)
        with pytest.raises(RuntimeError, match="shutting down"):
            pool.submit(dict(PROBE))

    def test_shutdown_grace_delivers_inflight_results(self, tmp_path):
        # Regression: setting _closing used to stop the scheduler loop
        # immediately, so a job that finished *during* the grace window
        # had no one to deliver its result — shutdown spun the full
        # grace, then failed an already-completed job with "pool shut
        # down".  Now the scheduler keeps draining while closing.
        arm("serve.worker:timeout:times=1,delay=0.4", tmp_path)
        pool = WorkerPool(serve_job, workers=1, name="serve")
        pool.start()
        try:
            slow = pool.submit(dict(PROBE))
            t0 = time.monotonic()
            pool.shutdown(grace_s=30.0)
            took = time.monotonic() - t0
            assert slow.result(timeout=5)["pid"]  # delivered, not discarded
            assert took < 10  # went idle after the job, not the full grace
        finally:
            pool.shutdown(grace_s=0.2)

    def test_shutdown_dispatches_queued_jobs_within_grace(self):
        # Jobs accepted before shutdown but not yet dispatched are still
        # run and delivered inside the grace window.
        pool = WorkerPool(serve_job, workers=1, name="serve")
        pool.start()
        try:
            futures = [pool.submit(dict(PROBE)) for _ in range(4)]
            pool.shutdown(grace_s=30.0)
            for future in futures:
                assert future.result(timeout=5)["pid"]
        finally:
            pool.shutdown(grace_s=0.2)

    def test_snapshot_shape(self, pool):
        snap = pool.snapshot()
        assert snap["size"] == 2
        assert set(snap) >= {
            "alive",
            "busy",
            "queued",
            "completed",
            "restarts",
            "crashes",
            "timeouts",
        }


class TestExecuteJob:
    """``execute_job`` runs in-process too (what the workers actually do)."""

    def test_compile_job(self, relax3_spec, tmp_path):
        from repro.serve.protocol import normalize_compile_request

        job = normalize_compile_request({"spec": relax3_spec})
        result = execute_job(job, str(tmp_path / "cache"))
        assert result["spec"] == "relax3"
        assert result["engine_used"] == "interpreter"
        assert [s["name"] for s in result["stages"]][:2] == [
            "parse",
            "dependence",
        ]
        assert result["outputs_sha256"]

    def test_experiment_job(self, tmp_path):
        from repro.serve.protocol import normalize_experiment_request

        job = normalize_experiment_request(
            {"code": "stencil5", "version": "ov", "sizes": {"T": 4, "L": 12}}
        )
        result = execute_job(job, None)
        assert result["task"].startswith("stencil5/ov")
        assert result["result"]["cycles_per_iteration"] > 0


class TestKeptStores:
    """A worker opens its stores on its first job and keeps them; every
    read still verifies its digest, and a failed write leaves the store
    usable for the next job."""

    @staticmethod
    def compile_job(spec):
        from repro.serve.protocol import normalize_compile_request

        return normalize_compile_request({"spec": spec})

    def test_warm_jobs_open_each_store_once(
        self, relax3_spec, tmp_path, monkeypatch
    ):
        from repro.serve.protocol import normalize_experiment_request
        from repro.store.core import Store

        opened = []
        real_open = Store.open.__func__

        def counting(cls, path, site="store"):
            opened.append(site)
            return real_open(cls, path, site=site)

        monkeypatch.setattr(Store, "open", classmethod(counting))
        cache = str(tmp_path / "store.sqlite")
        jobs = [
            self.compile_job(relax3_spec),
            normalize_experiment_request(
                {"code": "stencil5", "version": "ov", "sizes": {"T": 4, "L": 12}}
            ),
        ]
        for _ in range(4):
            results = [execute_job(job, cache) for job in jobs]
        assert sorted(opened) == ["harness.cache", "pipeline.cache"]
        assert all(result["cached"] for result in results)

    def test_directory_store_removed_between_jobs_is_recreated(
        self, relax3_spec, tmp_path
    ):
        import shutil

        cache = tmp_path / "store"
        job = self.compile_job(relax3_spec)
        execute_job(job, str(cache))
        shutil.rmtree(cache)
        assert execute_job(job, str(cache))["cached"] is False
        assert execute_job(job, str(cache))["cached"] is True

    def test_row_corrupted_between_jobs_heals(
        self, make_pool, relax3_spec, tmp_path
    ):
        cache = tmp_path / "store.sqlite"
        pool = make_pool(workers=1, cache_dir=str(cache))
        job = self.compile_job(relax3_spec)
        cold = pool.submit(dict(job)).result(timeout=120)
        parse_key = cold["stages"][0]["key"]
        assert parse_key.startswith("parse-")
        with sqlite3.connect(cache) as conn:
            conn.execute(
                "UPDATE entries SET body = ? WHERE key = ?",
                ('{"tampered": true}', parse_key),
            )
        healed = pool.submit(dict(job)).result(timeout=120)
        cached = {s["name"]: s["cached"] for s in healed["stages"]}
        assert cached.pop("parse") is False  # recomputed
        assert all(cached.values())
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters.get("store.heal.pipeline.cache") == 1
        assert pool.submit(dict(job)).result(timeout=120)["cached"] is True
        assert pool.restarts == 0

    def test_failed_put_leaves_the_store_usable(
        self, make_pool, relax3_spec, tmp_path
    ):
        arm("pipeline.cache.sqlite.put:crash:times=1", tmp_path)
        pool = make_pool(workers=1, cache_dir=str(tmp_path / "store.sqlite"))
        job = self.compile_job(relax3_spec)
        with pytest.raises(JobFailed, match="pipeline.cache.sqlite.put"):
            pool.submit(dict(job)).result(timeout=120)
        cold = pool.submit(dict(job)).result(timeout=120)
        assert cold["cached"] is False  # read (all misses) and wrote
        warm = pool.submit(dict(job)).result(timeout=120)
        assert warm["cached"] is True  # the writes landed
        assert warm["outputs_sha256"] == cold["outputs_sha256"]
        assert pool.restarts == 0  # the same worker served all three
