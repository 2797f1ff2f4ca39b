"""Chaos tests against the *live* daemon: a real ``repro serve``
subprocess, real HTTP over localhost, and injected faults.

Determinism comes from the fault grammar, not from sleeps-and-hope:

* ``serve.worker:kill`` makes workers die mid-job (crash-only recovery),
* ``serve.worker:timeout:delay=N`` makes a job *slow* without failing
  (the lever for guaranteed coalescing / guaranteed overload),
* ``serve.toolchain:crash`` poisons the native toolchain (breaker
  degradation),

with ``REPRO_FAULTS_DIR`` giving cross-process ``times=`` accounting.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO / "examples" / "specs" / "relax3.json").read_text())

EXPERIMENTS = [
    {"code": "stencil5", "version": version, "sizes": {"T": 6, "L": 24}}
    for version in ("ov", "natural")
]

BOOT_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 120


def daemon_env(tmp_path, faults=None, seed=0):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_FAULTS_SEED", None)
    env.pop("REPRO_FAULTS_DIR", None)
    if faults:
        env["REPRO_FAULTS"] = faults
        env["REPRO_FAULTS_SEED"] = str(seed)
        env["REPRO_FAULTS_DIR"] = str(tmp_path / "faults")
    return env


class Daemon:
    """Boot ``repro serve`` on an ephemeral port and wait for readiness."""

    def __init__(self, tmp_path, *extra_args, faults=None):
        self.cache = tmp_path / "cache.sqlite"
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--cache-dir",
                str(self.cache),
                *extra_args,
            ],
            env=daemon_env(tmp_path, faults=faults),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        lines = []
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            lines.append(line)
            if "repro-serve listening on http://" in line:
                return int(line.rsplit(":", 1)[1])
        raise RuntimeError(f"daemon never became ready:\n{''.join(lines)}")

    def request(self, method, path, body=None, timeout=REQUEST_TIMEOUT_S):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"content-type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            return response.status, dict(response.getheaders()), json.loads(raw)
        finally:
            conn.close()

    def stats(self):
        status, _, body = self.request("GET", "/stats")
        assert status == 200
        return body

    def stop(self, grace_s=30):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        return self.proc.returncode


@pytest.fixture
def start_daemon(tmp_path):
    daemons = []

    def factory(*extra_args, faults=None):
        d = Daemon(tmp_path, *extra_args, faults=faults)
        daemons.append(d)
        return d

    yield factory
    for d in daemons:
        d.stop(grace_s=10)


def compile_body(seed=0, engine="interpreter"):
    return {"spec": SPEC, "seed": seed, "engine": engine}


def post_in_thread(daemon, path, body, results, index):
    try:
        results[index] = daemon.request("POST", path, body)
    except Exception as exc:  # surfaced by the joining test
        results[index] = exc


def fan_out(daemon, jobs):
    """POST every ``(path, body)`` of ``jobs`` at once; replies in order."""
    results = [None] * len(jobs)
    threads = [
        threading.Thread(
            target=post_in_thread, args=(daemon, path, body, results, i)
        )
        for i, (path, body) in enumerate(jobs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=REQUEST_TIMEOUT_S)
    for r in results:
        if isinstance(r, Exception):
            raise r
        assert r is not None, "a client thread never completed"
    return results


class TestCrashOnlyRecovery:
    def test_worker_kills_yield_zero_500s_and_a_clean_store(
        self, start_daemon, tmp_path
    ):
        # Two kills land somewhere in the fan-out; in-app retries absorb
        # them, so every client still sees a 200.  The experiments make
        # the daemon import modules while the pool respawns the killed
        # workers: a replacement forked mid-import would hang on its
        # first job until the deadline reaped it, were forks not
        # serialised with those imports by the pool's FORK_LOCK.
        daemon = start_daemon(
            "--workers",
            "2",
            "--deadline",
            "15",
            faults="serve.worker:kill:times=2,match=compile",
        )
        results = fan_out(
            daemon,
            [("/compile", compile_body(seed=i)) for i in range(6)]
            + [("/experiment", body) for body in EXPERIMENTS],
        )
        for status, _, body in results:
            assert status == 200, body
            assert body["ok"] is True
        for _, _, body in results[:6]:
            assert body["result"]["outputs_sha256"]
        stats = daemon.stats()
        assert stats["pool"]["timeouts"] == 0
        assert stats["pool"]["restarts"] >= 1
        assert stats["counters"].get("serve.worker_restarts", 0) >= 1
        assert stats["counters"]["serve.requests"] >= 6
        assert daemon.stop() == 0

        # Integrity scan: every artifact the chaos run stored must load.
        from repro.store import Store

        with Store.open(daemon.cache) as store:
            keys = store.keys()
            assert keys, "the run should have populated the store"
            for key in keys:
                assert store.get(key) is not None


class TestCoalescing:
    def test_identical_concurrent_compiles_run_the_pipeline_once(
        self, start_daemon
    ):
        # The leader's worker job sleeps 1.5s (timeout fault = slow, not
        # dead), guaranteeing the followers arrive while it is in flight.
        daemon = start_daemon(
            "--workers",
            "2",
            faults="serve.worker:timeout:times=1,delay=1.5,match=compile",
        )
        body = compile_body(seed=7)
        results = [None] * 5

        leader = threading.Thread(
            target=post_in_thread, args=(daemon, "/compile", body, results, 0)
        )
        leader.start()
        time.sleep(0.5)  # well inside the 1.5s injected slowness
        followers = [
            threading.Thread(
                target=post_in_thread,
                args=(daemon, "/compile", body, results, i),
            )
            for i in range(1, 5)
        ]
        for t in followers:
            t.start()
        for t in [leader, *followers]:
            t.join(timeout=REQUEST_TIMEOUT_S)

        for r in results:
            if isinstance(r, Exception):
                raise r
        statuses = [r[0] for r in results]
        assert statuses == [200] * 5
        flags = [r[2]["coalesced"] for r in results]
        assert flags.count(False) == 1, flags  # exactly one leader
        assert flags.count(True) == 4, flags
        hashes = {r[2]["result"]["outputs_sha256"] for r in results}
        assert len(hashes) == 1  # everyone saw the same pipeline run
        stats = daemon.stats()
        assert stats["counters"]["serve.coalesced"] == 4
        assert stats["coalescer"]["leaders"] == 1


class TestOverload:
    def test_queue_depth_shed_is_a_structured_429(self, start_daemon):
        daemon = start_daemon(
            "--workers",
            "1",
            "--max-inflight",
            "1",
            faults="serve.worker:timeout:times=1,delay=2,match=compile",
        )
        slow = [None]
        t = threading.Thread(
            target=post_in_thread,
            args=(daemon, "/compile", compile_body(seed=1), slow, 0),
        )
        t.start()
        time.sleep(0.6)  # the slow request now owns the only slot
        status, headers, body = daemon.request(
            "POST", "/compile", compile_body(seed=2)
        )
        assert status == 429
        assert body["ok"] is False
        assert body["error"]["code"] == "overloaded"
        assert body["error"]["detail"]["reason"] == "queue-depth"
        assert body["error"]["retry_after_s"] > 0
        retry_after = {k.lower(): v for k, v in headers.items()}["retry-after"]
        assert int(retry_after) >= 1
        t.join(timeout=REQUEST_TIMEOUT_S)
        slow_status, _, slow_body = slow[0]
        assert slow_status == 200, slow_body  # the victim was never harmed
        stats = daemon.stats()
        assert stats["counters"]["serve.shed"] >= 1
        assert stats["counters"]["serve.shed.queue-depth"] >= 1


class TestToolchainDegradation:
    def test_breaker_rewrites_native_to_vectorized_truthfully(
        self, start_daemon
    ):
        # Every native job hits an injected toolchain crash. With a
        # threshold of 1 the first failure opens the breaker; the retry
        # reruns on the vectorized engine and says so.
        daemon = start_daemon(
            "--breaker-threshold",
            "1",
            "--crash-retries",
            "1",
            faults="serve.toolchain:crash",
        )
        status, _, body = daemon.request(
            "POST", "/compile", compile_body(seed=1, engine="native")
        )
        assert status == 200, body
        degradation = body["degradation"]
        assert degradation is not None
        assert degradation["reason"] == "toolchain-breaker-open"
        assert degradation["fallback"] == "vectorized-engine"
        # The vectorized engine may itself fall back to the interpreter
        # for this stencil; the contract is simply "never native".
        assert body["result"]["engine_used"] in ("vectorized", "interpreter")

        # While the breaker is open, later native requests degrade
        # immediately -- no failed dispatch, no 500.
        status, _, body = daemon.request(
            "POST", "/compile", compile_body(seed=2, engine="native")
        )
        assert status == 200, body
        assert body["degradation"]["reason"] == "toolchain-breaker-open"
        stats = daemon.stats()
        assert stats["breakers"]["toolchain"]["state"] == "open"


class TestGracefulDrain:
    def test_sigterm_finishes_inflight_work_then_exits_zero(
        self, start_daemon
    ):
        daemon = start_daemon(
            "--workers",
            "1",
            faults="serve.worker:timeout:times=1,delay=2,match=compile",
        )
        inflight = [None]
        t = threading.Thread(
            target=post_in_thread,
            args=(daemon, "/compile", compile_body(seed=3), inflight, 0),
        )
        t.start()
        time.sleep(0.6)  # the request is mid-job inside the worker
        daemon.proc.send_signal(signal.SIGTERM)

        # New work is refused while the old request keeps running.
        time.sleep(0.2)
        try:
            status, _, body = daemon.request(
                "POST", "/compile", compile_body(seed=4), timeout=5
            )
            assert status == 503
            assert body["error"]["code"] == "draining"
        except OSError:
            pass  # listener already closed: equally correct refusal

        t.join(timeout=REQUEST_TIMEOUT_S)
        status, _, body = inflight[0]
        assert status == 200, body  # the in-flight request was not dropped
        assert daemon.proc.wait(timeout=30) == 0
