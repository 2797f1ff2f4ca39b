"""serve-paced: ``repro serve`` under a paced closed loop of two clients.

Why: the daemon is the third way users reach the system, and its warm
path is almost all overhead — HTTP, admission control, coalescing, the
worker-pool IPC and store reads — with almost no compute, which no other
workload exercises.

Each daemon runs with its default admission settings, two workers, a
fresh sqlite store and a fresh native ``.so`` cache.  Two client threads
(``nproc`` is 2 on the machine this was written for) each send one
request at a time and wait for the reply (a closed loop), taking turns
on one schedule of 48 sends per second (see :func:`drive`): the default
admission rate is 50 requests/s, and a free-running closed loop would be
shed with 429s instead of measured.
One round is 19 distinct requests:

- ``/compile`` (with lint and codegen, as compile-specs) of stencil5,
  jacobi, simple2d and the two example specs, each on the three engines
  (psm is left out: its spec names the ``psm`` combine hook, which a
  spec sent to the daemon cannot resolve);
- ``/experiment`` on four simulation points, psm included.

The seed feeds every request's ``seed`` field.  Each of the run's five
daemons is timed from spawn to ``/readyz`` 200, serves one cold round
from one client, one untimed warm round, and timed warm rounds for its
share of ``--seconds`` (at least 209 requests, so 1000 or more per run).
Cold requests take hundreds of milliseconds each; sent by two clients,
they overlapped, contended for the two CPUs, and spread ``cold_s`` by
12% between runs.  ``cold_s`` and ``warm_s`` are a round's summed
request latency (the median over daemons of the cold round, and the
median warm round): wall time would measure the pacing.  Warm rounds and
``p50_ms``/``p90_ms`` are over the timed warm requests of all the
daemons.  Latencies are in reference seconds (``common.HostClock``); the
clock's calibration loop runs only while no request is in flight.

Correct means: every response is a 200 (a 429 counts as a failure);
every compile's ``outputs_sha256`` is the same on all three engines and
equals golden.json where the seed has one; every experiment's
``AccessStats`` equals a direct ``simulate()`` of the same point; and
SIGTERM drains each daemon to exit code 0.
"""

from __future__ import annotations

import http.client
import json
import math
import re
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

from common import (
    ROOT,
    Child,
    Context,
    HostClock,
    Outcome,
    child_args,
    child_env,
    emit,
    percentile,
    ready,
    terminate,
)

MODULE = Path(__file__).resolve()
#: Daemons per run, as the other workloads' SPAWNS.  With three, the
#: run-to-run spread of cold_s, warm_s and p50_ms was 10-12%.
DAEMONS = 5
CLIENTS = 2
RATE_PER_CLIENT = 24.0
#: Per daemon: at least 1000 latency samples per run of DAEMONS daemons.
MIN_WARM_REQUESTS = 200
COMPILE_CODES = ("stencil5", "jacobi", "simple2d")
EXAMPLE_SPECS = ("heat7", "relax3")
ENGINES = ("interpreter", "vectorized", "native")
#: (label, code, version, sizes, machine)
EXPERIMENTS = (
    ("psm-ovtiled-n128-ppro", "psm", "ov-tiled",
     {"n0": 128, "n1": 128, "tile_h": 16, "tile_w": 16}, "pentium-pro"),
    ("s5-ovtiled-L4096-alpha", "stencil5", "ov-tiled",
     {"T": 16, "L": 4096, "tile_h": 16, "tile_w": 32}, "alpha-21164"),
    ("s5-natural-L4096-ppro", "stencil5", "natural",
     {"T": 16, "L": 4096}, "pentium-pro"),
    ("jacobi-ov-L4096-ultra2", "jacobi", "ov", {"T": 16, "L": 4096},
     "ultra-2"),
)
ANNOUNCE = re.compile(r"listening on http://[^:]+:(\d+)")


# -- child side (imports repro): request bodies and the oracle ------------


def child_main(argv=None) -> None:
    args = child_args(argv)
    from dataclasses import asdict

    from repro.codes import get_spec, get_version
    from repro.execution.simulator import simulate
    from repro.machine import MACHINES

    ready()
    specs = [(name, get_spec(name).to_json()) for name in COMPILE_CODES]
    specs += [
        (name, json.loads(
            (ROOT / "examples" / "specs" / f"{name}.json").read_text()))
        for name in EXAMPLE_SPECS
    ]
    machines = {m.name: m for m in MACHINES}
    requests = [
        {"kind": "compile", "label": name, "engine": engine,
         "body": {"spec": spec, "seed": args.seed, "engine": engine,
                  "lint": True, "codegen": True}}
        for name, spec in specs
        for engine in ENGINES
    ]
    oracle = {}
    for label, code, key, sizes, machine in EXPERIMENTS:
        requests.append({
            "kind": "experiment", "label": label,
            "body": {"code": code, "version": key, "sizes": sizes,
                     "machine": machine, "seed": args.seed},
        })
        result = simulate(get_version(code, key), sizes, machines[machine],
                          seed=args.seed)
        oracle[label] = asdict(result.stats)
    emit({"requests": requests, "oracle": oracle})


# -- orchestrator side (standard library only) ----------------------------


class Daemon:
    """One ``repro serve`` process in ``work``, timed from spawn to
    ``/readyz`` 200 (``setup_s``, reference seconds)."""

    def __init__(self, work: Path, clock: HostClock, log):
        work.mkdir()
        announce = work / "serve.out"
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", "2", "--cache-dir", str(work / "store.sqlite")]
        clock.calibrate(3)
        t0 = time.perf_counter()
        with open(announce, "w") as out:
            self.proc = subprocess.Popen(argv, env=child_env(work), cwd=ROOT,
                                         stdout=out, stderr=log)
        try:
            self.port = self._await_port(announce, t0 + 60)
            while _get(self.port, "/readyz")[0] != 200:
                self._tick(t0 + 60)
        except BaseException:
            self.stop()
            raise
        t1 = time.perf_counter()
        clock.calibrate(3)
        self.setup_s = clock.seconds(t0, t1)

    def _tick(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"daemon exited {self.proc.returncode}")
        if time.perf_counter() > deadline:
            raise RuntimeError("daemon never became ready")
        time.sleep(0.005)

    def _await_port(self, announce: Path, deadline: float) -> int:
        while True:
            match = ANNOUNCE.search(announce.read_text())
            if match:
                return int(match.group(1))
            self._tick(deadline)

    def stop(self) -> int:
        return terminate(self.proc)


def _request(port: int, method: str, path: str, payload=None):
    """(status, parsed body, (start, end)); status 0 on a transport
    error."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    t0 = time.perf_counter()
    try:
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        span = (t0, time.perf_counter())
        return response.status, json.loads(raw), span
    except (OSError, http.client.HTTPException, ValueError):
        return 0, None, (t0, time.perf_counter())
    finally:
        conn.close()


def _get(port: int, path: str):
    return _request(port, "GET", path)


class Gate:
    """Keeps the calibration loop and requests apart.

    Requests may overlap each other, never a calibration.  A pending
    calibration holds back new requests until the ones in flight finish,
    so it runs every ``period`` even while the clients are busy; a held
    request is sent late, and its latency counts from when it is sent.
    """

    def __init__(self):
        self._cv = threading.Condition()
        self._active = 0
        self._calibrating = False

    @contextmanager
    def request(self):
        with self._cv:
            while self._calibrating:
                self._cv.wait()
            self._active += 1
        try:
            yield
        finally:
            with self._cv:
                self._active -= 1
                self._cv.notify_all()

    @contextmanager
    def exclusive(self):
        with self._cv:
            self._calibrating = True
            while self._active:
                self._cv.wait()
        try:
            yield
        finally:
            with self._cv:
                self._calibrating = False
                self._cv.notify_all()


def drive(port: int, plan: list[dict], clock: HostClock,
          clients: int = CLIENTS) -> tuple[float, list]:
    """Send ``plan`` through ``clients`` paced closed-loop clients while
    another thread calibrates ``clock`` between requests.

    Request ``i`` is due ``i / (clients * RATE_PER_CLIENT)`` seconds after
    the start and goes to whichever client is free; a client sends it
    when it is due, or at once if its previous reply came late.  So the
    clients' requests alternate instead of colliding: two clients each
    paced on their own drift into and out of phase, and how often their
    requests overlapped would then change from run to run.

    Returns the wall time and one ``(status, body, span)`` per request,
    in plan order.
    """
    results: list = [None] * len(plan)
    payloads = [json.dumps(item["body"]) for item in plan]
    cursor = iter(range(len(plan)))
    lock = threading.Lock()
    gate = Gate()
    done = threading.Event()
    interval = 1.0 / (clients * RATE_PER_CLIENT)

    def client() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            wait = t0 + i * interval - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            path = "/compile" if plan[i]["kind"] == "compile" else "/experiment"
            with gate.request():
                results[i] = _request(port, "POST", path, payloads[i])

    def calibrator() -> None:
        while not done.wait(clock.period):
            with gate.exclusive():
                clock.calibrate()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    calibrating = threading.Thread(target=calibrator)
    clock.calibrate()
    t0 = time.perf_counter()
    calibrating.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
    wall = time.perf_counter() - t0
    done.set()
    calibrating.join(timeout=10)
    clock.calibrate(3)
    if any(thread.is_alive() for thread in (*threads, calibrating)):
        raise RuntimeError("a load-generator thread never finished")
    return wall, results


def _check(out: Outcome, plan, results, oracle, golden_hashes, reference,
           phase: str) -> None:
    for item, (status, body, _) in zip(plan, results):
        what = f"{phase} {item['kind']} {item['label']}"
        if item["kind"] == "compile":
            what += f" on {item['engine']}"
        if status != 200:
            out.check(False, f"{what}: HTTP {status} {body}")
            continue
        result = body["result"]
        if item["kind"] == "compile":
            got = result["outputs_sha256"]
            want = reference.setdefault(item["label"], got)
            if golden_hashes is not None:
                want = golden_hashes[item["label"]]
        else:
            got = result["result"]["stats"]
            want = oracle[item["label"]]
        out.check(got == want, f"{what}: got {got}, want {want}")


def run(ctx: Context) -> Outcome:
    out = Outcome()
    clock = HostClock()
    helper_work = ctx.work / "inputs"
    helper_work.mkdir()
    helper = Child(
        [sys.executable, "-u", str(MODULE), "child", "--seed", str(ctx.seed),
         "--seconds", "0", "--work", str(helper_work)],
        helper_work,
    )
    inputs = helper.result(timeout=120)
    plan, oracle = inputs["requests"], inputs["oracle"]
    golden = (ctx.golden or {}).get(str(ctx.seed))
    golden_hashes = golden["compile"] if golden else None
    reference: dict = {}

    def check(results, phase, items=plan):
        _check(out, items, results, oracle, golden_hashes, reference, phase)

    spawns = 1 if ctx.trace else DAEMONS
    rounds = max(
        math.ceil(MIN_WARM_REQUESTS / len(plan)),
        math.ceil(ctx.seconds / spawns * CLIENTS * RATE_PER_CLIENT
                  / len(plan)),
    )
    timed = plan * rounds
    setups, colds, warms = [], [], []
    with open(ctx.work / "serve.log", "ab") as log:
        for i in range(spawns):
            daemon = Daemon(ctx.work / f"serve{i}", clock, log)
            setups.append(daemon.setup_s)
            try:
                cold_wall, cold = drive(daemon.port, plan, clock, clients=1)
                check(cold, "cold")
                colds.append(cold)
                check(drive(daemon.port, plan, clock)[1], "warm")
                _, warm = drive(daemon.port, timed, clock)
                check(warm, "warm", timed)
                warms.append(warm)
                stats = _get(daemon.port, "/stats")[1]
            finally:
                code = daemon.stop()
            out.check(code == 0, f"SIGTERM drain exited {code}")
    out.outputs = {
        "compile": dict(reference),
        "experiment": {
            item["label"]: body["result"]["result"]["stats"]
            for item, (status, body, _) in zip(plan, colds[0])
            if item["kind"] == "experiment" and status == 200
        },
    }

    latencies = [clock.seconds(*r[2]) for warm in warms for r in warm]
    by_kind = {
        kind: [lat for item, lat in zip(timed * len(warms), latencies)
               if item["kind"] == kind]
        for kind in ("compile", "experiment")
    }
    out.notes.append(
        f"{len(plan)} requests per round; last cold round {cold_wall:.2f}s "
        f"wall; {len(latencies)} timed warm requests from {len(warms)} "
        f"daemon(s) (latency samples): "
        f"compile p50 {1e3 * percentile(by_kind['compile'], 50):.2f} ms, "
        f"experiment p50 {1e3 * percentile(by_kind['experiment'], 50):.2f} ms"
    )
    if ctx.trace:
        _layers(out, timed, warm, stats)
        return out
    per_round = [
        sum(latencies[i:i + len(plan)])
        for i in range(0, len(latencies), len(plan))
    ]
    out.e2e = {
        "setup_s": median(setups),
        "cold_s": median(
            sum(clock.seconds(*r[2]) for r in cold) for cold in colds
        ),
        "warm_s": median(per_round),
        "p50_ms": 1e3 * percentile(latencies, 50),
        "p90_ms": 1e3 * percentile(latencies, 90),
    }
    return out


def _layers(out: Outcome, plan, results, stats) -> None:
    """Shares and counts from response bodies and ``/stats``; a share is
    a ratio of host seconds, so it needs no scaling."""
    overhead, cached = [], 0
    for item, (status, body, (start, end)) in zip(plan, results):
        if status != 200:
            continue
        cached += bool(body.get("cached"))
        if item["kind"] == "compile":
            stage_s = sum(s["wall_s"] for s in body["result"]["stages"])
            overhead.append(100.0 * (end - start - stage_s) / (end - start))
    out.layers["serve.overhead_pct.p50"] = percentile(overhead, 50)
    out.layers["store.hit_ratio.warm"] = cached / len(results)
    out.layers["serve.coalesced"] = stats["counters"].get("serve.coalesced", 0)
    out.layers["serve.shed"] = stats["counters"].get("serve.shed", 0)
    out.layers["serve.pool.restarts"] = stats["pool"]["restarts"]


if __name__ == "__main__":
    child_main()
