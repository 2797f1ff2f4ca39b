"""Helpers shared by the benchmark's orchestrator and its workload children.

Standard library only.  The orchestrator (``run.py``) never imports
``repro``; only child processes do, so a checkout without ``src/`` fails
before any workload starts, and the orchestrator's own memory stays out
of the workload's peak-RSS figure.

Child protocol: a workload child is ``python3 -u <module>.py child ...``.
It does its set-up (imports, input construction), prints :data:`READY`
and the times of three runs of :func:`reference_work` (see
:class:`Child`), runs its cold pass and then its warm pass for ``--seconds``, and prints
one JSON object as its last stdout line.  The orchestrator starts
:data:`SPAWNS` children per run, one after another, each on fresh stores
and caches, and gives each a share of the run's time.  Set-up and cold
time are the medians over the children; warm samples are pooled over
them, because the same code runs a few percent faster or slower from one
process to the next (hash seed, memory layout), and one process per run
would carry that into the run-to-run spread.

Every time the benchmark reports is in *reference seconds*, measured by
:class:`HostClock`: see there for why.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
READY = "READY"

#: Children (or daemons) started per run, each timed from spawn to ready
#: and running a cold pass and a share of the warm pass.
SPAWNS = 5

#: What :func:`reference_work` takes on a quiet host of the machine the
#: bounds were measured on (2-vCPU Intel Xeon VM, Python 3.11), so that
#: reported times read as that machine's wall times when nothing else
#: loads its host.
REFERENCE_S = 0.008


def reference_work() -> int:
    """The calibration loop: fixed pure-Python integer and small-dict work.

    Interpreter-bound with a tiny working set, like the program's own hot
    loops.  Changing it rescales every number the benchmark has recorded.
    """
    total, table = 0, {}
    for i in range(60_000):
        table[i & 255] = total
        total += i * i % 7
    return total


class HostClock:
    """Times intervals in reference seconds.

    The benchmark runs on a few vCPUs of a shared host whose speed moves
    by up to 1.7x over seconds to minutes; process CPU time moves with
    wall time, so the slowdown is in the core, not in scheduling.  Raw
    times of the same code then spread by 20-45% between runs.  This
    clock runs :func:`reference_work` in the measuring process, between
    the operations it times (:meth:`tick`), and scales each interval by
    ``REFERENCE_S / median(reference times within window of it)``.  On
    this host the ratio of ``simulate()`` or ``compile_spec()`` time to
    the loop's stayed within +-5% while both moved by 30%.

    A change that makes the program faster moves its reference seconds
    exactly as it moves wall seconds; the loop belongs to the benchmark.
    """

    def __init__(self, period: float = 0.2, window: float = 0.5):
        self.period = period
        self.window = window
        self._times: list[float] = []
        self._refs: list[float] = []
        self._lock = threading.Lock()
        self._last = -math.inf

    def calibrate(self, samples: int = 1) -> None:
        """Run the reference loop now, ``samples`` times."""
        for _ in range(samples):
            t0 = time.perf_counter()
            reference_work()
            t1 = time.perf_counter()
            with self._lock:
                self._times.append((t0 + t1) / 2)
                self._refs.append(t1 - t0)
                self._last = t1

    def tick(self) -> None:
        """Calibrate if ``period`` seconds passed since the last sample.
        Call it between timed operations, never inside one."""
        if time.perf_counter() - self._last >= self.period:
            self.calibrate()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over ``[start, end]``."""
        with self._lock:
            lo = bisect_left(self._times, start - self.window)
            hi = bisect_right(self._times, end + self.window)
            near = self._refs[lo:hi]
            if not near:
                # Nothing in the window: the closest sample on each side.
                i = bisect_left(self._times, start)
                near = self._refs[max(0, i - 1):i + 1]
        if not near:
            raise RuntimeError("HostClock.scale before any calibration")
        return REFERENCE_S / median(near)

    def seconds(self, start: float, end: float) -> float:
        """The interval ``[start, end]`` (``perf_counter`` values) in
        reference seconds."""
        return (end - start) * self.scale(start, end)

    def timed(self, fn, *args, **kwargs):
        """``(result, start, end)`` of one call, after a :meth:`tick`."""
        self.tick()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, start, time.perf_counter()


@dataclass
class Context:
    """What the orchestrator hands each workload's ``run``."""

    seed: int
    seconds: float
    trace: bool
    work: Path
    #: The workload's golden outputs (``None`` for make_golden.py, which
    #: checks against oracles only).
    golden: Optional[dict]


@dataclass
class Outcome:
    """One workload run: its metrics, its checks, and what it produced."""

    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    #: The checked outputs, keyed like golden.json (make_golden.py reads
    #: them back).
    outputs: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a failure is noted by name."""
        self.tally(1, 0 if ok else 1, what)
        return ok

    def tally(self, attempted: int, failed: int, what: str) -> None:
        """Count ``attempted`` checked operations of which ``failed`` failed."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.notes.append(f"FAILED ({failed}/{attempted}): {what}")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def child_env(work: Path) -> dict:
    """Environment for every process the benchmark starts in ``work``.

    Everything it writes lands under ``work``: the native ``.so`` cache,
    temp files, and XDG caches, so each ``work`` starts cold.  Opt-in
    program features that would write elsewhere or change behaviour (run
    ledger, default store, fault injection) are cleared.
    """
    env = dict(os.environ)
    for name in ("REPRO_LEDGER", "REPRO_STORE", "REPRO_FAULTS",
                 "REPRO_PERF_INJECT_SLOWDOWN", "REPRO_CC_SANITIZE"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_SO_CACHE"] = str(work / "so")
    env["TMPDIR"] = str(work / "tmp")
    env["XDG_CACHE_HOME"] = str(work / "xdg")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    return env


class Child:
    """One workload child process, timed from spawn to :data:`READY`.

    ``setup_s`` is in reference seconds, scaled by the reference times
    the child reports right after :data:`READY`: set-up runs on whichever
    vCPU the child landed on, and the vCPUs of a shared host slow down
    independently (calibrating in this process instead spread set-up
    times more than not scaling them at all).  A reader thread moves
    stdout lines onto a queue so that every wait has a timeout; a child
    that hangs, or whose wait is interrupted, is killed, never waited on
    forever or left running.
    """

    def __init__(self, argv: list[str], work: Path,
                 ready_timeout: float = 120.0):
        log = work / "child.log"
        self._log = open(log, "ab")
        self._lines: queue.Queue = queue.Queue()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=child_env(work), cwd=ROOT, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            lines = self._drain(t0 + ready_timeout)
            for line in lines:
                if line.strip() == READY:
                    t1 = time.perf_counter()
                    refs = json.loads(next(lines, "null"))
                    if refs:
                        self.setup_s = (t1 - t0) * REFERENCE_S / median(refs)
                        return
                    break
            raise RuntimeError(f"child never became ready (see {log})")
        except BaseException:
            self.kill()
            raise

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _drain(self, deadline: float):
        """Yield stdout lines until EOF; kill the child at ``deadline``."""
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.perf_counter())
                )
            except queue.Empty:
                self.kill()
                raise RuntimeError("child timed out") from None
            if line is None:
                return
            yield line

    def result(self, timeout: float) -> dict:
        """Wait for the child to exit 0; its last stdout line as JSON."""
        try:
            lines = [
                line for line in self._drain(time.perf_counter() + timeout)
                if line.strip()
            ]
            code = self.proc.wait(timeout=30)
        except BaseException:
            self.kill()
            raise
        self._reader.join(timeout=5)
        self._log.close()
        if code != 0:
            raise RuntimeError(f"child exited {code} (see {self._log.name})")
        if not lines:
            raise RuntimeError(f"child printed no result ({self._log.name})")
        return json.loads(lines[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


def spawn_children(module: Path, args: list[str], ctx: Context,
                   spawns: int = SPAWNS) -> tuple[list[float], list[dict]]:
    """Run ``spawns`` children of ``module``, one after another, each in
    a fresh work directory and with ``1/spawns`` of the run's time.

    Returns their set-up times (reference seconds) and results.
    """
    setups, results = [], []
    for i in range(spawns):
        work = ctx.work / f"child{i}"
        work.mkdir()
        argv = [sys.executable, "-u", str(module), "child", *args,
                "--seed", str(ctx.seed), "--seconds", str(ctx.seconds / spawns),
                "--trace", str(int(ctx.trace)), "--work", str(work)]
        child = Child(argv, work)
        setups.append(child.setup_s)
        results.append(child.result(timeout=170))
    return setups, results


def child_args(argv=None) -> argparse.Namespace:
    """Arguments every workload child accepts after ``child``."""
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("child",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--obs-trace", default=None)
    return parser.parse_args(argv)


def ready() -> None:
    """End of set-up: say so, then time the calibration loop here."""
    print(READY, flush=True)
    refs = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        refs.append(time.perf_counter() - t0)
    print(json.dumps(refs), flush=True)


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def terminate(proc: subprocess.Popen, grace: float = 30.0) -> int:
    """SIGTERM, wait ``grace`` seconds, then SIGKILL; the exit code."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            return proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
    return proc.wait()
