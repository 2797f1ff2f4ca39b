"""Shared experiment infrastructure: results, claims, rendering, running.

The deliverable of each experiment is an :class:`ExperimentResult`: the
raw series (the same rows/curves the paper plots), a set of
:class:`Claim` objects — the paper's qualitative statements evaluated
against the fresh numbers — and text renderings for the terminal and for
EXPERIMENTS.md.

The *running* half is :class:`SimulationRunner`: every simulation point
an experiment needs is described as a picklable :class:`SimTask`
(code name, version key, sizes, machine, passes, seed — CodeVersion
closures themselves do not cross process boundaries; workers look the
version up in the deterministic factory registry of :mod:`repro.codes`,
which builds each family once per process).
The runner fans cache misses out over the shared crash-only worker pool
(:mod:`repro.resilience.pool`) when ``jobs > 1`` and memoizes results in
a content-addressed on-disk cache keyed by the task plus a fingerprint
of the simulation engine's own sources, so a re-run of an unchanged
figure costs zero simulations while any engine change transparently
invalidates every cached point.

The execution engine is *fault-isolated* (DESIGN.md §12): a crash,
hang, or injected fault in a pool worker takes down one task, never the
run — the pool respawns the worker and the batch goes on.  Failed tasks
are retried with exponential backoff and deterministic jitter up to
``retry.retries`` times; a task that keeps failing is **quarantined** —
recorded with its full identity (code, mapping, sizes, seed, machine) in
the runner telemetry — rather than poisoning the batch.  ``timeout_s``
is the pool's per-task deadline.  Every result is durable the moment it
completes: it is an atomic store entry, so a killed run re-run on the
same cache simulates only what it had not finished, and
``checkpoint_path`` names a second, run-scoped store that a ``resume``
run (``repro report --no-cache --checkpoint DIR --resume``) replays.
"""

from __future__ import annotations

import functools
import heapq
import logging
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

from repro import obs
from repro.execution.simulator import SimResult
from repro.machine.configs import MachineConfig
from repro.machine.hierarchy import AccessStats
from repro.resilience.faults import maybe_fault
from repro.resilience.pool import JobFailed, WorkerCrash, WorkerPool, WorkerTimeout
from repro.resilience.quarantine import QuarantineRecord
from repro.resilience.retry import RetryPolicy
from repro.store.core import Store
from repro.store.fingerprint import content_hash, engine_fingerprint
from repro.store.provenance import Provenance

_LOG = logging.getLogger("repro.harness")

__all__ = [
    "Series",
    "Claim",
    "ExperimentResult",
    "ascii_table",
    "ascii_chart",
    "SimTask",
    "SimulationRunner",
    "TaskFailure",
    "engine_fingerprint",
    "get_runner",
    "interruption_guard",
    "set_runner",
    "stored_result",
    "task_identity",
    "task_key",
]


@dataclass
class Series:
    """One curve: a label and aligned x/y values."""

    label: str
    xs: list
    ys: list[float]

    def y_at(self, x) -> float:
        return self.ys[self.xs.index(x)]

    @property
    def final(self) -> float:
        return self.ys[-1]


@dataclass
class Claim:
    """One of the paper's qualitative statements, checked numerically."""

    text: str
    holds: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.holds else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.text}{suffix}"


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    experiment: str
    title: str
    mode: str
    xlabel: str = ""
    ylabel: str = ""
    #: Grouped series: {"pentium-pro": [Series, ...], ...} or {"": [...]}.
    groups: dict[str, list[Series]] = field(default_factory=dict)
    #: Free-form table rows (header first) for table-style experiments.
    tables: dict[str, list[list[str]]] = field(default_factory=dict)
    claims: list[Claim] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Filled by the report driver: this experiment's share of the
    #: runner's work ({"simulated", "cache_hits", "elapsed_s"}).
    telemetry: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.claims)

    def claim(
        self, text: str, predicate: Callable[[], bool], detail: str = ""
    ) -> None:
        """Evaluate and record one claim (exceptions count as failures)."""
        try:
            holds = bool(predicate())
        except Exception as exc:  # a broken claim is a failed claim
            holds = False
            detail = f"{detail + '; ' if detail else ''}error: {exc}"
        self.claims.append(Claim(text, holds, detail))

    def render(self) -> str:
        """Terminal/markdown-friendly text rendering."""
        out = [f"## {self.experiment}: {self.title}  [mode={self.mode}]", ""]
        for name, rows in self.tables.items():
            if name:
                out.append(f"**{name}**")
                out.append("")
            out.append(ascii_table(rows))
            out.append("")
        for group, series_list in self.groups.items():
            if group:
                out.append(f"**{group}** ({self.ylabel} vs {self.xlabel})")
                out.append("")
            out.append(series_table(series_list, self.xlabel))
            out.append("")
            chart = ascii_chart(series_list)
            if chart:
                out.append("```")
                out.append(chart)
                out.append("```")
                out.append("")
        if self.claims:
            out.append("Claims:")
            out.extend(f"- {c}" for c in self.claims)
            out.append("")
        for note in self.notes:
            out.append(f"> {note}")
            out.append("")
        return "\n".join(out)


@dataclass(frozen=True)
class SimTask:
    """One simulation point, in a form that pickles and hashes.

    ``sizes`` is stored as a sorted item tuple so that equal size
    mappings produce equal tasks (and equal cache keys) regardless of
    insertion order.
    """

    code_name: str
    version_key: str
    sizes: tuple[tuple[str, int], ...]
    machine: MachineConfig
    passes: int = 1
    seed: int = 0

    @staticmethod
    def of(
        version,
        sizes: Mapping[str, int],
        machine: MachineConfig,
        passes: int = 1,
        seed: int = 0,
    ) -> "SimTask":
        return SimTask(
            code_name=version.code.name,
            version_key=version.key,
            sizes=tuple(sorted((str(k), int(v)) for k, v in sizes.items())),
            machine=machine,
            passes=passes,
            seed=seed,
        )

    @property
    def sizes_dict(self) -> dict[str, int]:
        return dict(self.sizes)

    @property
    def label(self) -> str:
        sizes = ",".join(f"{k}={v}" for k, v in self.sizes)
        return (
            f"{self.code_name}/{self.version_key} {sizes} "
            f"@{self.machine.name}"
        )


def task_identity(task: SimTask) -> dict:
    """The task's full identity, attached to every error and quarantine
    record so a failing point is reproducible from the report alone."""
    return {
        "code": task.code_name,
        "mapping": task.version_key,
        "sizes": task.sizes_dict,
        "machine": task.machine.name,
        "passes": task.passes,
        "seed": task.seed,
    }


@functools.lru_cache(maxsize=64)
def _machine_json(machine: MachineConfig) -> dict:
    """``asdict(machine)``, built once per machine (read, never mutated)."""
    return asdict(machine)


def task_key(task: SimTask) -> str:
    """The store key of ``task``'s result: its identity and the engine
    fingerprint (the runner's and serve's ``/experiment`` door's key)."""
    return content_hash(
        {
            "code": task.code_name,
            "version": task.version_key,
            "machine": _machine_json(task.machine),
            "sizes": [list(item) for item in task.sizes],
            "passes": task.passes,
            "seed": task.seed,
            "engine": engine_fingerprint(),
        }
    )


def stored_result(body) -> SimResult | None:
    """The :class:`SimResult` a stored body holds; None for none or for a
    body of another schema."""
    if body is None:
        return None
    try:
        data = dict(body)
        data["stats"] = AccessStats(**data["stats"])
        return SimResult(**data)
    except (KeyError, TypeError, ValueError):
        return None


class TaskFailure(RuntimeError):
    """A task failed permanently; carries the failing task's config.

    The message embeds the identity (code, mapping, sizes, seed,
    machine) of every quarantined task, so nothing is lost when the
    error crosses a process or log boundary; the structured records
    stay available on ``.quarantined``.
    """

    def __init__(self, quarantined: Sequence[QuarantineRecord]):
        self.quarantined = tuple(quarantined)
        lines = [
            f"{len(self.quarantined)} simulation task(s) failed permanently:"
        ]
        lines.extend(f"  - {record}" for record in self.quarantined)
        super().__init__("\n".join(lines))


def _run_sim_task(task: SimTask) -> tuple[SimResult, float, int]:
    """Look the version up by name and simulate it; also return the wall
    time and the id of the process that ran it.

    The harness's pool handler: top-level (not a closure) so it pickles,
    imports deferred so a fresh worker process pays them once.  The
    code's version family is built once per process, not once per task
    (:func:`repro.codes.get_versions`).
    """
    from repro.codes import get_version
    from repro.execution.simulator import simulate

    t0 = time.perf_counter()
    maybe_fault("harness.worker", label=task.label)
    version = get_version(task.code_name, task.version_key)
    result = simulate(
        version,
        task.sizes_dict,
        task.machine,
        seed=task.seed,
        passes=task.passes,
    )
    return result, time.perf_counter() - t0, os.getpid()


def _run_inline(task: SimTask) -> Future:
    """Run ``task`` here and now, reporting it as a pool future would.

    The in-process path: no fork, so it also serves callers that are
    themselves daemonic pool workers (which cannot have children).
    """
    future: Future = Future()
    try:
        future.set_result(_run_sim_task(task))
    except Exception as exc:  # noqa: BLE001 - classified like a worker's
        future.set_exception(JobFailed(type(exc).__name__, str(exc)))
    return future


def _failure(exc: Exception) -> tuple[str, str]:
    """A failed attempt's quarantine kind and message."""
    if isinstance(exc, WorkerCrash):
        return "crash", f"worker died (exit code {exc.exitcode})"
    if isinstance(exc, WorkerTimeout):
        return "timeout", f"timed out after {exc.deadline_s:g}s"
    return "exception", str(exc)


# ``engine_fingerprint`` lives in :mod:`repro.store.fingerprint` now
# (DESIGN.md §16) and is re-exported here because experiment code and
# tests import it from the harness; reset with
# :func:`repro.store.fingerprint.reset_engine_fingerprint`.


class SimulationRunner:
    """Runs :class:`SimTask` batches with caching and fault isolation.

    ``jobs > 1`` dispatches cache misses to a pool of up to ``jobs``
    crash-only worker processes (a crash or hang is contained to its
    task); ``cache_dir`` enables the content-addressed result cache
    (a :class:`~repro.store.core.Store`: one digest-verified,
    self-healing entry per point) — a path the runner opens (see
    :meth:`open_store`) and :meth:`close` closes, or an open store it
    uses and leaves open.
    ``simulated`` and ``cache_hits`` count what actually happened — the
    warm-cache experiment test asserts ``simulated == 0`` on a second
    run.

    Resilience knobs: ``timeout_s`` terminates an overrunning worker
    (forces the pool even at ``jobs=1``); ``retry`` (an int
    or a :class:`~repro.resilience.retry.RetryPolicy`) bounds retries
    with exponential backoff + deterministic jitter; tasks that exhaust
    retries are quarantined, not fatal (unless ``strict``, when a
    :class:`TaskFailure` carrying every task identity is raised after
    the whole batch ran).  ``checkpoint_path`` opens a second store (a
    directory, or ``*.sqlite``/``*.db``) that every result is also
    written to; only ``resume=True`` reads it back, so a killed run
    continues with zero redundant simulations even without a cache.
    """

    #: How many slowest-task entries :meth:`telemetry` keeps.
    SLOWEST_KEPT = 5

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | os.PathLike | Store | None = None,
        timeout_s: Optional[float] = None,
        retry: "int | RetryPolicy | None" = None,
        checkpoint_path: str | os.PathLike | None = None,
        resume: bool = False,
    ):
        self.jobs = max(1, int(jobs))
        opened = cache_dir is not None and not isinstance(cache_dir, Store)
        self.cache_dir = Path(cache_dir) if opened else None
        # Fail fast on an unusable cache location, before any simulation
        # time is spent (opening creates the directory / database).
        self._store = self.open_store(cache_dir) if opened else cache_dir
        self._owned_store = self._store if opened else None
        self.timeout_s = timeout_s
        self.retry = RetryPolicy.of(retry)
        self.simulated = 0
        self.cache_hits = 0
        self.sim_wall_s = 0.0
        self.workers: set[int] = set()
        # Min-heap of (wall_s, label): the slowest simulations survive.
        self._slowest: list[tuple[float, str]] = []
        # Resilience bookkeeping.
        self.retries_used = 0
        self.resumed = 0
        self.quarantined: list[QuarantineRecord] = []
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        # A fresh run neither reads nor deletes earlier entries: it
        # overwrites the keys it recomputes with identical bodies.
        self._checkpoint = (
            Store.open(checkpoint_path, site="harness.checkpoint")
            if checkpoint_path is not None
            else None
        )
        # Only a resumed run reads the checkpoint back.
        self._resume_from = self._checkpoint if resume else None

    @staticmethod
    def open_store(path: str | os.PathLike) -> Store:
        """The result store a cache path names, opened as the runner
        opens it."""
        return Store.open(path, site="harness.cache")

    def close(self) -> None:
        """Close the stores this runner opened (idempotent); a store
        passed in open stays open."""
        for store in (self._owned_store, self._checkpoint):
            if store is not None:
                store.close()

    def interrupt_flush(self, signame: str) -> None:
        """Record an interrupted run before the process dies.

        Called from a SIGINT/SIGTERM handler (:func:`interruption_guard`).
        Every finished result is already a durable store entry, so this
        only closes the stores and writes a final run-ledger record
        carrying the progress counts and every quarantined identity:
        *when and why* the run stopped.
        """
        self.close()
        obs.get_metrics().counter("resilience.interrupts").inc()
        obs.ledger_record(
            "experiments",
            event="interrupted",
            signal=signame,
            simulated=self.simulated,
            cache_hits=self.cache_hits,
            retries=self.retries_used,
            resumed=self.resumed,
            quarantined=[r.to_json() for r in self.quarantined],
            checkpoint=(
                str(self.checkpoint_path)
                if self.checkpoint_path is not None
                else None
            ),
        )
        obs.shutdown_ledger()

    def run(
        self,
        version,
        sizes: Mapping[str, int],
        machine: MachineConfig,
        passes: int = 1,
        seed: int = 0,
    ) -> SimResult:
        """One point (convenience wrapper over :meth:`run_tasks`)."""
        return self.run_tasks(
            [SimTask.of(version, sizes, machine, passes=passes, seed=seed)]
        )[0]

    def run_tasks(
        self, tasks: Sequence[SimTask], strict: bool = True
    ) -> list[SimResult]:
        """All tasks' results, in task order.

        A task that fails permanently is quarantined; with ``strict``
        (the default) a :class:`TaskFailure` naming every quarantined
        task's full identity is raised *after* the rest of the batch
        ran, so one poisoned point never wastes the others' work.  With
        ``strict=False`` quarantined slots come back as ``None``.
        """
        metrics = obs.get_metrics()
        results: list[SimResult | None] = [None] * len(tasks)
        misses: list[int] = []
        with obs.span(
            "runner.run_tasks", tasks=len(tasks), jobs=self.jobs
        ) as sp:
            for i, task in enumerate(tasks):
                key = self.task_key(task)
                resumed = self._load(self._resume_from, key)
                cached = resumed or self._load(self._store, key)
                if cached is None:
                    misses.append(i)
                    continue
                if resumed is not None:
                    self.resumed += 1
                    metrics.counter("resilience.checkpoint.resumed").inc()
                    # Warm the cache too: the checkpoint is run-scoped,
                    # the cache outlives it.
                    self._save((self._store,), task, key, resumed)
                results[i] = cached
                self.cache_hits += 1
                metrics.counter("sim.cache.hits").inc()
                # Stored results never reached this process's simulator,
                # so their memory-system counters are folded in here.
                cached.stats.record(metrics, prefix="machine")
                sp.event(
                    "sim.task",
                    task=task.label,
                    cache_hit=True,
                    resumed=resumed is not None,
                    wall_s=0.0,
                    worker=os.getpid(),
                )
            batch_quarantined: list[QuarantineRecord] = []
            if misses:
                self._execute(tasks, misses, results, batch_quarantined, sp)
            done = sum(1 for i in misses if results[i] is not None)
            sp.set(
                simulated=done,
                cache_hits=len(tasks) - len(misses),
                quarantined=len(batch_quarantined),
            )
        _LOG.debug(
            "run_tasks: %d tasks, %d simulated, %d cache hits, %d quarantined",
            len(tasks),
            done if misses else 0,
            len(tasks) - len(misses),
            len(batch_quarantined),
        )
        if batch_quarantined and strict:
            raise TaskFailure(batch_quarantined)
        return results  # type: ignore[return-value]

    # -- the fault-isolated execution engine ----------------------------

    def _execute(
        self,
        tasks: Sequence[SimTask],
        misses: Sequence[int],
        results: list,
        batch_quarantined: list,
        sp,
    ) -> None:
        """Run the misses, retrying failures and quarantining the rest.

        A batch that needs processes — ``timeout_s`` (only a separate
        process can be stopped) or ``jobs > 1`` with several misses —
        runs on a worker pool that lives as long as the batch; any other
        runs inline, keeping single-point latency minimal.  Either way
        one loop over futures applies the retry policy.
        """
        pool = None
        if self.timeout_s is not None or (self.jobs > 1 and len(misses) > 1):
            pool = WorkerPool(
                _run_sim_task,
                workers=min(self.jobs, len(misses)),
                deadline_s=self.timeout_s,
                name="harness",
            )
            pool.start()
        submit = pool.submit if pool is not None else _run_inline
        width = pool.size if pool is not None else 1
        # (task index, attempt, failure history) in submission order;
        # backed-off retries wait in ``delayed`` (a heap on ready time).
        queue: deque = deque((i, 0, []) for i in misses)
        delayed: list[tuple[float, int, int, list]] = []
        running: dict[Future, tuple[int, int, list]] = {}
        try:
            while queue or delayed or running:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    queue.append(heapq.heappop(delayed)[1:])
                while queue and len(running) < width:
                    i, attempt, history = queue.popleft()
                    running[submit(tasks[i])] = (i, attempt, history)
                backoff = max(0.0, delayed[0][0] - now) if delayed else None
                if not running:
                    time.sleep(backoff)
                    continue
                done, _ = wait(
                    running, timeout=backoff, return_when=FIRST_COMPLETED
                )
                for future in done:
                    i, attempt, history = running.pop(future)
                    task = tasks[i]
                    try:
                        result, wall_s, worker = future.result()
                    except (JobFailed, WorkerCrash, WorkerTimeout) as exc:
                        kind, message = _failure(exc)
                        history.append(f"{kind}: {message}")
                        key = self.task_key(task)
                        if attempt < self.retry.retries:
                            self._note_retry(task, attempt, key, sp)
                            ready = time.monotonic() + self.retry.delay(
                                attempt, key
                            )
                            heapq.heappush(
                                delayed, (ready, i, attempt + 1, history)
                            )
                        else:
                            self._quarantine(
                                task, kind, message, attempt + 1, history,
                                batch_quarantined, sp,
                            )
                        continue
                    self._complete(i, task, result, wall_s, worker, results, sp)
        finally:
            if pool is not None:
                # Idle once the batch is done; on an exception (an
                # interrupt included) nothing in flight is worth waiting for.
                pool.shutdown(grace_s=0.0)

    def _complete(
        self,
        i: int,
        task: SimTask,
        result: SimResult,
        wall_s: float,
        worker: int,
        results: list,
        sp,
    ) -> None:
        results[i] = result
        self.simulated += 1
        stores = (self._store, self._checkpoint)
        self._save(stores, task, self.task_key(task), result, wall_s)
        self._record_miss(task, result, wall_s, worker, sp)

    def _note_retry(self, task: SimTask, attempt: int, key: str, sp) -> None:
        self.retries_used += 1
        metrics = obs.get_metrics()
        metrics.counter("resilience.retries").inc()
        sp.event(
            "sim.retry",
            task=task.label,
            attempt=attempt,
            delay_s=round(self.retry.delay(attempt, key), 4),
        )
        _LOG.debug("retrying %s (attempt %d)", task.label, attempt + 1)

    def _quarantine(
        self,
        task: SimTask,
        kind: str,
        message: str,
        attempts: int,
        history: Sequence[str],
        batch_quarantined: list,
        sp,
    ) -> None:
        record = QuarantineRecord(
            site="harness.worker",
            identity=task_identity(task),
            error=kind,
            message=message,
            attempts=attempts,
            history=tuple(history),
        )
        self.quarantined.append(record)
        batch_quarantined.append(record)
        obs.get_metrics().counter("resilience.quarantines").inc()
        obs.warn_once(
            ("quarantine", task.label),
            f"harness: {record}",
            event="resilience.quarantine",
            counter="resilience.quarantine_events",
            task=task.label,
            error=kind,
            attempts=attempts,
        )
        sp.event(
            "sim.quarantine",
            task=task.label,
            error=kind,
            attempts=attempts,
            message=message,
        )

    def _record_miss(
        self,
        task: SimTask,
        result: SimResult,
        wall_s: float,
        worker: int,
        sp,
    ) -> None:
        metrics = obs.get_metrics()
        metrics.counter("sim.cache.misses").inc()
        metrics.histogram("sim.task.wall_s").observe(wall_s)
        self.sim_wall_s += wall_s
        self.workers.add(worker)
        entry = (wall_s, task.label)
        if len(self._slowest) < self.SLOWEST_KEPT:
            heapq.heappush(self._slowest, entry)
        else:
            heapq.heappushpop(self._slowest, entry)
        sp.event(
            "sim.task",
            task=task.label,
            cache_hit=False,
            wall_s=wall_s,
            worker=worker,
        )

    def telemetry(self) -> dict:
        """Aggregate cache/parallelism/resilience stats for reports."""
        total = self.simulated + self.cache_hits
        return {
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "tasks": total,
            "hit_rate": (self.cache_hits / total) if total else None,
            "sim_wall_s": self.sim_wall_s,
            "workers": sorted(self.workers),
            "slowest": [
                {"task": label, "wall_s": wall_s}
                for wall_s, label in sorted(self._slowest, reverse=True)
            ],
            "retries": self.retries_used,
            "quarantined": [r.to_json() for r in self.quarantined],
            "resumed": self.resumed,
        }

    # -- the content-addressed cache ------------------------------------

    task_key = staticmethod(task_key)

    @staticmethod
    def _load(store: Store | None, key: str) -> SimResult | None:
        """The result under ``key``; None for none or a stale schema (a
        stale engine's entries never match: keys fold in the engine)."""
        if store is None:
            return None
        return stored_result(store.get(key))

    @staticmethod
    def _save(stores, task, key, result, wall_s=None) -> None:
        """Put ``result`` under ``key`` into every open store in
        ``stores``, with one provenance record."""
        body = asdict(result)
        provenance = Provenance.now(
            op="simulate",
            inputs={"task": content_hash(task_identity(task))},
            engine=engine_fingerprint(),
            machine=task.machine.name,
            wall_s=round(wall_s, 6) if wall_s is not None else None,
            extra={"label": task.label},
        )
        for store in stores:
            # A directory store fires the chaos suite's ``<site>.store``
            # corruption hook after the write and quarantines corrupt
            # entries on the next read.
            if store is not None:
                store.put(key, body, provenance=provenance, label=task.label)


_RUNNER = SimulationRunner()


def get_runner() -> SimulationRunner:
    """The process-wide runner the experiment drivers go through."""
    return _RUNNER


def set_runner(runner: SimulationRunner) -> SimulationRunner:
    """Install ``runner`` globally; returns the previous one."""
    global _RUNNER
    previous = _RUNNER
    _RUNNER = runner
    return previous


@contextmanager
def interruption_guard(runner: SimulationRunner):
    """SIGINT/SIGTERM handlers that keep an interrupted run resumable.

    While the body runs, a delivered SIGINT or SIGTERM first calls
    :meth:`SimulationRunner.interrupt_flush` — stores closed, final
    ledger record with the quarantine list — and then resumes the
    interruption (``KeyboardInterrupt`` for SIGINT,
    ``SystemExit(128+signum)`` for SIGTERM).  The finished results are
    already durable store entries, so a re-run (or ``--resume``) picks
    up where this one stopped.

    Installs handlers only on the main thread (the only place Python
    allows it); elsewhere it is a no-op pass-through.  Previous
    handlers are restored on exit either way.
    """
    import signal as _sig
    import threading

    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _on_signal(signum, frame):
        signame = _sig.Signals(signum).name
        _LOG.warning("interrupted by %s; writing the ledger record", signame)
        try:
            runner.interrupt_flush(signame)
        finally:
            if signum == _sig.SIGINT:
                raise KeyboardInterrupt
            raise SystemExit(128 + signum)

    previous = {}
    for signum in (_sig.SIGINT, _sig.SIGTERM):
        try:
            previous[signum] = _sig.signal(signum, _on_signal)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            _sig.signal(signum, handler)


def ascii_table(rows: Sequence[Sequence[str]]) -> str:
    """GitHub-flavoured markdown table from header + data rows."""
    rows = [[str(c) for c in row] for row in rows]
    if not rows:
        return ""
    widths = [
        max(len(row[k]) for row in rows if k < len(row))
        for k in range(max(len(r) for r in rows))
    ]

    def fmt(row):
        cells = [
            (row[k] if k < len(row) else "").ljust(widths[k])
            for k in range(len(widths))
        ]
        return "| " + " | ".join(cells) + " |"

    lines = [fmt(rows[0])]
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    lines.extend(fmt(r) for r in rows[1:])
    return "\n".join(lines)


def series_table(series_list: Sequence[Series], xlabel: str) -> str:
    """Markdown table with one column per series, one row per x."""
    if not series_list:
        return ""
    xs = series_list[0].xs
    header = [xlabel or "x"] + [s.label for s in series_list]
    rows = [header]
    for i, x in enumerate(xs):
        row = [str(x)]
        for s in series_list:
            row.append(f"{s.ys[i]:.1f}" if i < len(s.ys) else "")
        rows.append(row)
    return ascii_table(rows)


def ascii_chart(
    series_list: Sequence[Series], width: int = 64, height: int = 16
) -> str:
    """A small log-y scatter chart; one letter per series.

    Good enough to eyeball knees and cliffs in a terminal; the numeric
    tables carry the precise values.
    """
    points = [
        (i, y, chr(ord("A") + n))
        for n, s in enumerate(series_list)
        for i, y in enumerate(s.ys)
        if y > 0
    ]
    if not points:
        return ""
    import math

    xs = [p[0] for p in points]
    ys = [math.log10(p[1]) for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi - y_lo < 1e-9:
        y_hi = y_lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    for (x, y, ch), ly in zip(points, ys):
        col = 0 if x_hi == x_lo else round((x - x_lo) / (x_hi - x_lo) * (width - 1))
        row = round((y_hi - ly) / (y_hi - y_lo) * (height - 1))
        grid[row][col] = ch
    legend = "  ".join(
        f"{chr(ord('A') + n)}={s.label}" for n, s in enumerate(series_list)
    )
    body = "\n".join("".join(r) for r in grid)
    return (
        f"log10(cycles/iter) {10**y_hi:.0f} .. {10**y_lo:.1f} (top to bottom)\n"
        + body
        + "\n"
        + legend
    )
