"""The crash-only worker pool: the repository's one process scheduler.

Two clients drive it (DESIGN.md §12): the serve daemon keeps one pool
for its lifetime (handler :func:`repro.serve.workers.serve_job`), and the
experiment harness opens one per batch of simulation misses.  Each hands
the pool its job *handler*, a picklable top-level callable the workers
apply to every submitted job.

Workers are **persistent** but **crash-only**: a worker holds no state
that matters, so recovery from a segfault, an OOM kill, an injected
``kill`` or a wedged toolchain is always the same — reap, respawn, fail
that one job.  A job that outlives its **deadline** has its worker
terminated, then killed.  The scheduler is one daemon *thread*
multiplexing the workers' pipes with ``multiprocessing.connection.wait``;
``submit`` returns a :class:`concurrent.futures.Future`.  Each job's
metrics and ``warn_once`` dedup keys ship home with its result and merge
into the parent's registry.
"""

from __future__ import annotations

import collections
import multiprocessing
import threading
import time
from concurrent.futures import Future
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Optional

__all__ = [
    "FORK_LOCK",
    "JobFailed",
    "WorkerCrash",
    "WorkerPool",
    "WorkerTimeout",
]

#: Held around every worker fork, and by any thread of a pool's parent
#: while it may import a module for the first time.  A fork copies the
#: per-module import locks as they are, so a worker forked while another
#: thread was importing inherits that module's lock held by a thread it
#: does not have, and hangs on its first import of the module.
FORK_LOCK = threading.Lock()


class WorkerCrash(RuntimeError):
    """The worker process died mid-job (segfault/OOM/injected kill)."""

    def __init__(self, exitcode: Optional[int]):
        self.exitcode = exitcode
        super().__init__(f"worker died mid-job (exit code {exitcode})")


class WorkerTimeout(RuntimeError):
    """The job exceeded its deadline; the worker was killed."""

    def __init__(self, deadline_s: float):
        self.deadline_s = deadline_s
        super().__init__(f"job exceeded its {deadline_s:g}s deadline")


class JobFailed(RuntimeError):
    """The job raised in the worker (the worker itself survived)."""

    def __init__(self, error_type: str, message: str):
        self.error_type = error_type
        super().__init__(f"{error_type}: {message}")


# -- worker side --------------------------------------------------------------


def _worker_main(conn, handler: Callable[[Any], Any]) -> None:
    """Persistent worker loop: recv a job, run ``handler``, send the
    outcome; a ``None`` job (or EOF) ends it.

    Crash-only by construction: nothing here needs to run on the way
    out.  A fault, a segfault, or the parent's ``kill()`` all leave the
    parent able to replan from EOF on the pipe.
    """
    import signal

    from repro import obs
    from repro.resilience.faults import reset_plan

    # Lifecycle belongs to the parent: a terminal's Ctrl-C reaches the
    # whole process group, and the parent reaps its workers itself.  The
    # inherited wakeup fd is the parent's (e.g. its event loop's), so a
    # signal here must not write to it.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    obs.detach_tracer()
    # The fork inherited the parent's armed plan object; re-arm from the
    # environment so per-process state (after=, p= RNGs) starts fresh
    # while cross-process injection counts stay in REPRO_FAULTS_DIR.
    reset_plan()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        try:
            # A fresh registry per job: the snapshot shipped home is
            # exactly this job's contribution.
            obs.reset_metrics()
            result = handler(message)
            payload = {
                "metrics": obs.get_metrics().snapshot(),
                "dedup": list(obs.seen_keys()),
            }
            conn.send(("ok", result, payload))
        except BaseException as exc:  # noqa: BLE001 - parent classifies
            try:
                conn.send(("err", type(exc).__name__, str(exc)))
            except Exception:
                pass
    conn.close()


# -- parent side --------------------------------------------------------------


def _fail_future(future: Future, exc: BaseException) -> None:
    """Fail ``future`` unless it already resolved (races the scheduler
    thread delivering a result between our done() check and set)."""
    if future.done():
        return
    try:
        future.set_exception(exc)
    except Exception:  # InvalidStateError: the result won the race
        pass


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = ("proc", "conn", "future", "deadline", "deadline_s")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.future: Optional[Future] = None
        #: Absolute monotonic deadline of the current job, and the
        #: relative one it was submitted with (what a timeout reports).
        self.deadline: Optional[float] = None
        self.deadline_s: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.future is not None


class WorkerPool:
    """N crash-only workers behind a ``connection.wait`` scheduler thread.

    ``handler`` runs in the workers, once per submitted job (any
    picklable object but ``None``); it must be picklable itself (a
    top-level function, or a ``functools.partial`` of one).
    ``name`` prefixes the pool's metrics (``<name>.jobs.completed``,
    ``<name>.jobs.failed``, ``<name>.worker_restarts``) and its
    ``<name>.worker_restart`` trace event.
    """

    def __init__(
        self,
        handler: Callable[[Any], Any],
        workers: int = 2,
        deadline_s: Optional[float] = None,
        *,
        name: str,
    ) -> None:
        self.handler = handler
        self.size = max(1, int(workers))
        self.deadline_s = deadline_s
        self.name = name
        self._ctx = multiprocessing.get_context()
        self._lock = threading.Lock()
        self._pending: collections.deque = collections.deque()
        self._workers: list[_Worker] = []
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._closing = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.restarts = 0
        self.completed = 0
        self.crashes = 0
        self.timeouts = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("pool already started")
        for _ in range(self.size):
            self._workers.append(self._spawn())
        self._thread = threading.Thread(
            target=self._scheduler, name=f"{self.name}-pool", daemon=True
        )
        self._thread.start()

    def _spawn(self) -> _Worker:
        ours, theirs = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(theirs, self.handler), daemon=True
        )
        with FORK_LOCK:
            proc.start()
        theirs.close()
        return _Worker(proc, ours)

    def shutdown(self, grace_s: float = 10.0) -> None:
        """Stop accepting, let in-flight jobs finish within ``grace_s``,
        then take the pool down (kill anything still running).

        While ``_closing`` is set the scheduler keeps dispatching the
        already-accepted queue and delivering results; it only refuses
        *new* submissions.  So the grace loop here normally observes the
        pool go idle with every future resolved, and the failure path
        below only fires for jobs that truly outlived the grace window.
        """
        self._closing.set()
        self._wake()
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            with self._lock:
                idle = not self._pending and not any(
                    w.busy for w in self._workers
                )
            if idle:
                break
            time.sleep(0.05)
        with self._lock:
            workers, self._workers = self._workers, []
            pending, self._pending = list(self._pending), collections.deque()
        for _, future, _ in pending:
            _fail_future(future, RuntimeError("pool shut down"))
        for worker in workers:
            if worker.future is not None:
                # Outlived the grace window: nothing left to wait for.
                _fail_future(worker.future, RuntimeError("pool shut down"))
                worker.proc.kill()
                continue
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.proc.join(1.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join()
            worker.conn.close()
        if self._thread is not None:
            self._thread.join(2.0)
            self._thread = None

    # -- submission ------------------------------------------------------

    def submit(self, job: Any, deadline_s: Optional[float] = None) -> Future:
        """Queue one job; the future resolves to the handler's result or
        raises :class:`WorkerCrash` / :class:`WorkerTimeout` /
        :class:`JobFailed`.  ``deadline_s`` overrides the pool default."""
        if self._closing.is_set():
            raise RuntimeError("pool is shutting down")
        future: Future = Future()
        if deadline_s is None:
            deadline_s = self.deadline_s
        with self._lock:
            self._pending.append((job, future, deadline_s))
        self._wake()
        return future

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"x")
        except (OSError, ValueError):
            pass

    # -- the scheduler thread -------------------------------------------

    def _scheduler(self) -> None:
        while True:
            self._dispatch()
            closing = self._closing.is_set()
            waitables: list[Any] = [self._wake_r]
            timeout = 0.5
            now = time.monotonic()
            with self._lock:
                busy = sum(1 for w in self._workers if w.busy)
                pending = len(self._pending)
                alive = len(self._workers)
                for worker in self._workers:
                    waitables.append(worker.conn)
                    if worker.busy and worker.deadline is not None:
                        timeout = min(timeout, max(0.0, worker.deadline - now))
            if closing and busy == 0 and (pending == 0 or alive == 0):
                # Draining is done: every dispatched job delivered its
                # result (or its worker died and the future failed), and
                # nothing dispatchable remains.  shutdown() fails whatever
                # is left and reaps the processes.
                break
            try:
                ready = _connection_wait(waitables, timeout=timeout)
            except OSError:
                # A connection was torn down under us (shutdown race or a
                # worker dying between snapshot and wait): just rescan.
                continue
            for conn in ready:
                if conn is self._wake_r:
                    try:
                        while self._wake_r.poll():
                            self._wake_r.recv()
                    except (EOFError, OSError):
                        pass
                    continue
                self._on_worker_message(conn)
            self._reap_overdue()

    def _dispatch(self) -> None:
        # Loop of passes: each pass assigns pending jobs under the lock;
        # workers found dead are replaced *after* the lock is released
        # (_replace takes the lock itself, and mutates self._workers),
        # then one more pass lets the replacements pick up requeued jobs.
        while True:
            dead: list[_Worker] = []
            with self._lock:
                for worker in self._workers:
                    if not self._pending:
                        break
                    if worker.busy:
                        continue
                    job, future, deadline_s = self._pending.popleft()
                    if future.cancelled():
                        continue
                    try:
                        worker.conn.send(job)
                    except (OSError, ValueError):
                        # Worker died while idle: requeue the job and
                        # respawn once we are outside the lock.
                        self._pending.appendleft((job, future, deadline_s))
                        dead.append(worker)
                        continue
                    worker.future = future
                    worker.deadline_s = deadline_s
                    worker.deadline = (
                        time.monotonic() + deadline_s
                        if deadline_s is not None
                        else None
                    )
            if not dead:
                return
            for worker in dead:
                self._replace(worker)

    def _on_worker_message(self, conn) -> None:
        from repro import obs

        with self._lock:
            worker = next((w for w in self._workers if w.conn is conn), None)
        if worker is None:
            return
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._worker_died(worker)
            return
        future = worker.future
        with self._lock:
            worker.future = None
            worker.deadline = None
            worker.deadline_s = None
        if future is None or future.done():
            return
        if message[0] == "ok":
            _, result, payload = message
            obs.merge_snapshot(payload["metrics"])
            obs.merge_dedup(payload["dedup"])
            self.completed += 1
            obs.get_metrics().counter(f"{self.name}.jobs.completed").inc()
            future.set_result(result)
        else:
            _, exc_type, exc_msg = message
            obs.get_metrics().counter(f"{self.name}.jobs.failed").inc()
            future.set_exception(JobFailed(exc_type, exc_msg))

    def _worker_died(self, worker: _Worker) -> None:
        worker.proc.join(1.0)
        exitcode = worker.proc.exitcode
        future = worker.future
        self._replace(worker)
        if future is not None and not future.done():
            self.crashes += 1
            _fail_future(future, WorkerCrash(exitcode))

    def _reap_overdue(self) -> None:
        now = time.monotonic()
        with self._lock:
            overdue = [
                w
                for w in self._workers
                if w.busy and w.deadline is not None and now >= w.deadline
            ]
        for worker in overdue:
            worker.proc.terminate()
            worker.proc.join(1.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join()
            future, deadline_s = worker.future, worker.deadline_s
            self._replace(worker)
            if future is not None and not future.done():
                self.timeouts += 1
                _fail_future(future, WorkerTimeout(deadline_s))

    def _replace(self, worker: _Worker) -> None:
        # Takes self._lock (non-reentrant): callers MUST NOT hold it —
        # collect dead workers under the lock, replace after releasing.
        from repro import obs

        try:
            worker.conn.close()
        except Exception:
            pass
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join()
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
                if not self._closing.is_set():
                    self._workers.append(self._spawn())
        self.restarts += 1
        obs.get_metrics().counter(f"{self.name}.worker_restarts").inc()
        obs.event(f"{self.name}.worker_restart", exitcode=worker.proc.exitcode)

    # -- introspection ---------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            busy = sum(1 for w in self._workers if w.busy)
            alive = sum(1 for w in self._workers if w.proc.is_alive())
            queued = len(self._pending)
        return {
            "size": self.size,
            "alive": alive,
            "busy": busy,
            "queued": queued,
            "completed": self.completed,
            "restarts": self.restarts,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "deadline_s": self.deadline_s,
        }
