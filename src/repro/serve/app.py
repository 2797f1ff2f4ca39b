"""``repro serve`` — the fault-tolerant compilation-and-experiment daemon.

One asyncio event loop multiplexes the typed pipeline, the resilience
budgets, and the concurrent-safe store behind an HTTP/JSON API
(DESIGN.md §17):

- ``POST /compile`` — StencilSpec body → stage artifacts (worker pool)
- ``POST /experiment`` — one simulation point (worker pool)
- ``GET /artifact/<key>`` — fetch a stage artifact from the shared store
- ``GET /healthz`` / ``GET /readyz`` — liveness / readiness
- ``GET /stats`` — pool, admission, coalescing, breaker, and metrics

Request lifecycle: **admit** (token bucket + queue depth + RSS
watermark; shed = structured 429 with ``Retry-After``) → **door** (a
request whose clean answer is stored is answered from the store,
digest-verified, without a worker) → **coalesce** (identical in-flight
work shares one run) → **quarantine check** (a
spec hash that keeps killing workers is refused with 422 until its
breaker half-opens) → **dispatch** to a crash-only worker (crashed or
overdue workers are killed, respawned, and the job retried a bounded
number of times) → **respond** (correct, or truthfully degraded — the
toolchain breaker rewrites native requests to the vectorized engine
while ``cc`` is misbehaving, and says so in the response).

SIGTERM/SIGINT triggers graceful drain: stop accepting, finish
in-flight requests within the grace window, shut the pool down, flush
the run ledger, exit 0.
"""

from __future__ import annotations

import asyncio
import functools
import logging
import signal
import time
from typing import Awaitable, Callable, Optional

from repro import obs
from repro.resilience.pool import (
    FORK_LOCK,
    JobFailed,
    WorkerCrash,
    WorkerPool,
    WorkerTimeout,
)
from repro.serve.admission import AdmissionGate
from repro.serve.breaker import CLOSED, BreakerBoard, CircuitBreaker
from repro.serve.coalesce import Coalescer
from repro.serve.http import (
    HttpError,
    Request,
    Response,
    read_request,
    write_response,
)
from repro.serve.protocol import (
    RequestError,
    ServeError,
    compile_request_key,
    error_body,
    experiment_request_key,
    normalize_compile_request,
    normalize_experiment_request,
    success_body,
)
from repro.serve.workers import serve_job, stored_answer
from repro.store.core import Store

__all__ = ["ServeApp", "serve_main"]

_LOG = logging.getLogger("repro.serve")

#: Execute-stage degradation reasons that implicate the native toolchain.
TOOLCHAIN_REASONS = ("no-toolchain", "compile-failed", "load-failed")

#: Artifact keys are ``<stage>-<hex>`` or bare harness hex digests.
_KEY_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"
)


class _Quarantined(Exception):
    """Raised inside a coalesced flight when the spec breaker is open."""

    def __init__(self, key: str, retry_after_s: float):
        self.key = key
        self.retry_after_s = retry_after_s
        super().__init__(f"spec {key[:12]} is quarantined")


class ServeApp:
    """The daemon: routing, gating, pool, and lifecycle in one object."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        workers: int = 2,
        deadline_s: Optional[float] = 60.0,
        rate_per_s: float = 50.0,
        burst: int = 100,
        max_inflight: int = 64,
        memory_mb: Optional[float] = None,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 30.0,
        crash_retries: int = 2,
        drain_grace_s: float = 10.0,
    ) -> None:
        self.cache_dir = cache_dir
        self.pool = WorkerPool(
            functools.partial(serve_job, cache_dir=cache_dir),
            workers=workers,
            deadline_s=deadline_s,
            name="serve",
        )
        self.admission = AdmissionGate(
            rate_per_s=rate_per_s,
            burst=burst,
            max_inflight=max_inflight,
            memory_mb=memory_mb,
        )
        self.coalescer = Coalescer()
        self.spec_breakers = BreakerBoard(
            failure_threshold=breaker_threshold, cooldown_s=breaker_cooldown_s
        )
        self.toolchain_breaker = CircuitBreaker(
            "toolchain",
            failure_threshold=breaker_threshold,
            cooldown_s=breaker_cooldown_s,
        )
        # A read-only handle on the same store the workers write through.
        self.store = (
            Store.open(cache_dir, site="serve.store")
            if cache_dir is not None
            else None
        )
        self.crash_retries = max(0, int(crash_retries))
        self.drain_grace_s = drain_grace_s
        self.started_at = time.time()
        self.draining = False
        self._active = 0  # open HTTP connections being handled
        self._drained: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle -------------------------------------------------------

    async def run_async(
        self,
        host: str = "127.0.0.1",
        port: int = 8750,
        ready: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        """Serve until drained (SIGTERM/SIGINT or :meth:`begin_drain`)."""
        self.pool.start()
        self._drained = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, host, port
        )
        bound = self._server.sockets[0].getsockname()
        loop = asyncio.get_running_loop()
        self._loop = loop  # begin_drain bounces off-loop callers here
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.begin_drain, signal.Signals(signum).name)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-POSIX loops: drain via begin_drain() only
        obs.ledger_record(
            "serve",
            event="start",
            host=bound[0],
            port=bound[1],
            workers=self.pool.size,
            cache_dir=str(self.cache_dir) if self.cache_dir else None,
        )
        _LOG.info("serving on %s:%d (%d workers)", bound[0], bound[1], self.pool.size)
        if ready is not None:
            ready(bound[0], bound[1])
        try:
            await self._drained.wait()
        finally:
            await self._shutdown()

    def begin_drain(self, why: str = "requested") -> None:
        """Stop accepting and let in-flight work finish (idempotent).

        Callable from any thread: off-loop callers are marshalled onto
        the serving loop captured in :meth:`run_async`.
        """
        loop = self._loop
        if loop is None or loop.is_closed():
            return  # not serving; nothing to drain
        try:
            on_loop = asyncio.get_running_loop() is loop
        except RuntimeError:
            on_loop = False
        if on_loop:
            self._begin_drain_on_loop(why)
        else:
            loop.call_soon_threadsafe(self._begin_drain_on_loop, why)

    def _begin_drain_on_loop(self, why: str) -> None:
        if self.draining:
            return
        self.draining = True
        _LOG.info("drain started (%s)", why)
        obs.get_metrics().counter("serve.drains").inc()
        obs.event("serve.drain", why=why)
        if self._server is not None:
            self._server.close()
        assert self._loop is not None
        self._loop.create_task(self._await_quiesce(why))

    async def _await_quiesce(self, why: str) -> None:
        deadline = time.monotonic() + self.drain_grace_s
        while time.monotonic() < deadline and (
            self._active > 0 or self.coalescer.inflight() > 0
        ):
            await asyncio.sleep(0.05)
        obs.ledger_record(
            "serve",
            event="drain",
            why=why,
            finished_in_grace=self._active == 0,
            active_left=self._active,
        )
        if self._drained is not None:
            self._drained.set()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.pool.shutdown(grace_s=2.0)
        if self.store is not None:
            self.store.close()
        _LOG.info("drained; exiting")

    # -- connection plumbing --------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._active += 1
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                response = await self.handle(request)
            except HttpError as exc:
                response = Response(
                    exc.status,
                    error_body(ServeError("bad-request", exc.message)),
                )
            except Exception:
                _LOG.exception("unhandled error in request handler")
                response = Response(
                    500,
                    error_body(
                        ServeError("worker-failed", "internal server error")
                    ),
                )
            try:
                await write_response(writer, response)
            except (ConnectionError, OSError):
                pass  # client went away; nothing to salvage
        finally:
            self._active -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- routing ---------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        metrics = obs.get_metrics()
        metrics.counter("serve.requests").inc()
        t0 = time.perf_counter()
        route, handler = self._route(request)
        metrics.counter(f"serve.requests.{route}").inc()
        response = await handler(request)
        wall = time.perf_counter() - t0
        metrics.counter(f"serve.responses.{response.status}").inc()
        metrics.histogram("serve.request.wall_s").observe(wall)
        if route in ("compile", "experiment"):
            body = response.body
            obs.ledger_record(
                "serve",
                event="request",
                route=route,
                status=response.status,
                wall_s=round(wall, 6),
                coalesced=bool(body.get("coalesced")),
                degraded=bool(body.get("degradation")),
            )
        return response

    def _route(
        self, request: Request
    ) -> tuple[str, Callable[[Request], Awaitable[Response]]]:
        method, path = request.method, request.path.rstrip("/") or "/"
        if method == "POST" and path == "/compile":
            return "compile", self._handle_compile
        if method == "POST" and path == "/experiment":
            return "experiment", self._handle_experiment
        if method == "GET" and path.startswith("/artifact/"):
            return "artifact", self._handle_artifact
        if method == "GET" and path == "/healthz":
            return "healthz", self._handle_healthz
        if method == "GET" and path == "/readyz":
            return "readyz", self._handle_readyz
        if method == "GET" and path == "/stats":
            return "stats", self._handle_stats
        return "unknown", self._handle_not_found

    # -- the two work endpoints -----------------------------------------

    async def _handle_compile(self, request: Request) -> Response:
        return await self._handle_work(
            request, normalize_compile_request, compile_request_key
        )

    async def _handle_experiment(self, request: Request) -> Response:
        return await self._handle_work(
            request, normalize_experiment_request, experiment_request_key
        )

    async def _handle_work(
        self, request: Request, normalize, key_of
    ) -> Response:
        if self.draining:
            return self._error(
                503,
                ServeError(
                    "draining",
                    "daemon is draining; not accepting new work",
                    retry_after_s=self.drain_grace_s,
                ),
            )
        try:
            # Validation imports modules lazily on this thread: never
            # while the pool forks a worker.
            with FORK_LOCK:
                job = normalize(request.json())
        except RequestError as exc:
            return self._error(400, ServeError("bad-request", str(exc)))
        key = key_of(job)
        job["label"] = f"{job['kind']}:{key[:12]}"
        decision = self.admission.try_admit()
        if not decision.admitted:
            obs.get_metrics().counter("serve.shed").inc()
            obs.get_metrics().counter(f"serve.shed.{decision.reason}").inc()
            obs.ledger_record(
                "serve",
                event="shed",
                route=job["kind"],
                **decision.degradation().to_json(),
            )
            return self._error(
                429,
                ServeError(
                    "overloaded",
                    f"admission control shed this request ({decision.reason})",
                    retry_after_s=decision.retry_after_s,
                    detail={"reason": decision.reason},
                ),
            )
        try:
            with FORK_LOCK:
                answer = self._door(job, key)
            if answer is not None:
                return Response(200, success_body(answer, cached=True))
            result, coalesced = await self.coalescer.run(
                key, lambda: self._run_leader(key, job)
            )
        except _Quarantined as exc:
            return self._error(
                422,
                ServeError(
                    "spec-quarantined",
                    f"this request's content hash {key[:12]}… is "
                    f"quarantined after repeated worker failures",
                    retry_after_s=exc.retry_after_s,
                    detail={"key": key},
                ),
            )
        except (WorkerCrash, WorkerTimeout, JobFailed) as exc:
            return self._error(
                500,
                ServeError(
                    "worker-failed",
                    str(exc),
                    detail={"key": key, "kind": type(exc).__name__},
                ),
            )
        finally:
            self.admission.release()
        return Response(
            200,
            success_body(
                result,
                coalesced=coalesced,
                degradation=result.get("degradation"),
                cached=result.get("cached"),
            ),
        )

    def _door(self, job: dict, key: str) -> Optional[dict]:
        """The stored warm answer to ``job``, or None to run it.

        A stored answer is a verified success, so neither the spec
        breaker nor coalescing applies; only a native request waits for
        a closed toolchain breaker, because an open one rewrites it.
        """
        if self.store is None or (
            job.get("engine") == "native"
            and self.toolchain_breaker.state != CLOSED
        ):
            return None
        answer = stored_answer(self.store, job, key)
        if answer is not None:
            obs.get_metrics().counter("serve.door.hits").inc()
        return answer

    async def _run_leader(self, key: str, job: dict) -> dict:
        """The single flight for one request hash: quarantine gate, the
        toolchain breaker, and bounded crash/timeout retries."""
        breaker = self.spec_breakers.breaker(key)
        if not breaker.allow():
            obs.get_metrics().counter("serve.quarantine_rejects").inc()
            raise _Quarantined(key, breaker.retry_after_s())
        attempts = self.crash_retries + 1
        last_exc: Optional[BaseException] = None
        for attempt in range(attempts):
            dispatch = dict(job)
            forced = None
            if job.get("engine") == "native" and not self.toolchain_breaker.allow():
                dispatch["engine"] = "vectorized"
                forced = {
                    "reason": "toolchain-breaker-open",
                    "detail": (
                        "native toolchain circuit breaker is "
                        f"{self.toolchain_breaker.state}; ran the "
                        "vectorized engine instead"
                    ),
                    "fallback": "vectorized-engine",
                    "data": {
                        "retry_after_s": round(
                            self.toolchain_breaker.retry_after_s(), 3
                        )
                    },
                }
            native = dispatch.get("engine") == "native"
            try:
                result = await asyncio.wrap_future(self.pool.submit(dispatch))
            except (WorkerCrash, WorkerTimeout) as exc:
                last_exc = exc
                breaker.record_failure()
                if native:
                    # A killed native job may be a wedged cc just as well
                    # as a poisoned spec: inform both breakers.
                    self.toolchain_breaker.record_failure()
                obs.get_metrics().counter("serve.job_retries").inc()
                continue
            except JobFailed as exc:
                last_exc = exc
                if native and "serve.toolchain" in str(exc):
                    # Injected/real toolchain fault: not the spec's fault.
                    self.toolchain_breaker.record_failure()
                    obs.get_metrics().counter("serve.job_retries").inc()
                    continue
                breaker.record_failure()
                raise
            breaker.record_success()
            degradation = result.get("degradation")
            if native:
                if degradation and degradation.get("reason") in TOOLCHAIN_REASONS:
                    self.toolchain_breaker.record_failure()
                else:
                    self.toolchain_breaker.record_success()
            if forced is not None:
                # The pipeline ran (and verified) on the fallback engine;
                # report the rewrite truthfully in the envelope.
                result = dict(result)
                result["degradation"] = forced
            return result
        assert last_exc is not None
        raise last_exc

    # -- read-only endpoints --------------------------------------------

    async def _handle_artifact(self, request: Request) -> Response:
        key = request.path[len("/artifact/"):]
        if not key or not set(key) <= _KEY_OK:
            return self._error(
                400, ServeError("bad-request", f"malformed artifact key {key!r}")
            )
        if self.store is None:
            return self._error(
                404,
                ServeError(
                    "not-found", "daemon is running without a store "
                    "(--cache-dir not set); artifacts are not retained"
                ),
            )
        body = self.store.get(key)
        if body is None:
            return self._error(
                404, ServeError("not-found", f"no artifact under key {key!r}")
            )
        return Response(
            200, {"ok": True, "key": key, "artifact": body}
        )

    async def _handle_healthz(self, request: Request) -> Response:
        return Response(
            200,
            {
                "ok": True,
                "uptime_s": round(time.time() - self.started_at, 3),
                "draining": self.draining,
            },
        )

    async def _handle_readyz(self, request: Request) -> Response:
        pool = self.pool.snapshot()
        ready = not self.draining and pool["alive"] > 0
        status = 200 if ready else 503
        body = {"ok": ready, "draining": self.draining, "workers_alive": pool["alive"]}
        if not ready:
            body["error"] = ServeError(
                "draining" if self.draining else "worker-failed",
                "draining" if self.draining else "no live workers",
            ).to_json()
        return Response(status, body)

    async def _handle_stats(self, request: Request) -> Response:
        counters = obs.get_metrics().snapshot().get("counters", {})
        return Response(
            200,
            {
                "ok": True,
                "uptime_s": round(time.time() - self.started_at, 3),
                "draining": self.draining,
                "pool": self.pool.snapshot(),
                "admission": self.admission.snapshot(),
                "coalescer": self.coalescer.snapshot(),
                "breakers": {
                    "spec": self.spec_breakers.snapshot(),
                    "toolchain": self.toolchain_breaker.snapshot(),
                },
                "counters": {
                    name: counters[name]
                    for name in sorted(counters)
                    if name.startswith(("serve.", "store.", "pipeline.", "sim."))
                },
            },
        )

    async def _handle_not_found(self, request: Request) -> Response:
        return self._error(
            404,
            ServeError(
                "not-found",
                f"no route {request.method} {request.path}",
            ),
        )

    @staticmethod
    def _error(status: int, error: ServeError) -> Response:
        headers = {}
        if error.retry_after_s is not None:
            # HTTP wants integral seconds; never advertise 0 (self-DoS).
            headers["retry-after"] = str(max(1, int(round(error.retry_after_s))))
        return Response(status, error_body(error), headers=headers)


def serve_main(args) -> int:
    """Run the daemon from parsed CLI args (see ``repro serve --help``)."""
    app = ServeApp(
        cache_dir=args.cache_dir,
        workers=args.workers,
        deadline_s=args.deadline if args.deadline and args.deadline > 0 else None,
        rate_per_s=args.rate,
        burst=args.burst,
        max_inflight=args.max_inflight,
        memory_mb=args.memory_mb,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        crash_retries=args.crash_retries,
        drain_grace_s=args.drain_grace,
    )

    def announce(host: str, port: int) -> None:
        # Machine-readable readiness line: tests and scripts wait for it.
        print(f"repro-serve listening on http://{host}:{port}", flush=True)

    try:
        asyncio.run(app.run_async(args.host, args.port, ready=announce))
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    return 0
