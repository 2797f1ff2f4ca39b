"""The serve daemon's job handlers, and the answers its door reads.

The workers themselves are the shared crash-only
:class:`~repro.resilience.pool.WorkerPool` (DESIGN.md §12); the daemon
builds it with :func:`serve_job` as the handler, so every request a
worker takes first passes the ``serve.worker`` fault site.

Fault sites (chaos grammar, DESIGN.md §12): ``serve.worker`` fires in
the worker as a job starts — ``REPRO_FAULTS=serve.worker:kill:times=2``
kills two workers mid-job across the whole daemon; ``serve.toolchain``
fires before a native-engine compile, so toolchain wedges are
deterministically reproducible.

A worker opens its ``pipeline.cache`` and ``harness.cache`` stores on
its first job and keeps them for the life of the process (each job still
builds a fresh cache over them, so every read verifies its digest); a
respawned worker opens them again.

**Answers** (DESIGN.md §17).  A compile job whose result carries no
degradation also writes one *answer* entry through its kept
``pipeline.cache`` store: what the reply needs (spec name, sizes, seed,
engines, stage names and keys, the outputs hash), keyed by
:func:`compile_answer_key` — the engine fingerprint and the request key
of the job the worker ran, so a native request that the toolchain
breaker rewrote is stored under the vectorized key.  An experiment's
answer is the harness's own result entry.  :func:`stored_answer` reads
either back for the daemon's door and builds the reply the worker
would have sent warm, every stage loaded and taking no time.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Optional

from repro.resilience.faults import maybe_fault
from repro.store.fingerprint import engine_fingerprint, hash_bytes

__all__ = ["compile_answer_key", "execute_job", "serve_job", "stored_answer"]


@functools.lru_cache(maxsize=None)
def _kept_store(open_store: Callable, cache_dir: Optional[str]):
    """``open_store(cache_dir)`` (None without a store), opened on this
    process's first job and kept for its life."""
    return open_store(cache_dir) if cache_dir is not None else None


def serve_job(job: dict, cache_dir: Optional[str] = None) -> dict:
    """The pool handler: the ``serve.worker`` fault site, then the job."""
    maybe_fault("serve.worker", label=job.get("label", job.get("kind", "")))
    return execute_job(job, cache_dir)


def execute_job(job: dict, cache_dir: Optional[str]) -> dict:
    """Run one job dict (a normalised request) to a JSON-able result.

    Top-level so the chaos/unit suites can call it in-process; the
    pool's workers call it through :func:`serve_job`.
    """
    kind = job.get("kind")
    if kind == "compile":
        return _execute_compile(job, cache_dir)
    if kind == "experiment":
        return _execute_experiment(job, cache_dir)
    if kind == "probe":  # health probe: proves the worker round-trips
        return {"pid": os.getpid()}
    raise ValueError(f"unknown job kind {kind!r}")


def compile_answer_key(request_key: str) -> str:
    """The store key of the answer to the compile job whose
    :func:`~repro.serve.protocol.compile_request_key` is ``request_key``,
    under the running engine (a changed engine never finds it)."""
    digest = hash_bytes(f"{engine_fingerprint()}\0{request_key}".encode(), 24)
    return f"answer-{digest}"


def stored_answer(store, job: dict, request_key: str) -> Optional[dict]:
    """The reply the worker would send to ``job`` warm, read from
    ``store``; None on a miss.  The read is the store's digest-verified
    ``get``: a corrupt entry heals and misses."""
    if job["kind"] == "compile":
        answer = store.get(compile_answer_key(request_key))
        try:
            return None if answer is None else _compile_reply(answer)
        except (KeyError, TypeError, ValueError):
            return None  # another schema: the worker writes it afresh
    from repro.experiments.harness import stored_result, task_key

    task = _sim_task(job)
    key = task_key(task)
    body = store.get(key)
    if stored_result(body) is None:
        return None
    return _experiment_reply(task, key, body, cached=True)


def _compile_reply(answer: dict, timings=None, degradation=None) -> dict:
    """The reply to a compile: ``answer`` plus each stage's ``cached``
    and ``wall_s``, from ``timings`` (one ``(cached, wall_s)`` per stage)
    or, for a stored answer, loaded and free."""
    if timings is None:
        timings = [(True, 0.0)] * len(answer["stages"])
    stages = [
        {
            "name": stage["name"],
            "key": stage["key"],
            "cached": cached,
            "wall_s": round(wall_s, 6),
        }
        for stage, (cached, wall_s) in zip(answer["stages"], timings)
    ]
    return {
        "spec": answer["spec"],
        "sizes": answer["sizes"],
        "seed": answer["seed"],
        "engine": answer["engine"],
        "engine_used": answer["engine_used"],
        "stages": stages,
        "cached": bool(stages) and all(stage["cached"] for stage in stages),
        "degradation": degradation,
        "outputs_sha256": answer["outputs_sha256"],
    }


def _experiment_reply(task, key: str, result: dict, cached: bool) -> dict:
    return {"task": task.label, "key": key, "cached": cached, "result": result}


def _sim_task(job: dict):
    from repro.codes import get_version
    from repro.experiments.harness import SimTask
    from repro.machine.configs import MACHINES

    machine = next(m for m in MACHINES if m.name == job["machine"])
    return SimTask.of(
        get_version(job["code"], job["version"]),
        job["sizes"],
        machine,
        passes=job["passes"],
        seed=job["seed"],
    )


def _execute_compile(job: dict, cache_dir: Optional[str]) -> dict:
    from repro.frontend.spec import StencilSpec
    from repro.pipeline.cache import ArtifactCache
    from repro.pipeline.driver import compile_spec
    from repro.serve.protocol import compile_request_key
    from repro.store.provenance import Provenance

    spec = StencilSpec.from_json(job["spec"])
    if job["engine"] == "native":
        # Deterministic stand-in for a wedged/crashing cc invocation.
        maybe_fault("serve.toolchain", label=spec.name)
    store = _kept_store(ArtifactCache.open_store, cache_dir)
    result = compile_spec(
        spec,
        sizes=job.get("sizes"),
        seed=job.get("seed"),
        lint=job.get("lint", False),
        execute=job.get("execute", True),
        codegen=job.get("codegen", False),
        cache=ArtifactCache(store),
        engine=job["engine"],
    )
    execute = next((r for r in result.records if r.name == "execute"), None)
    artifact = execute.artifact if execute is not None else None
    answer = {
        "spec": result.spec.name,
        "sizes": dict(result.sizes),
        "seed": result.seed,
        "engine": job["engine"],
        "engine_used": (
            getattr(artifact, "engine_used", job["engine"])
            if execute is not None
            else None
        ),
        "stages": [
            {"name": r.name, "key": f"{r.name}-{r.key}"}
            for r in result.records
        ],
        "outputs_sha256": getattr(artifact, "outputs_sha256", None),
    }
    degradation = getattr(artifact, "degradation", None)
    if store is not None and degradation is None:
        # Only a clean result is an answer: a degraded one reaches the
        # pool every time, so it keeps feeding the toolchain breaker.
        request_key = compile_request_key(job)
        store.put(
            compile_answer_key(request_key),
            answer,
            provenance=Provenance.now(
                op="serve-answer",
                inputs={"request": request_key},
                engine=engine_fingerprint(),
                extra={"spec_name": spec.name, "engine": job["engine"]},
            ),
            label=f"answer {spec.name} on {job['engine']}",
        )
    return _compile_reply(
        answer, [(r.cached, r.wall_s) for r in result.records], degradation
    )


def _execute_experiment(job: dict, cache_dir: Optional[str]) -> dict:
    from dataclasses import asdict

    from repro.experiments.harness import SimulationRunner, task_key

    task = _sim_task(job)
    runner = SimulationRunner(
        jobs=1, cache_dir=_kept_store(SimulationRunner.open_store, cache_dir)
    )
    try:
        sim = runner.run_tasks([task])[0]
        return _experiment_reply(
            task, task_key(task), asdict(sim), cached=runner.cache_hits > 0
        )
    finally:
        runner.close()
