"""The serve daemon's job handlers: what its pool workers run.

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
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Optional

from repro.resilience.faults import maybe_fault

__all__ = ["execute_job", "serve_job"]


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


def _execute_compile(job: dict, cache_dir: Optional[str]) -> dict:
    from repro.frontend.spec import StencilSpec
    from repro.pipeline.cache import ArtifactCache
    from repro.pipeline.driver import compile_spec

    spec = StencilSpec.from_json(job["spec"])
    if job["engine"] == "native":
        # Deterministic stand-in for a wedged/crashing cc invocation.
        maybe_fault("serve.toolchain", label=spec.name)
    result = compile_spec(
        spec,
        sizes=job.get("sizes"),
        seed=job.get("seed"),
        lint=job.get("lint", False),
        execute=job.get("execute", True),
        codegen=job.get("codegen", False),
        cache=ArtifactCache(_kept_store(ArtifactCache.open_store, cache_dir)),
        engine=job["engine"],
    )
    execute = next((r for r in result.records if r.name == "execute"), None)
    artifact = execute.artifact if execute is not None else None
    return {
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
            {
                "name": r.name,
                "key": f"{r.name}-{r.key}",
                "cached": r.cached,
                "wall_s": round(r.wall_s, 6),
            }
            for r in result.records
        ],
        "cached": bool(result.records) and not result.stages_run,
        "degradation": getattr(artifact, "degradation", None),
        "outputs_sha256": getattr(artifact, "outputs_sha256", None),
    }


def _execute_experiment(job: dict, cache_dir: Optional[str]) -> dict:
    from dataclasses import asdict

    from repro.codes import get_version
    from repro.experiments.harness import SimTask, SimulationRunner
    from repro.machine.configs import MACHINES

    machine = next(m for m in MACHINES if m.name == job["machine"])
    version = get_version(job["code"], job["version"])
    task = SimTask.of(
        version,
        job["sizes"],
        machine,
        passes=job["passes"],
        seed=job["seed"],
    )
    runner = SimulationRunner(
        jobs=1, cache_dir=_kept_store(SimulationRunner.open_store, cache_dir)
    )
    try:
        sim = runner.run_tasks([task])[0]
        return {
            "task": task.label,
            "key": runner.task_key(task),
            "cached": runner.cache_hits > 0,
            "result": asdict(sim),
        }
    finally:
        runner.close()
