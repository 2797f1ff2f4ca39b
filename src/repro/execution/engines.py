"""Engine selection: one name → one ``execute``-shaped callable.

The pipeline's execute stage, the CLI's ``--engine`` flag, and the
experiment harness all pick an engine by name; this module is the single
registry so they agree on the names and the dispatch.  All three engines
share the :class:`~repro.execution.interpreter.ExecutionResult` contract
and produce bit-identical live-out values on every legal version — the
choice is purely a speed/availability trade:

- ``interpreter`` — the scalar oracle; always available, slowest.
- ``vectorized`` — NumPy wavefront batches (~an order of magnitude);
  always available, falls back to scalar per (code, schedule) gaps.
- ``native`` — compiled C via ctypes (fastest); requires a toolchain
  and degrades to ``vectorized`` with a structured record otherwise.

``result.engine_used`` reports what actually ran, so callers that asked
for ``native`` on a compiler-less machine can see (and surface) the
degradation instead of silently trusting the requested name.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Mapping

from repro import obs
from repro.execution.interpreter import ExecutionResult, execute
from repro.execution.vectorized import execute_vectorized

__all__ = ["DEFAULT_ENGINE", "ENGINES", "run_engine", "run_engine_batch"]

#: Engine names in fallback-ladder order (fastest first).
ENGINES = ("native", "vectorized", "interpreter")

DEFAULT_ENGINE = "vectorized"


def run_engine_batch(
    engine: str,
    versions: Iterable,
    sizes: Mapping[str, int],
    seed: int = 0,
    check_legality: bool = False,
) -> list[ExecutionResult]:
    """Run each of ``versions`` through the named engine, in order.

    Unknown names raise ``ValueError`` listing the registry, so a typo'd
    ``--engine`` dies loudly instead of defaulting somewhere surprising.

    The native engine first builds the whole batch into one shared
    object (one compiler run, :func:`~repro.execution.native.
    native_runners`); the other engines run the versions one by one.
    Each version's run gets its own ``engine.run`` span, which records
    both the *requested* engine and ``engine_used`` — what actually
    produced the numbers — so a trace summary shows degraded native runs
    instead of hiding them.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; one of {list(ENGINES)}"
        )
    if engine == "native":
        from repro.execution.native import native_runners

        runners = native_runners(
            versions, sizes, seed=seed, check_legality=check_legality
        )
    else:
        run = execute if engine == "interpreter" else execute_vectorized
        runners = [
            partial(run, version, sizes, seed=seed,
                    check_legality=check_legality)
            for version in versions
        ]
    results = []
    for runner in runners:
        with obs.span("engine.run", requested=engine) as sp:
            result = runner()
            sp.set(engine_used=result.engine_used)
            obs.get_metrics().counter(
                f"engine.runs.{result.engine_used}"
            ).inc()
        results.append(result)
    return results


def run_engine(
    engine: str,
    version,
    sizes: Mapping[str, int],
    seed: int = 0,
    check_legality: bool = False,
) -> ExecutionResult:
    """Run ``version`` through the named engine: a batch of one."""
    (result,) = run_engine_batch(
        engine, [version], sizes, seed=seed, check_legality=check_legality
    )
    return result
