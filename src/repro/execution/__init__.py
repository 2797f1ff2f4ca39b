"""Execution: interpret codes, trace their memory accesses, simulate cost.

- :mod:`repro.execution.interpreter` — runs a :class:`~repro.codes.base.
  CodeVersion` and produces its numeric results (the correctness oracle).
- :mod:`repro.execution.vectorized` — the same computation, batch-at-a-
  time with NumPy; bit-identical to the interpreter, order-of-magnitude
  faster, with a warned scalar fallback when a version cannot batch.
- :mod:`repro.execution.native` — the same computation compiled to a
  shared object (generated C + discovered toolchain) and run through
  ctypes; bit-identical again, fastest, degrades to the vectorized
  engine with a structured record when no compiler exists.
- :mod:`repro.execution.engines` — the name → engine registry the
  pipeline, CLI ``--engine`` flag, and harness share.
- :mod:`repro.execution.trace` — the address trace the version's loop
  would issue, at cache-line granularity.
- :mod:`repro.execution.simulator` — trace + memory hierarchy + cost
  model = cycles per iteration, the paper's reported metric.
- :mod:`repro.execution.verify` — asserts that every version of a code
  computes bit-identical live-out values.
"""

from repro.execution.engines import (
    DEFAULT_ENGINE,
    ENGINES,
    run_engine,
    run_engine_batch,
)
from repro.execution.interpreter import ExecutionResult, execute
from repro.execution.multi import (
    MultiAssignmentPlan,
    execute_multi,
    plan_storage,
)
from repro.execution.simulator import SimResult, simulate
from repro.execution.trace import TraceLayout, line_trace
from repro.execution.vectorized import (
    VectorizationFallback,
    execute_vectorized,
)
from repro.execution.native import NativeFallback, execute_native
from repro.execution.verify import verify_versions

__all__ = [
    "execute",
    "execute_vectorized",
    "execute_native",
    "run_engine",
    "run_engine_batch",
    "ENGINES",
    "DEFAULT_ENGINE",
    "VectorizationFallback",
    "NativeFallback",
    "MultiAssignmentPlan",
    "plan_storage",
    "execute_multi",
    "ExecutionResult",
    "line_trace",
    "TraceLayout",
    "simulate",
    "SimResult",
    "verify_versions",
]
