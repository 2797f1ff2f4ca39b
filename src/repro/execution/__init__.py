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

from repro.util.lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.execution.engines": (
            "DEFAULT_ENGINE",
            "ENGINES",
            "run_engine",
            "run_engine_batch",
        ),
        "repro.execution.interpreter": ("ExecutionResult", "execute"),
        "repro.execution.multi": (
            "MultiAssignmentPlan",
            "execute_multi",
            "plan_storage",
        ),
        "repro.execution.native": ("NativeFallback", "execute_native"),
        "repro.execution.simulator": ("SimResult", "simulate"),
        "repro.execution.trace": ("TraceLayout", "line_trace"),
        "repro.execution.vectorized": (
            "VectorizationFallback",
            "execute_vectorized",
        ),
        "repro.execution.verify": ("verify_versions",),
    },
)
