"""``repro.serve`` — the fault-tolerant compilation-and-experiment
daemon (DESIGN.md §17).

Layers, bottom up:

- :mod:`repro.serve.http` — a tiny asyncio HTTP/1.1 reader/writer with
  hard caps (never lets a malformed request near the app);
- :mod:`repro.serve.protocol` — request validation/canonicalisation and
  the success/error JSON envelopes;
- :mod:`repro.serve.workers` — the job handlers its crash-only worker
  pool (:mod:`repro.resilience.pool`) runs;
- :mod:`repro.serve.admission` — token-bucket / queue-depth / RSS gate;
- :mod:`repro.serve.coalesce` — single-flight coalescing on content hash;
- :mod:`repro.serve.breaker` — circuit breakers (per-spec quarantine
  board + the dedicated native-toolchain breaker);
- :mod:`repro.serve.app` — :class:`~repro.serve.app.ServeApp`, wiring it
  all behind ``repro serve``.
"""

from repro.serve.admission import AdmissionDecision, AdmissionGate
from repro.serve.app import ServeApp, serve_main
from repro.serve.breaker import BreakerBoard, CircuitBreaker
from repro.serve.coalesce import Coalescer
from repro.serve.protocol import (
    ERROR_CODES,
    RequestError,
    ServeError,
    compile_request_key,
    experiment_request_key,
    normalize_compile_request,
    normalize_experiment_request,
)
from repro.serve.workers import execute_job

__all__ = [
    "ERROR_CODES",
    "AdmissionDecision",
    "AdmissionGate",
    "BreakerBoard",
    "CircuitBreaker",
    "Coalescer",
    "RequestError",
    "ServeApp",
    "ServeError",
    "compile_request_key",
    "execute_job",
    "experiment_request_key",
    "normalize_compile_request",
    "normalize_experiment_request",
    "serve_main",
]
