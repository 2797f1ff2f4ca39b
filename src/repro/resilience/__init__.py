"""``repro.resilience`` — budgets, retries, checkpoints, fault injection.

The cross-cutting robustness layer (DESIGN.md §12).  Four pillars:

- **Budgets & graceful degradation** (:mod:`repro.resilience.budget`):
  a :class:`Budget` of wall time / node count / memory watermark turns
  an unbounded branch-and-bound search into one that always answers —
  the paper's trivial UOV ``ov0`` is the certified fallback — with a
  structured :class:`Degradation` record instead of an exception.
- **Retries** (:mod:`repro.resilience.retry`): bounded
  :class:`RetryPolicy` with exponential backoff and deterministic
  jitter.
- **Checkpoints & quarantine** (:mod:`repro.resilience.checkpoint`,
  :mod:`repro.resilience.quarantine`): JSONL run checkpoints so a
  killed run resumes with zero redundant work; poisoned tasks are
  recorded, not fatal.
- **Fault injection** (:mod:`repro.resilience.faults`): a
  deterministic, seedable :class:`FaultPlan` (env/CLI-armed, inherited
  by worker processes) that proves every recovery path in the chaos
  suite, including the store's cache self-healing (digest-verified
  reads, atomic writes, ``.corrupt/`` quarantine; see
  :mod:`repro.store.backend`).

Everything reports through obs as ``resilience.*`` counters: retries,
quarantines, degradations, corrupt-cache hits, injected faults,
checkpoint-resumed results.
"""

from repro.resilience.budget import (
    Budget,
    BudgetMeter,
    Degradation,
    record_degradation,
    rss_mb,
)
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointWriter,
    load_checkpoint,
)
from repro.resilience.faults import (
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    InjectedTransient,
    active_plan,
    install_plan,
    maybe_corrupt,
    maybe_fault,
    reset_plan,
)
from repro.resilience.quarantine import QuarantineRecord
from repro.resilience.retry import RetryPolicy

__all__ = [
    "Budget",
    "BudgetMeter",
    "Checkpoint",
    "CheckpointWriter",
    "Degradation",
    "FaultPlan",
    "FaultRule",
    "InjectedCrash",
    "InjectedFault",
    "InjectedTransient",
    "QuarantineRecord",
    "RetryPolicy",
    "active_plan",
    "install_plan",
    "load_checkpoint",
    "maybe_corrupt",
    "maybe_fault",
    "record_degradation",
    "reset_plan",
    "rss_mb",
]
