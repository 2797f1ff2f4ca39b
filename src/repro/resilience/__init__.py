"""``repro.resilience`` — budgets, retries, quarantine, fault injection.

The cross-cutting robustness layer (DESIGN.md §12).  Four pillars:

- **Budgets & graceful degradation** (:mod:`repro.resilience.budget`):
  a :class:`Budget` of wall time / node count / memory watermark turns
  an unbounded branch-and-bound search into one that always answers —
  the paper's trivial UOV ``ov0`` is the certified fallback — with a
  structured :class:`Degradation` record instead of an exception.
- **Retries** (:mod:`repro.resilience.retry`): bounded
  :class:`RetryPolicy` with exponential backoff and deterministic
  jitter.
- **Quarantine** (:mod:`repro.resilience.quarantine`): poisoned tasks
  are recorded, not fatal.  (A killed run resumes from the result
  store itself: every finished simulation is an atomic store entry;
  see :mod:`repro.experiments.harness`.)
- **Fault injection** (:mod:`repro.resilience.faults`): a
  deterministic, seedable :class:`FaultPlan` (env/CLI-armed, inherited
  by worker processes) that proves every recovery path in the chaos
  suite, including the store's cache self-healing (digest-verified
  reads, atomic writes, ``.corrupt/`` quarantine; see
  :mod:`repro.store.backend`).

Everything reports through obs as ``resilience.*`` counters: retries,
quarantines, degradations, corrupt-cache hits, injected faults.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "Budget",
    "BudgetMeter",
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
    "maybe_corrupt",
    "maybe_fault",
    "record_degradation",
    "reset_plan",
    "rss_mb",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.resilience.budget": (
            "Budget",
            "BudgetMeter",
            "Degradation",
            "record_degradation",
            "rss_mb",
        ),
        "repro.resilience.faults": (
            "FaultPlan",
            "FaultRule",
            "InjectedCrash",
            "InjectedFault",
            "InjectedTransient",
            "active_plan",
            "install_plan",
            "maybe_corrupt",
            "maybe_fault",
            "reset_plan",
        ),
        "repro.resilience.quarantine": ("QuarantineRecord",),
        "repro.resilience.retry": ("RetryPolicy",),
    },
)
