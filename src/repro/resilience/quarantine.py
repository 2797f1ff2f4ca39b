"""Quarantine records: poisoned work is recorded, not fatal.

When a task exhausts its retries (crash, timeout, or repeated
exceptions) the harness does not lose the run — it files a
:class:`QuarantineRecord` carrying the complete task identity (code,
mapping/version, sizes, seed, machine), the failure class, and the
attempt history, then moves on.  The record travels to the runner
telemetry (and from there the report's Telemetry appendix), the obs
metrics (``resilience.quarantines``), the run ledger's ``interrupted``
record, and — when the caller asked for strict semantics — the raised
error's message.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["QuarantineRecord"]


@dataclass(frozen=True)
class QuarantineRecord:
    """One task given up on, with everything needed to reproduce it."""

    site: str
    identity: dict
    error: str  # failure class: "crash" | "timeout" | "exception"
    message: str
    attempts: int
    history: tuple = field(default_factory=tuple)

    @property
    def label(self) -> str:
        parts = [f"{k}={v}" for k, v in sorted(self.identity.items())]
        return ", ".join(parts)

    def to_json(self) -> dict:
        return {
            "site": self.site,
            "identity": dict(self.identity),
            "error": self.error,
            "message": self.message,
            "attempts": self.attempts,
            "history": list(self.history),
        }

    def __str__(self) -> str:
        return (
            f"quarantined after {self.attempts} attempt(s) "
            f"[{self.error}]: {self.label} — {self.message}"
        )
