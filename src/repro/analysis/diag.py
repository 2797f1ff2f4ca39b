"""Structured lint diagnostics: findings, severities, renderers.

The static analyses report through this engine rather than printing or
raising: every observation becomes a :class:`Finding` with a stable code
(``UOV001``, ``RACE002``, ...), a severity, the subject it concerns
(``stencil5/ov``), a human message, and an optional fix hint plus
machine-readable ``data``.  A :class:`Diagnostics` collection renders as
terminal text or as JSON (the artifact CI uploads), mirrors every finding
into the obs metrics registry as ``lint.findings.<code>`` counters, and
computes the ``--fail-on`` exit-code contract:

- exit 0 — no finding at or above the threshold severity;
- exit 1 — at least one finding at/above the threshold;
- exit 2 — usage error (unknown code, unreadable output path), raised
  before any findings are produced.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional

from repro.obs.metrics import Metrics, get_metrics

__all__ = [
    "Severity",
    "Finding",
    "Diagnostics",
    "FindingSpec",
    "FINDING_REGISTRY",
    "finding_spec",
    "render_lint_codes_md",
]

#: Schema version of the JSON findings artifact.
DIAG_SCHEMA_VERSION = 1


class Severity(enum.IntEnum):
    """Ordered severities; comparisons follow the integer values."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; one of "
                f"{[s.name.lower() for s in cls]}"
            ) from None

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One diagnostic: what was found, where, how bad, how to fix it."""

    code: str
    severity: Severity
    subject: str
    message: str
    fix_hint: Optional[str] = None
    data: Mapping[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict:
        record = {
            "code": self.code,
            "severity": str(self.severity),
            "subject": self.subject,
            "message": self.message,
        }
        if self.fix_hint is not None:
            record["fix_hint"] = self.fix_hint
        if self.data:
            record["data"] = dict(self.data)
        return record

    def render(self) -> str:
        line = f"{self.severity!s:<7} {self.code:<8} {self.subject}: {self.message}"
        if self.fix_hint:
            line += f"\n        hint: {self.fix_hint}"
        return line


class Diagnostics:
    """An append-only collection of findings with renderers and metrics.

    Every ``add``/``emit`` bumps ``lint.findings`` plus the per-code and
    per-severity counters, so CI dashboards can gate on
    ``lint.findings.RACE001`` without parsing the report.
    """

    def __init__(self, metrics: Optional[Metrics] = None):
        self._findings: list[Finding] = []
        self._metrics = metrics if metrics is not None else get_metrics()

    # -- collection -------------------------------------------------------

    def add(self, finding: Finding) -> Finding:
        self._findings.append(finding)
        self._metrics.counter("lint.findings").inc()
        self._metrics.counter(f"lint.findings.{finding.code}").inc()
        self._metrics.counter(f"lint.severity.{finding.severity}").inc()
        return finding

    def emit(
        self,
        code: str,
        severity: Severity,
        subject: str,
        message: str,
        fix_hint: Optional[str] = None,
        **data: Any,
    ) -> Finding:
        return self.add(
            Finding(code, severity, subject, message, fix_hint, data)
        )

    # -- queries ----------------------------------------------------------

    @property
    def findings(self) -> tuple[Finding, ...]:
        return tuple(self._findings)

    def __len__(self) -> int:
        return len(self._findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self._findings)

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self._findings if f.severity == severity)

    def max_severity(self) -> Optional[Severity]:
        if not self._findings:
            return None
        return max(f.severity for f in self._findings)

    def exit_code(self, fail_on: Severity = Severity.ERROR) -> int:
        """The ``--fail-on`` contract: 1 iff any finding reaches the bar."""
        worst = self.max_severity()
        return 1 if worst is not None and worst >= fail_on else 0

    # -- renderers ---------------------------------------------------------

    def summary(self) -> str:
        parts = []
        for severity in (Severity.ERROR, Severity.WARNING, Severity.INFO):
            n = self.count(severity)
            if n:
                plural = "" if n == 1 else "s"
                parts.append(f"{n} {severity}{plural}")
        if not parts:
            return "clean: no findings"
        return ", ".join(parts) + f" ({len(self._findings)} findings)"

    def render_text(self) -> str:
        lines = [f.render() for f in self._findings]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "schema": DIAG_SCHEMA_VERSION,
            "findings": [f.to_json() for f in self._findings],
            "summary": {
                "total": len(self._findings),
                "errors": self.count(Severity.ERROR),
                "warnings": self.count(Severity.WARNING),
                "infos": self.count(Severity.INFO),
            },
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=False)


# -- the finding registry ------------------------------------------------------


@dataclass(frozen=True)
class FindingSpec:
    """Registry entry for one stable diagnostic code.

    ``severity`` is the *typical* severity as emitted; ``emitter`` names
    the lint pass or subsystem that produces it.  The registry is the
    single source of truth behind ``docs/LINT_CODES.md`` (generated by
    ``repro lint-codes``, freshness-checked in CI) and the
    registry-coverage test that keeps ad-hoc codes from creeping in.
    """

    code: str
    severity: str
    emitter: str
    meaning: str


#: Every stable diagnostic code, in display order.
FINDING_REGISTRY: tuple[FindingSpec, ...] = (
    FindingSpec(
        "APP001", "warning", "applicability",
        "the program violates a Section 2 precondition of the UOV "
        "technique (non-uniform references, uncarried values, exposed "
        "temporaries)",
    ),
    FindingSpec(
        "APP002", "error", "applicability",
        "the code's declared stencil differs from the stencil extracted "
        "from its IR",
    ),
    FindingSpec(
        "SCH001", "error", "schedule-legality",
        "a version's schedule orders some consumer before its producer, "
        "violating a value dependence",
    ),
    FindingSpec(
        "SCH002", "error", "schedule-legality",
        "a schedule mis-enumerates the iteration-space graph (missing, "
        "duplicated, or out-of-box points)",
    ),
    FindingSpec(
        "UOV001", "error", "uov-certificate",
        "an OV mapping's occupancy vector is not universal; the payload "
        "carries the failing stencil vector and, when a counterexample "
        "schedule was built, the grown replay bounds",
    ),
    FindingSpec(
        "SYM001", "error", "uov-symbolic-certificate",
        "the symbolic certifier refuted the occupancy vector for every "
        "box size; the payload carries the witness sizes at which the "
        "violation first fits",
    ),
    FindingSpec(
        "SYM002", "error", "uov-symbolic-certificate",
        "the symbolic verdict disagrees with the enumerative certify() "
        "verdict — a decision-procedure bug, never acceptable",
    ),
    FindingSpec(
        "SYM003", "info", "uov-symbolic-certificate",
        "the subject is outside the affine model (opaque combine hook, "
        "irregular bounds, engine budget) and degraded to the "
        "enumerative path with a structured Degradation",
    ),
    FindingSpec(
        "RACE001", "error", "storage-race",
        "a mapping claimed schedule-independent reuses storage across "
        "values whose live ranges can overlap under some legal schedule",
    ),
    FindingSpec(
        "RACE002", "info", "storage-race",
        "a schedule-dependent mapping (rolling buffer) has colliding "
        "pairs unordered by dependences — the paper's storage/schedule "
        "trade-off, not a defect",
    ),
    FindingSpec(
        "RACE003", "error", "storage-race",
        "a mapping is illegal even under the schedule it ships with",
    ),
    FindingSpec(
        "FUZ001", "error", "differential-fuzz",
        "a sampled random legal schedule disagrees with a static verdict",
    ),
    FindingSpec(
        "RES001", "warning", "pipeline lint stage",
        "the pipeline's UOV search degraded (budget cut, crash) and "
        "compiled with a certified fallback vector instead of the "
        "optimum",
    ),
    FindingSpec(
        "SPEC001", "error", "spec validation",
        "a spec field is missing or ill-typed",
    ),
    FindingSpec(
        "SPEC002", "error", "spec validation",
        "bad distance/UOV arity, or a distance that is not "
        "lexicographically positive",
    ),
    FindingSpec(
        "SPEC003", "error", "spec validation",
        "a loop bound is non-affine or mentions a loop index",
    ),
    FindingSpec(
        "SPEC004", "error", "spec validation",
        "a size symbol appears in the bounds without a default binding",
    ),
    FindingSpec(
        "SPEC005", "error", "spec validation",
        "a combine expression error (unknown kind, weight arity, "
        "unparseable expression)",
    ),
    FindingSpec(
        "SPEC006", "error", "spec validation",
        "an input rule error (unknown rule, bad parameter)",
    ),
    FindingSpec(
        "SPEC007", "error", "spec validation",
        "an unknown mapping or schedule directive",
    ),
    FindingSpec(
        "SPEC008", "error", "spec validation",
        "unusable size bindings (non-positive extent, empty iteration "
        "space)",
    ),
)

_REGISTRY_BY_CODE = {spec.code: spec for spec in FINDING_REGISTRY}


def finding_spec(code: str) -> Optional[FindingSpec]:
    """Look up the registry entry for a stable code (None if unknown)."""
    return _REGISTRY_BY_CODE.get(code)


def render_lint_codes_md() -> str:
    """Render the registry as the ``docs/LINT_CODES.md`` document."""
    lines = [
        "# Lint finding codes",
        "",
        "Every diagnostic the analyses emit carries one of these stable",
        "codes.  This file is **generated** from the finding registry in",
        "`src/repro/analysis/diag.py` by `repro lint-codes`; edit the",
        "registry, not this file (CI asserts the two agree via",
        "`repro lint-codes --check`).",
        "",
        "| Code | Severity | Emitted by | Meaning |",
        "| --- | --- | --- | --- |",
    ]
    for spec in FINDING_REGISTRY:
        meaning = " ".join(spec.meaning.split())
        lines.append(
            f"| `{spec.code}` | {spec.severity} | {spec.emitter} "
            f"| {meaning} |"
        )
    lines.append("")
    return "\n".join(lines)
