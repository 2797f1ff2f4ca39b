"""Program analyses (Section 2 of the paper).

- :mod:`repro.analysis.dependence` — value-based dependence analysis for
  uniform references: extracts the constant-distance stencil.
- :mod:`repro.analysis.regions` — array region analysis: which elements a
  loop imports, exports, and uses as temporaries.
- :mod:`repro.analysis.legality` — is a schedule legal for a stencil; is a
  loop in the class the UOV technique handles.
- :mod:`repro.analysis.liveness` — dynamic ground truth: is a *storage
  mapping* legal under a concrete schedule (no value overwritten while
  still needed).
- :mod:`repro.analysis.certify` — static UOV certification: a
  machine-checkable certificate or a replayable counterexample schedule.
- :mod:`repro.analysis.symcert` — size-parametric certification: the
  same question decided for *all* box sizes by exact integer
  Fourier-Motzkin elimination, with auditable proof objects.
- :mod:`repro.analysis.races` — static storage-race detection for any
  mapping over a concrete ISG, without enumerating schedules.
- :mod:`repro.analysis.fuzz` — differential fuzzing of static verdicts
  against the dynamic checkers over sampled random legal schedules.
- :mod:`repro.analysis.diag` / :mod:`repro.analysis.passes` — the
  structured-findings engine and the pass registry behind ``repro lint``.
"""

from typing import TYPE_CHECKING

from repro.util.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.certify import (
        UOVCertificate,
        UOVCounterexample,
        certify,
    )
    from repro.analysis.dependence import (
        consumer_distances,
        extract_stencil,
        flow_distances,
    )
    from repro.analysis.diag import Diagnostics, Finding, Severity
    from repro.analysis.legality import (
        check_uov_applicability,
        is_schedule_legal,
    )
    from repro.analysis.liveness import is_mapping_legal
    from repro.analysis.races import StorageRace, find_storage_races
    from repro.analysis.regions import RegionSummary, analyse_regions
    from repro.analysis.symcert import (
        SymbolicCertificate,
        SymbolicCounterexample,
        SymbolicOutcome,
        symbolic_certify,
        symbolic_certify_code,
        symbolic_certify_spec,
    )

__all__ = [
    "extract_stencil",
    "consumer_distances",
    "flow_distances",
    "analyse_regions",
    "RegionSummary",
    "is_schedule_legal",
    "check_uov_applicability",
    "is_mapping_legal",
    "certify",
    "UOVCertificate",
    "UOVCounterexample",
    "symbolic_certify",
    "symbolic_certify_code",
    "symbolic_certify_spec",
    "SymbolicCertificate",
    "SymbolicCounterexample",
    "SymbolicOutcome",
    "StorageRace",
    "find_storage_races",
    "Severity",
    "Finding",
    "Diagnostics",
    "SYMCERT_ENGINE_VERSION",
]

#: Fingerprint of the symbolic decision procedure
#: (:mod:`repro.analysis.symcert`).  Folded into pipeline cache
#: payloads: bumping it (changed lowering, changed FM engine semantics)
#: invalidates cached proofs instead of silently trusting certificates
#: produced by an older prover.  It lives here, not in the prover, so
#: that a stage key can name the prover without loading it.
SYMCERT_ENGINE_VERSION = "fm-omega-1"

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.certify": (
            "UOVCertificate",
            "UOVCounterexample",
            "certify",
        ),
        "repro.analysis.dependence": (
            "consumer_distances",
            "extract_stencil",
            "flow_distances",
        ),
        "repro.analysis.diag": ("Diagnostics", "Finding", "Severity"),
        "repro.analysis.legality": (
            "check_uov_applicability",
            "is_schedule_legal",
        ),
        "repro.analysis.liveness": ("is_mapping_legal",),
        "repro.analysis.races": ("StorageRace", "find_storage_races"),
        "repro.analysis.regions": ("RegionSummary", "analyse_regions"),
        "repro.analysis.symcert": (
            "SymbolicCertificate",
            "SymbolicCounterexample",
            "SymbolicOutcome",
            "symbolic_certify",
            "symbolic_certify_code",
            "symbolic_certify_spec",
        ),
    },
)
