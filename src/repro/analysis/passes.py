"""The lint pass registry and driver behind ``repro lint``.

Each pass is a named analysis over one :class:`LintTarget` — a benchmark
code with all its versions instantiated at small, deliberately
non-power-of-two lint sizes — reporting through the
:class:`~repro.analysis.diag.Diagnostics` engine.  The driver
(:func:`run_lint`) builds the targets from the shipped code registry,
runs every (or a selected subset of) registered pass over each, and
returns the collected findings; the CLI turns them into text/JSON output
and the ``--fail-on`` exit code.

Built-in passes and their codes:

=====================  =======  ==============================================
pass                   codes    meaning
=====================  =======  ==============================================
``applicability``      APP001   program fails a Section 2 precondition
                       APP002   declared stencil != extracted stencil
``schedule-legality``  SCH001   a version's schedule breaks a dependence
                       SCH002   a schedule mis-enumerates the ISG
``uov-certificate``    UOV001   an OV mapping's vector is not universal
``uov-symbolic-``      SYM001   symbolically refuted for every box size
``certificate``        SYM002   symbolic vs enumerative disagreement
                       SYM003   degraded to the enumerative path (info)
``storage-race``       RACE001  schedule-independent mapping has a race
                       RACE002  schedule-dependent mapping's expected races
                       RACE003  mapping illegal even under its own schedule
``storage-accounting`` STO001   allocated size differs from the table formula
``differential-fuzz``  FUZ001   static and dynamic verdicts disagree
=====================  =======  ==============================================

The full code catalogue (severity, emitter, meaning) lives in the
finding registry of :mod:`repro.analysis.diag`, rendered to
``docs/LINT_CODES.md`` by ``repro lint-codes``.

``RACE002`` is informational by design: a rolling buffer *is* racy under
schedules it was never built for — that is the paper's storage/schedule
trade-off, not a bug — but it must still be legal under its own schedule
(``RACE003`` guards that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from repro import obs
from repro.analysis.diag import Diagnostics, Severity
from repro.codes import MAKERS
from repro.codes.base import CodeVersion
from repro.core.stencil import Stencil
from repro.util.polyhedron import Polytope

__all__ = [
    "LintTarget",
    "LintPass",
    "lint_pass",
    "registered_passes",
    "build_target",
    "build_targets",
    "lint_target",
    "select_passes",
    "run_lint",
    "LINT_SIZES",
]

#: Per-code sizes the lint corpus is instantiated at.  Small enough that
#: exact region-restricted analyses are instant; non-power-of-two on
#: purpose so layout/collision bugs that powers of two mask stay visible.
LINT_SIZES: dict[str, dict[str, int]] = {
    "simple2d": {"n": 6, "m": 7},
    "stencil5": {"T": 5, "L": 9},
    "jacobi": {"T": 5, "L": 9},
    "psm": {"n0": 5, "n1": 6},
}


@dataclass(frozen=True)
class LintTarget:
    """One benchmark code instantiated at lint sizes."""

    name: str
    versions: Mapping[str, CodeVersion]
    sizes: Mapping[str, int]
    bounds: tuple[tuple[int, int], ...]
    region: Polytope
    stencil: Stencil
    fuzz: int = 0
    seed: int = 0
    #: Run the symbolic (size-parametric) certifier alongside the
    #: enumerative one (``repro lint --symbolic``).
    symbolic: bool = False

    def subject(self, version_key: Optional[str] = None) -> str:
        return self.name if version_key is None else f"{self.name}/{version_key}"


@dataclass(frozen=True)
class LintPass:
    name: str
    description: str
    run: Callable[[LintTarget, Diagnostics], None]
    #: Off-by-default passes run only when selected explicitly (or, for
    #: ``differential-fuzz``, when a fuzz budget is set).
    default: bool = True


_REGISTRY: dict[str, LintPass] = {}


def lint_pass(name: str, description: str, default: bool = True):
    """Register a pass; the decorated callable becomes its ``run``."""

    def decorate(fn):
        if name in _REGISTRY:
            raise ValueError(f"lint pass {name!r} registered twice")
        _REGISTRY[name] = LintPass(name, description, fn, default)
        return fn

    return decorate


def registered_passes() -> dict[str, LintPass]:
    return dict(_REGISTRY)


def _is_ov_mapping(mapping) -> bool:
    from repro.mapping.ov import OVMapping

    return isinstance(mapping, OVMapping)


def _schedule_independent(version: CodeVersion, mapping) -> bool:
    """Does this version claim safety under any legal schedule?

    Natural (injective) and OV mappings make that claim; versions flagged
    untilable (rolling buffers) trade it away for minimal storage.
    """
    from repro.mapping.optimized import RollingBufferMapping

    if isinstance(mapping, RollingBufferMapping):
        return False
    return version.tilable


# -- built-in passes ----------------------------------------------------------


@lint_pass(
    "applicability",
    "Section 2 preconditions: uniform refs, carried values, temporaries",
)
def _pass_applicability(target: LintTarget, diag: Diagnostics) -> None:
    from repro.analysis.legality import check_uov_applicability

    report = check_uov_applicability(
        target.versions[next(iter(target.versions))].code.program,
        sizes=target.sizes,
    )
    for problem in report.problems:
        diag.emit(
            "APP001",
            Severity.WARNING,
            target.subject(),
            f"UOV technique precondition violated: {problem}",
            fix_hint="the OV-mapped versions of this code are unsound",
        )
    if report.stencil is not None and report.stencil != target.stencil:
        diag.emit(
            "APP002",
            Severity.ERROR,
            target.subject(),
            f"declared stencil {list(target.stencil.vectors)} does not "
            f"match the extracted stencil {list(report.stencil.vectors)}",
            fix_hint="regenerate the code's source_distances from its IR",
        )


@lint_pass(
    "schedule-legality",
    "every version's schedule is a complete, dependence-respecting order",
)
def _pass_schedule_legality(target: LintTarget, diag: Diagnostics) -> None:
    from repro.analysis.legality import is_schedule_legal

    for key, version in target.versions.items():
        schedule = version.schedule(target.sizes)
        try:
            legal = is_schedule_legal(
                schedule.order(target.bounds),
                target.stencil,
                bounds=target.bounds,
            )
        except ValueError as exc:
            diag.emit(
                "SCH002",
                Severity.ERROR,
                target.subject(key),
                f"schedule {schedule!r} mis-enumerates the ISG: {exc}",
            )
            continue
        if not legal:
            diag.emit(
                "SCH001",
                Severity.ERROR,
                target.subject(key),
                f"schedule {schedule!r} violates a value dependence of "
                f"{list(target.stencil.vectors)}",
            )


@lint_pass(
    "uov-certificate",
    "statically certify every OV mapping's vector as universal",
)
def _pass_uov_certificate(target: LintTarget, diag: Diagnostics) -> None:
    from repro.analysis.certify import UOVCounterexample, certify

    memo: dict[tuple[int, ...], object] = {}
    for key, version in target.versions.items():
        mapping = version.mapping(target.sizes)
        if not _is_ov_mapping(mapping):
            continue
        ov = tuple(mapping.ov)
        result = memo.get(ov)
        if result is None:
            result = memo[ov] = certify(ov, target.stencil)
        if isinstance(result, UOVCounterexample):
            diag.emit(
                "UOV001",
                Severity.ERROR,
                target.subject(key),
                f"occupancy vector {ov} is not universal: "
                f"ov - {result.failing_vector} is outside the stencil cone"
                + (
                    f"; counterexample schedule over box {result.bounds} "
                    f"replays to a clobber"
                    if result.replayable
                    else ""
                ),
                fix_hint=(
                    f"any non-negative combination dominates; the initial "
                    f"UOV {target.stencil.initial_uov} is always safe"
                ),
                ov=list(ov),
                failing_vector=list(result.failing_vector),
                # The replay box the counterexample builder grew to —
                # JSON consumers reproduce the clobber from the payload
                # alone, without re-deriving the bounds.
                bounds=(
                    [list(b) for b in result.bounds]
                    if result.bounds is not None
                    else None
                ),
                replayable=result.replayable,
                writer=list(result.writer) if result.writer else None,
                victim=list(result.victim) if result.victim else None,
            )


@lint_pass(
    "uov-symbolic-certificate",
    "certify every OV mapping's vector for ALL box sizes symbolically",
    default=False,
)
def _pass_uov_symbolic(target: LintTarget, diag: Diagnostics) -> None:
    """Size-parametric certification (``repro lint --symbolic``).

    Every OV mapping's vector is decided for *every* box size by the
    parametric FM engine; the enumerative ``certify()`` verdict rides
    along inside each outcome as a built-in differential check, so a
    symbolic/enumerative disagreement (SYM002) can never pass silently.
    """
    from repro.analysis.symcert import symbolic_certify_code

    code = target.versions[next(iter(target.versions))].code
    memo: dict[tuple[int, ...], object] = {}
    for key, version in target.versions.items():
        mapping = version.mapping(target.sizes)
        if not _is_ov_mapping(mapping):
            continue
        ov = tuple(mapping.ov)
        outcome = memo.get(ov)
        if outcome is None:
            outcome = memo[ov] = symbolic_certify_code(
                code, ov, sizes=target.sizes
            )
        if outcome.verdict == "degraded":
            d = outcome.degradation
            diag.emit(
                "SYM003",
                Severity.INFO,
                target.subject(key),
                f"occupancy vector {ov} is outside the affine model "
                f"({d.reason}); certified enumeratively at "
                f"{dict(target.sizes)} instead",
                reason=d.reason,
                detail=d.detail,
                fallback=d.fallback,
            )
            continue
        if outcome.agreement is False:
            diag.emit(
                "SYM002",
                Severity.ERROR,
                target.subject(key),
                f"symbolic verdict {outcome.verdict!r} for {ov} "
                f"disagrees with the enumerative certifier — a decision-"
                f"procedure bug",
                ov=list(ov),
                symbolic=outcome.verdict,
            )
            continue
        if outcome.verdict == "rejected":
            cx = outcome.counterexample
            diag.emit(
                "SYM001",
                Severity.ERROR,
                target.subject(key),
                f"occupancy vector {ov} is not universal for ANY box "
                f"size: ov - {cx.failing_vector} is outside the stencil "
                f"cone"
                + (
                    f"; the violation first fits at sizes "
                    f"{cx.witness_sizes}"
                    if cx.witness_sizes
                    else ""
                ),
                fix_hint=(
                    f"the initial UOV {target.stencil.initial_uov} is "
                    f"always safe"
                ),
                ov=list(ov),
                failing_vector=list(cx.failing_vector),
                witness_sizes=cx.witness_sizes,
                confirmed=cx.confirmed,
            )


@lint_pass(
    "storage-race",
    "no colliding iteration pair's live ranges can overlap",
)
def _pass_storage_race(target: LintTarget, diag: Diagnostics) -> None:
    from repro.analysis.liveness import find_mapping_violation
    from repro.analysis.races import find_storage_races

    limit = 64  # the scan stops here, so a full list is a lower bound
    for key, version in target.versions.items():
        mapping = version.mapping(target.sizes)
        races = find_storage_races(
            mapping, target.stencil, target.region, limit=limit
        )
        if races:
            race = races[0]
            capped = len(races) >= limit
            count = f"{len(races)} or more" if capped else f"{len(races)}"
            if _schedule_independent(version, mapping):
                diag.emit(
                    "RACE001",
                    Severity.ERROR,
                    target.subject(key),
                    f"{count} storage race(s) in a mapping claimed "
                    f"schedule-independent; first: {race}",
                    fix_hint="the mapping reuses storage across live values",
                    races=len(races),
                    capped=capped,
                    first=[list(race.first), list(race.second)],
                    location=race.location,
                )
            else:
                diag.emit(
                    "RACE002",
                    Severity.INFO,
                    target.subject(key),
                    f"schedule-dependent mapping: {count} colliding "
                    f"pair(s) unordered by value dependences (safe only "
                    f"under its built schedule; this is the storage/"
                    f"schedule trade-off, not a defect)",
                    races=len(races),
                    capped=capped,
                )
        # Schedule-dependent or not, a version must at minimum be legal
        # under the schedule it ships with.
        schedule = version.schedule(target.sizes)
        violation = find_mapping_violation(
            mapping, target.stencil, schedule.order(target.bounds)
        )
        if violation is not None:
            diag.emit(
                "RACE003",
                Severity.ERROR,
                target.subject(key),
                f"mapping is illegal under its own schedule: {violation}",
            )


@lint_pass(
    "storage-accounting",
    "allocated mapping size matches the published storage formula",
)
def _pass_storage_accounting(target: LintTarget, diag: Diagnostics) -> None:
    for key, version in target.versions.items():
        mapping = version.mapping(target.sizes)
        formula = version.storage(target.sizes)
        if mapping.size != formula:
            severity = (
                Severity.WARNING if mapping.size > formula else Severity.INFO
            )
            diag.emit(
                "STO001",
                severity,
                target.subject(key),
                f"mapping allocates {mapping.size} locations but the "
                f"storage formula claims {formula} at {dict(target.sizes)}",
                fix_hint="reconcile the Tables 1/2 formula with the mapping",
                allocated=mapping.size,
                formula=formula,
            )


@lint_pass(
    "differential-fuzz",
    "sampled random legal schedules agree with every static verdict",
    default=False,
)
def _pass_differential_fuzz(target: LintTarget, diag: Diagnostics) -> None:
    from repro.analysis.fuzz import (
        differential_fuzz_mapping,
        differential_fuzz_uov,
    )

    samples = target.fuzz or 5
    fuzzed_ovs: set[tuple[int, ...]] = set()
    for key, version in target.versions.items():
        mapping = version.mapping(target.sizes)
        if _is_ov_mapping(mapping) and tuple(mapping.ov) not in fuzzed_ovs:
            fuzzed_ovs.add(tuple(mapping.ov))
            report = differential_fuzz_uov(
                mapping.ov,
                target.stencil,
                target.bounds,
                samples=samples,
                seed=target.seed,
            )
        else:
            report = differential_fuzz_mapping(
                mapping,
                target.stencil,
                target.bounds,
                samples=samples,
                seed=target.seed,
            )
        for disagreement in report.disagreements:
            diag.emit(
                "FUZ001",
                Severity.ERROR,
                target.subject(key),
                f"static/dynamic disagreement: {disagreement}",
                samples=report.samples,
                seed=report.seed,
            )


# -- driver -------------------------------------------------------------------


def build_target(
    name: str,
    versions: Mapping[str, CodeVersion],
    sizes: Mapping[str, int],
    fuzz: int = 0,
    seed: int = 0,
    symbolic: bool = False,
) -> LintTarget:
    """Instantiate one lint target from an arbitrary version family.

    This is the single construction path shared by the shipped-corpus
    driver below and the pipeline's lint stage (which lints
    spec-synthesized codes at the spec's own sizes).
    """
    code = versions[next(iter(versions))].code
    bounds = tuple((int(lo), int(hi)) for lo, hi in code.bounds(sizes))
    return LintTarget(
        name=name,
        versions=versions,
        sizes=sizes,
        bounds=bounds,
        region=Polytope.from_loop_bounds(bounds),
        stencil=code.stencil,
        fuzz=fuzz,
        seed=seed,
        symbolic=symbolic,
    )


def build_targets(
    codes: Optional[Iterable[str]] = None,
    fuzz: int = 0,
    seed: int = 0,
    symbolic: bool = False,
) -> list[LintTarget]:
    names = list(codes) if codes is not None else sorted(MAKERS)
    targets = []
    for name in names:
        if name not in MAKERS:
            raise KeyError(
                f"unknown code {name!r}; one of {sorted(MAKERS)}"
            )
        versions = MAKERS[name]()
        sizes = LINT_SIZES.get(name)
        if sizes is None:
            raise KeyError(f"no lint sizes registered for code {name!r}")
        targets.append(
            build_target(
                name, versions, sizes, fuzz=fuzz, seed=seed,
                symbolic=symbolic,
            )
        )
    return targets


def select_passes(
    passes: Optional[Iterable[str]] = None,
    fuzz: int = 0,
    symbolic: bool = False,
) -> list[LintPass]:
    """Resolve a pass selection; unknown names raise ``KeyError``."""
    registry = registered_passes()
    if passes is None:
        selected = [p for p in registry.values() if p.default]
        if symbolic:
            selected.append(registry["uov-symbolic-certificate"])
        if fuzz > 0:
            selected.append(registry["differential-fuzz"])
        return selected
    names = list(passes)
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise KeyError(
            f"unknown lint pass(es) {unknown}; one of {sorted(registry)}"
        )
    return [registry[n] for n in names]


def lint_target(
    target: LintTarget,
    passes: Optional[Iterable[str]] = None,
    diag: Optional[Diagnostics] = None,
) -> Diagnostics:
    """Run the selected passes over one target — the single lint path
    used by both ``repro lint`` and the pipeline's lint stage."""
    if diag is None:
        diag = Diagnostics()
    for lint in select_passes(
        passes, fuzz=target.fuzz, symbolic=target.symbolic
    ):
        with obs.span("lint.pass", pass_name=lint.name, code=target.name):
            lint.run(target, diag)
    return diag


def run_lint(
    codes: Optional[Iterable[str]] = None,
    passes: Optional[Iterable[str]] = None,
    fuzz: int = 0,
    seed: int = 0,
    symbolic: bool = False,
    diag: Optional[Diagnostics] = None,
) -> Diagnostics:
    """Run lint passes over the shipped corpus and collect findings.

    ``passes=None`` runs every default pass, plus
    ``uov-symbolic-certificate`` when ``symbolic`` is set and
    ``differential-fuzz`` when ``fuzz > 0``.  Unknown code or pass names
    raise ``KeyError`` before any analysis runs (the CLI maps that to
    exit code 2).
    """
    if diag is None:
        diag = Diagnostics()
    # Fail fast on unknown pass names before any analysis runs.
    select_passes(passes, fuzz=fuzz, symbolic=symbolic)
    for target in build_targets(codes, fuzz=fuzz, seed=seed, symbolic=symbolic):
        lint_target(target, passes, diag)
    return diag
