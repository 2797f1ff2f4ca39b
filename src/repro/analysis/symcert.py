"""Symbolic, size-parametric UOV certification.

:mod:`repro.analysis.certify` decides ``ov in UOV(V)`` with a search
over bounded coefficient enumerations, and its counterexamples carry a
"valid at these bounds" asterisk: every artifact is tied to one concrete
iteration box.  This module removes the asterisk.  The paper's DEAD-set
condition — ``ov`` is universal iff ``ov - vi`` lies in the non-negative
integer cone of the stencil for every stencil vector ``vi`` — is a pure
integer *feasibility* question, independent of the problem size, and the
room a violation needs inside a finite box is an *affine* question over
the symbolic sizes.  Both are decided exactly, once, by the parametric
Fourier-Motzkin engine of :mod:`repro.util.fm`:

- **safety**: for each ``vi`` the system ``{a >= 0, V a = ov - vi}`` is
  sampled for an integer witness; the witness rows form a
  :class:`SymbolicCertificate` that is machine-checkable by integer
  arithmetic alone and valid for *every* box size (the elimination trace
  is embedded as the auditable proof object);
- **refutation**: when some system is empty (an exact emptiness proof,
  dark-shadow tightened, splinter-complete), the violating configuration
  ``{q, q - ov, q - ov + vi} inside the parametric box`` is lowered to a
  second constraint system whose projection onto the size parameters
  says exactly which sizes exhibit the violation; its minimal integer
  sample gives concrete witness sizes, and the refutation is replayed
  through the enumerative :func:`~repro.analysis.certify.certify` (and
  its dynamic-schedule replay) for confirmation.

Non-affine subjects — opaque :class:`~repro.frontend.combine.SemanticsHook`
combine semantics on the spec path, bounds that the affine IR model
cannot reproduce, applicability failures — never produce a symbolic
verdict.  They degrade to the enumerative path with a structured
:class:`~repro.resilience.budget.Degradation` (the resilience idiom), so
a wrong verdict is impossible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from repro.analysis import SYMCERT_ENGINE_VERSION
from repro.analysis.certify import (
    UOVCertificate,
    UOVCounterexample,
    certify,
)
from repro.core.stencil import Stencil
from repro.ir.affine import AffineExpr
from repro.resilience.budget import Degradation, record_degradation
from repro.util.fm import (
    Constraint,
    FMBudgetExceeded,
    LinExpr,
    System,
    Trace,
)
from repro.util.vectors import IntVector, as_vector, is_zero, sub

__all__ = [
    "SYMCERT_ENGINE_VERSION",
    "SymbolicBounds",
    "SymbolicCertificate",
    "SymbolicCounterexample",
    "SymbolicOutcome",
    "cone_system",
    "violation_box_system",
    "symbolic_certify",
    "symbolic_certify_code",
    "symbolic_certify_spec",
]

#: Prefix of the cone-coefficient variables in lowered systems.
_COEFF = "a"


# -- symbolic bounds ----------------------------------------------------------


@dataclass(frozen=True)
class SymbolicBounds:
    """A parametric iteration box: affine ``(lo, hi)`` per dimension.

    Bounds may mention size parameters (``T``, ``L``) and — for
    non-rectangular nests — outer loop indices; both are just variables
    to the FM engine.  ``params`` lists the size symbols (kept during
    projection), ``indices`` the per-dimension iteration variables.
    """

    indices: tuple[str, ...]
    bounds: tuple[tuple[AffineExpr, AffineExpr], ...]
    params: tuple[str, ...]

    @staticmethod
    def from_program(program: "object") -> "SymbolicBounds":
        """Lift a :class:`~repro.ir.program.Program`'s loop bounds."""
        loop = program.loop  # type: ignore[attr-defined]
        return SymbolicBounds(
            indices=tuple(loop.indices),
            bounds=tuple(loop.bounds),
            params=tuple(program.size_symbols),  # type: ignore[attr-defined]
        )

    @staticmethod
    def from_spec(spec: "object") -> "SymbolicBounds":
        """Lift a validated :class:`~repro.frontend.spec.StencilSpec`."""
        return SymbolicBounds(
            indices=tuple(spec.indices),  # type: ignore[attr-defined]
            bounds=tuple(
                (AffineExpr.parse(lo), AffineExpr.parse(hi))
                for lo, hi in spec.bounds  # type: ignore[attr-defined]
            ),
            params=tuple(spec.size_symbols),  # type: ignore[attr-defined]
        )

    def to_json(self) -> dict:
        return {
            "indices": list(self.indices),
            "bounds": [[str(lo), str(hi)] for lo, hi in self.bounds],
            "params": list(self.params),
        }

    def concrete(self, sizes: Mapping[str, int]) -> tuple[tuple[int, int], ...]:
        """Evaluate to a concrete box (requires rectangular bounds)."""
        env = dict(sizes)
        return tuple(
            (lo.evaluate(env), hi.evaluate(env)) for lo, hi in self.bounds
        )


def _affine_to_lin(expr: AffineExpr, rename: Mapping[str, str]) -> LinExpr:
    return LinExpr.of(
        {rename.get(name, name): coeff for name, coeff in expr.coeffs},
        expr.const,
    )


# -- lowering -----------------------------------------------------------------


def cone_system(
    vectors: Sequence[Sequence[int]], target: Sequence[int]
) -> System:
    """``{a_j >= 0 integer : sum_j a_j v_j = target}`` as an FM system."""
    vecs = [as_vector(v) for v in vectors]
    target = as_vector(target)
    constraints: list[Constraint] = [
        Constraint(LinExpr.var(f"{_COEFF}{j}")) for j in range(len(vecs))
    ]
    for k in range(len(target)):
        coeffs = {f"{_COEFF}{j}": vecs[j][k] for j in range(len(vecs))}
        constraints.append(
            Constraint(LinExpr.of(coeffs, -target[k]), equality=True)
        )
    return System(constraints)


def violation_box_system(
    ov: Sequence[int],
    failing: Sequence[int],
    bounds: SymbolicBounds,
) -> System:
    """Sizes (and a writer point) at which the refutation has room.

    Variables are the writer coordinates ``q_k`` plus the size
    parameters; the constraints put the writer ``q``, the victim
    ``q - ov`` and the pending reader ``q - ov + failing`` inside the
    parametric box, with every parameter at least 1.  Projecting onto
    ``bounds.params`` yields the size conditions; a minimal integer
    sample gives concrete witness sizes.
    """
    ov = as_vector(ov)
    failing = as_vector(failing)
    rename = {ix: f"q{k}" for k, ix in enumerate(bounds.indices)}
    constraints: list[Constraint] = [
        Constraint(LinExpr.of({p: 1}, -1)) for p in bounds.params
    ]
    points: tuple[tuple[int, ...], ...] = (
        tuple(0 for _ in ov),  # q itself
        tuple(-c for c in ov),  # victim q - ov
        tuple(f - c for f, c in zip(failing, ov)),  # reader q - ov + vi
    )
    for offset in points:
        for k, (lo, hi) in enumerate(bounds.bounds):
            point_k = LinExpr.of({f"q{k}": 1}, offset[k])
            lo_lin = _affine_to_lin(lo, rename)
            hi_lin = _affine_to_lin(hi, rename)
            # lo <= q_k + off_k  and  q_k + off_k <= hi.  For bounds that
            # mention outer indices the renamed q-variables keep the
            # constraint affine; the *same* writer coordinates are used
            # for the displaced points' bound rows, a sound relaxation
            # for the near-rectangular nests this certifier accepts.
            constraints.append(Constraint(point_k.plus(lo_lin.scaled(-1))))
            constraints.append(Constraint(hi_lin.plus(point_k.scaled(-1))))
    return System(constraints)


# -- artifacts ----------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicCertificate:
    """Proof that ``ov`` is universal for **every** box size.

    ``rows`` are the integer witness combinations (one per stencil
    vector, same shape as
    :class:`~repro.analysis.certify.UOVCertificate.rows`) — checkable by
    addition alone via :meth:`verify`.  ``trace`` is the auditable
    record of the eliminations the FM engine performed per vector, and
    ``systems`` the lowered constraint systems they ran on.
    """

    ov: IntVector
    stencil: Stencil
    rows: dict[IntVector, dict[IntVector, int]]
    bounds: Optional[SymbolicBounds] = None
    trace: tuple[dict, ...] = ()
    engine: str = SYMCERT_ENGINE_VERSION

    def verify(self) -> bool:
        """Integer-arithmetic re-check of every witness row."""
        return UOVCertificate(self.ov, self.stencil, self.rows).verify()

    def to_json(self) -> dict:
        return {
            "verdict": "universal",
            "parametric": True,
            "engine": self.engine,
            "ov": list(self.ov),
            "stencil": [list(v) for v in self.stencil.vectors],
            "bounds": self.bounds.to_json() if self.bounds else None,
            "rows": [
                {
                    "vector": list(vi),
                    "combination": [
                        {"vector": list(vj), "coefficient": a}
                        for vj, a in sorted(row.items())
                    ],
                }
                for vi, row in sorted(self.rows.items())
            ],
            "proof": list(self.trace),
        }

    @staticmethod
    def from_json(data: Mapping) -> "SymbolicCertificate":
        stencil = Stencil(tuple(map(tuple, data["stencil"])))
        rows = {
            tuple(entry["vector"]): {
                tuple(item["vector"]): int(item["coefficient"])
                for item in entry["combination"]
            }
            for entry in data["rows"]
        }
        bounds = None
        if data.get("bounds"):
            raw = data["bounds"]
            bounds = SymbolicBounds(
                indices=tuple(raw["indices"]),
                bounds=tuple(
                    (AffineExpr.parse(lo), AffineExpr.parse(hi))
                    for lo, hi in raw["bounds"]
                ),
                params=tuple(raw["params"]),
            )
        return SymbolicCertificate(
            ov=tuple(data["ov"]),
            stencil=stencil,
            rows=rows,
            bounds=bounds,
            trace=tuple(data.get("proof", ())),
            engine=data.get("engine", SYMCERT_ENGINE_VERSION),
        )

    def __str__(self) -> str:
        scope = (
            f"all sizes of {self.bounds.to_json()['bounds']}"
            if self.bounds
            else "all box sizes"
        )
        return (
            f"{self.ov} is a universal occupancy vector of "
            f"{list(self.stencil.vectors)} for {scope} "
            f"({len(self.rows)} witness rows, engine {self.engine})"
        )


@dataclass(frozen=True)
class SymbolicCounterexample:
    """Size-parametric refutation of ``ov in UOV(V)``.

    ``size_conditions`` is the projection of the violation-box system
    onto the size parameters (which sizes have room for the violation);
    ``witness_sizes`` its minimal integer sample; ``enumerative`` the
    concrete :class:`~repro.analysis.certify.UOVCounterexample` the
    refutation was replayed through for confirmation.
    """

    ov: IntVector
    stencil: Stencil
    failing_vector: IntVector
    size_conditions: tuple[dict, ...] = ()
    witness_sizes: Optional[dict[str, int]] = None
    witness_point: Optional[IntVector] = None
    enumerative: Optional[UOVCounterexample] = None
    trace: tuple[dict, ...] = ()
    engine: str = SYMCERT_ENGINE_VERSION

    @property
    def confirmed(self) -> bool:
        """Did the enumerative replay exhibit a real clobber?"""
        return (
            self.enumerative is not None and self.enumerative.replayable
        )

    def to_json(self) -> dict:
        return {
            "verdict": "rejected",
            "parametric": True,
            "engine": self.engine,
            "ov": list(self.ov),
            "stencil": [list(v) for v in self.stencil.vectors],
            "failing_vector": list(self.failing_vector),
            "size_conditions": list(self.size_conditions),
            "witness_sizes": dict(self.witness_sizes)
            if self.witness_sizes
            else None,
            "witness_point": list(self.witness_point)
            if self.witness_point
            else None,
            "confirmed": self.confirmed,
            "enumerative": (
                self.enumerative.to_json() if self.enumerative else None
            ),
            "proof": list(self.trace),
        }

    def __str__(self) -> str:
        tail = (
            f"; violation fits at sizes {self.witness_sizes}"
            if self.witness_sizes
            else ""
        )
        return (
            f"{self.ov} is NOT universal (any size): ov - "
            f"{self.failing_vector} is outside the stencil cone{tail}"
        )


@dataclass(frozen=True)
class SymbolicOutcome:
    """What the symbolic certifier produced for one subject.

    Exactly one of ``certificate`` / ``counterexample`` is set for the
    ``universal`` / ``rejected`` verdicts; ``degraded`` outcomes carry
    the structured :class:`Degradation` plus the enumerative artifact
    the caller should trust instead.  ``enumerative`` is always
    populated (it doubles as the built-in differential cross-check).
    """

    verdict: str  # "universal" | "rejected" | "degraded"
    subject: str
    certificate: Optional[SymbolicCertificate] = None
    counterexample: Optional[SymbolicCounterexample] = None
    degradation: Optional[Degradation] = None
    enumerative: Optional[
        Union[UOVCertificate, UOVCounterexample]
    ] = None

    @property
    def agreement(self) -> Optional[bool]:
        """Symbolic vs. enumerative verdict agreement (None if degraded)."""
        if self.verdict == "degraded" or self.enumerative is None:
            return None
        enumerative_safe = isinstance(self.enumerative, UOVCertificate)
        return (self.verdict == "universal") == enumerative_safe

    def to_json(self) -> dict:
        record: dict = {"verdict": self.verdict, "subject": self.subject}
        if self.certificate is not None:
            record["certificate"] = self.certificate.to_json()
        if self.counterexample is not None:
            record["counterexample"] = self.counterexample.to_json()
        if self.degradation is not None:
            record["degradation"] = self.degradation.to_json()
        if self.enumerative is not None:
            record["enumerative"] = self.enumerative.to_json()
        if self.agreement is not None:
            record["agreement"] = self.agreement
        return record


# -- the decision procedure ---------------------------------------------------


def symbolic_certify(
    ov: Sequence[int],
    stencil: Stencil,
    bounds: Optional[SymbolicBounds] = None,
    replay: bool = True,
) -> Union[SymbolicCertificate, SymbolicCounterexample]:
    """Decide ``ov in UOV(V)`` for every box size, exactly.

    Raises :class:`~repro.util.fm.FMBudgetExceeded` when a system blows
    past the engine's safety ceilings (callers degrade to the
    enumerative path).  ``replay=False`` skips the enumerative
    confirmation of rejections.
    """
    ov = as_vector(ov)
    if len(ov) != stencil.dim:
        raise ValueError("occupancy vector dimensionality mismatch")
    if is_zero(ov):
        raise ValueError(
            "the zero vector directs no reuse and is never an occupancy "
            "vector"
        )
    rows: dict[IntVector, dict[IntVector, int]] = {}
    steps: list[dict] = []
    vectors = stencil.vectors
    for vi in vectors:
        target = sub(ov, vi)
        system = cone_system(vectors, target)
        trace = Trace()
        empty = system.is_empty(trace)
        step: dict = {
            "vector": list(vi),
            "target": list(target),
            "system": system.to_json(),
            "empty": empty,
            "steps": trace.to_json(),
        }
        if empty:
            steps.append(step)
            return _refute(ov, stencil, vi, bounds, steps, replay)
        witness = system.sample_point()
        if witness is None:
            # Exact emptiness said non-empty but integer sampling ran out
            # of budget: surface the rational-vertex fallback in the
            # trace and degrade rather than claim an unprovable row.
            rational = system.sample_rational()
            step["rational_witness"] = (
                {v: str(c) for v, c in rational.items()} if rational else None
            )
            steps.append(step)
            raise FMBudgetExceeded(
                f"integer witness sampling exhausted for ov - {vi}"
            )
        row = {
            vectors[j]: witness.get(f"{_COEFF}{j}", 0)
            for j in range(len(vectors))
        }
        row = {v: c for v, c in row.items() if c}
        step["witness"] = {str(list(v)): c for v, c in row.items()}
        steps.append(step)
        rows[vi] = row
    certificate = SymbolicCertificate(
        ov=ov,
        stencil=stencil,
        rows=rows,
        bounds=bounds,
        trace=tuple(steps),
    )
    if not certificate.verify():
        raise AssertionError(
            f"FM engine produced an invalid certificate for {ov}"
        )
    return certificate


def _refute(
    ov: IntVector,
    stencil: Stencil,
    failing: IntVector,
    bounds: Optional[SymbolicBounds],
    steps: list[dict],
    replay: bool,
) -> SymbolicCounterexample:
    size_conditions: tuple[dict, ...] = ()
    witness_sizes: Optional[dict[str, int]] = None
    witness_point: Optional[IntVector] = None
    if bounds is not None:
        box = violation_box_system(ov, failing, bounds)
        trace = Trace()
        projected = box.project(bounds.params, trace=trace)
        size_conditions = tuple(c.to_json() for c in projected.constraints)
        sample = box.sample_point()
        steps.append(
            {
                "violation_box": box.to_json(),
                "size_projection": [str(c) for c in projected.constraints],
                "steps": trace.to_json(),
                "sample": sample,
            }
        )
        if sample is not None:
            witness_sizes = {p: sample[p] for p in bounds.params if p in sample}
            witness_point = tuple(
                sample.get(f"q{k}", 0) for k in range(stencil.dim)
            )
    enumerative: Optional[UOVCounterexample] = None
    if replay:
        verdict = certify(ov, stencil)
        if not isinstance(verdict, UOVCounterexample):
            raise AssertionError(
                f"symbolic refutation of {ov} disagrees with the "
                f"enumerative certifier"
            )
        enumerative = verdict
    return SymbolicCounterexample(
        ov=ov,
        stencil=stencil,
        failing_vector=failing,
        size_conditions=size_conditions,
        witness_sizes=witness_sizes,
        witness_point=witness_point,
        enumerative=enumerative,
        trace=tuple(steps),
    )


# -- graceful wrappers --------------------------------------------------------


def _degrade(
    subject: str,
    ov: Sequence[int],
    stencil: Stencil,
    reason: str,
    detail: str,
) -> SymbolicOutcome:
    degradation = Degradation(
        reason=reason,
        detail=detail,
        fallback="enumerative-certify",
    )
    record_degradation(f"symcert.{subject}", degradation)
    return SymbolicOutcome(
        verdict="degraded",
        subject=subject,
        degradation=degradation,
        enumerative=certify(as_vector(ov), stencil),
    )


def _certify_outcome(
    subject: str,
    ov: Sequence[int],
    stencil: Stencil,
    bounds: Optional[SymbolicBounds],
) -> SymbolicOutcome:
    try:
        result = symbolic_certify(ov, stencil, bounds=bounds)
    except FMBudgetExceeded as exc:
        return _degrade(subject, ov, stencil, "fm-budget", str(exc))
    enumerative = (
        result.enumerative
        if isinstance(result, SymbolicCounterexample)
        and result.enumerative is not None
        else certify(as_vector(ov), stencil, counterexample_schedule=False)
    )
    if isinstance(result, SymbolicCertificate):
        return SymbolicOutcome(
            verdict="universal",
            subject=subject,
            certificate=result,
            enumerative=enumerative,
        )
    return SymbolicOutcome(
        verdict="rejected",
        subject=subject,
        counterexample=result,
        enumerative=enumerative,
    )


def symbolic_certify_code(
    code: "object",
    ov: Sequence[int],
    sizes: Optional[Mapping[str, int]] = None,
) -> SymbolicOutcome:
    """Certify ``ov`` against a benchmark :class:`~repro.codes.base.Code`.

    The symbolic bounds come from the code's affine IR; they are
    cross-checked against the code's concrete ``bounds`` callable at the
    given sizes, and any disagreement (an irregular nest the IR does not
    model) degrades to the enumerative path.
    """
    stencil: Stencil = code.stencil  # type: ignore[attr-defined]
    subject = getattr(code, "name", "<code>")
    try:
        bounds = SymbolicBounds.from_program(code.program)  # type: ignore[attr-defined]
    except (AttributeError, ValueError) as exc:
        return _degrade(
            subject, ov, stencil, "non-affine-bounds", f"no affine IR: {exc}"
        )
    if sizes:
        try:
            modeled = bounds.concrete(sizes)
            actual = tuple(
                (int(lo), int(hi))
                for lo, hi in code.bounds(sizes)  # type: ignore[attr-defined]
            )
        except (KeyError, ValueError, TypeError) as exc:
            return _degrade(
                subject,
                ov,
                stencil,
                "irregular-bounds",
                f"bounds not evaluable from the affine model: {exc}",
            )
        if modeled != actual:
            return _degrade(
                subject,
                ov,
                stencil,
                "irregular-bounds",
                f"affine IR bounds {modeled} != concrete bounds {actual} "
                f"at {dict(sizes)}",
            )
    return _certify_outcome(subject, ov, stencil, bounds)


def symbolic_certify_spec(
    spec: "object", ov: Optional[Sequence[int]] = None
) -> SymbolicOutcome:
    """Certify a spec's occupancy vector for all sizes.

    Specs whose semantics are opaque to the affine model — a
    :class:`~repro.frontend.combine.SemanticsHook` combine (the declared
    distances cannot be validated against an affine right-hand side) —
    degrade to the enumerative path rather than risk certifying a
    stencil the hook does not actually implement.
    """
    stencil = Stencil(spec.distances)  # type: ignore[attr-defined]
    subject = getattr(spec, "name", "<spec>")
    if ov is None:
        ov = getattr(spec, "uov", None)
        if ov is None:
            ov = stencil.initial_uov
    combine = getattr(spec, "combine", {})
    if isinstance(combine, Mapping) and combine.get("kind") == "hook":
        return _degrade(
            subject,
            ov,
            stencil,
            "opaque-semantics",
            f"combine hook {combine.get('name')!r} has no affine model; "
            "the declared distances cannot be symbolically validated",
        )
    try:
        bounds = SymbolicBounds.from_spec(spec)
    except (AttributeError, ValueError) as exc:
        return _degrade(
            subject, ov, stencil, "non-affine-bounds", str(exc)
        )
    return _certify_outcome(subject, ov, stencil, bounds)
