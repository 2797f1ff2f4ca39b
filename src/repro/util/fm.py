"""Exact integer linear arithmetic by parametric Fourier-Motzkin.

This is the decision engine behind the symbolic (size-parametric) UOV
certifier (:mod:`repro.analysis.symcert`).  It answers one question
exactly: *does an integer point satisfy this affine constraint system?*
— where the system may mention symbolic size parameters (``N``, ``T``)
simply as additional variables that are eliminated last (or kept, to
project the system onto its parameters).

The algorithm is the Omega-test flavour of Fourier-Motzkin elimination
(Pugh, CACM 1992):

- **Equalities** are removed first, exactly: GCD-normalise (an equality
  whose coefficient gcd does not divide its constant is infeasible),
  substitute variables with unit coefficients, and break non-unit
  coefficients with the ``mod-hat`` trick (a fresh variable whose
  coefficient is provably unit, shrinking the others).
- **Inequalities** eliminate one variable per step.  Each lower/upper
  bound pair ``a x >= -r`` / ``b x <= s`` contributes the *real shadow*
  ``a s + b r >= 0`` (exact rationally) and the *dark shadow*
  ``a s + b r >= (a-1)(b-1)`` (any integer point of which lifts to an
  integer ``x``).  When the two disagree the residual *splinters*
  ``a x = -r + i`` for the finitely many ``i`` the gap admits are
  checked recursively, so :meth:`System.is_empty` is an exact integer
  decision procedure, not an approximation.
- **GCD tightening** normalises every derived inequality
  (``g x >= c  =>  x >= ceil(c/g)``), which is what makes the dark
  shadow bite in practice.

:meth:`System.project` keeps a chosen variable subset (typically the
size parameters) and eliminates the rest — with the real shadow for a
sound over-approximation of the satisfiable parameter set, or the dark
shadow for an under-approximation every point of which is guaranteed to
lift to a full integer solution.  :meth:`System.sample_point` produces a
concrete integer witness (used for certificate rows and counterexample
sizes) and :meth:`System.sample_rational` is the rational-vertex
fallback when the integer sampling budget runs out.

Every elimination step can be recorded into a :class:`Trace` — the
auditable proof object embedded in serialized symbolic certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd
from typing import Iterable, Mapping, Optional, Sequence

__all__ = [
    "LinExpr",
    "Constraint",
    "System",
    "Trace",
    "FMBudgetExceeded",
]

#: Hard ceilings keeping the exact procedure from blowing up on
#: adversarial systems; realistic stencil systems stay far below them.
_MAX_CONSTRAINTS = 4000
_MAX_SPLINTER_DEPTH = 12
_SAMPLE_TRIES_PER_VAR = 512


class FMBudgetExceeded(RuntimeError):
    """The elimination exceeded its safety ceilings (degrade, don't trust)."""


# -- linear expressions -------------------------------------------------------


@dataclass(frozen=True)
class LinExpr:
    """Integer-coefficient affine form ``sum(terms) + const``."""

    terms: tuple[tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def of(coeffs: Mapping[str, int], const: int = 0) -> "LinExpr":
        items = tuple(sorted((v, int(c)) for v, c in coeffs.items() if c != 0))
        return LinExpr(items, int(const))

    @staticmethod
    def var(name: str, coeff: int = 1) -> "LinExpr":
        return LinExpr.of({name: coeff})

    @staticmethod
    def constant(value: int) -> "LinExpr":
        return LinExpr((), int(value))

    def coeff(self, name: str) -> int:
        for v, c in self.terms:
            if v == name:
                return c
        return 0

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.terms)

    def is_constant(self) -> bool:
        return not self.terms

    def scaled(self, factor: int) -> "LinExpr":
        if factor == 0:
            return LinExpr()
        return LinExpr(
            tuple((v, c * factor) for v, c in self.terms), self.const * factor
        )

    def plus(self, other: "LinExpr") -> "LinExpr":
        coeffs = dict(self.terms)
        for v, c in other.terms:
            coeffs[v] = coeffs.get(v, 0) + c
        return LinExpr.of(coeffs, self.const + other.const)

    def drop(self, name: str) -> "LinExpr":
        return LinExpr(
            tuple((v, c) for v, c in self.terms if v != name), self.const
        )

    def substitute(self, name: str, replacement: "LinExpr") -> "LinExpr":
        """``self`` with ``name := replacement`` (integer coefficients)."""
        a = self.coeff(name)
        if a == 0:
            return self
        return self.drop(name).plus(replacement.scaled(a))

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.const + sum(c * env[v] for v, c in self.terms)

    def evaluate_rational(self, env: Mapping[str, Fraction]) -> Fraction:
        return Fraction(self.const) + sum(
            (Fraction(c) * env[v] for v, c in self.terms), Fraction(0)
        )

    def __str__(self) -> str:
        parts: list[str] = []
        for v, c in self.terms:
            if c == 1:
                parts.append(f"+ {v}")
            elif c == -1:
                parts.append(f"- {v}")
            elif c < 0:
                parts.append(f"- {-c}*{v}")
            else:
                parts.append(f"+ {c}*{v}")
        if self.const or not parts:
            parts.append(
                f"+ {self.const}" if self.const >= 0 else f"- {-self.const}"
            )
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text


@dataclass(frozen=True)
class Constraint:
    """``expr >= 0`` (inequality) or ``expr == 0`` (equality)."""

    expr: LinExpr
    equality: bool = False

    def __str__(self) -> str:
        op = "==" if self.equality else ">="
        return f"{self.expr} {op} 0"

    def to_json(self) -> dict:
        return {
            "coeffs": {v: c for v, c in self.expr.terms},
            "const": self.expr.const,
            "op": "==" if self.equality else ">=",
        }


@dataclass
class Trace:
    """Auditable record of one elimination run (the proof object)."""

    steps: list[dict] = field(default_factory=list)

    def record(self, op: str, **detail: object) -> None:
        self.steps.append({"op": op, **detail})

    def to_json(self) -> list[dict]:
        return list(self.steps)


# -- normalisation helpers ----------------------------------------------------


def _floor_div(a: int, b: int) -> int:
    return a // b  # python's // is floor division for ints


def _mod_hat(a: int, m: int) -> int:
    """``a`` reduced mod ``m`` into the balanced range ``(-m/2, m/2]``."""
    r = a - m * _floor_div(2 * a + m, 2 * m)
    return r


class _Infeasible(Exception):
    """A constraint normalised to an impossible constant fact."""


def _normalize(constraint: Constraint) -> Optional[Constraint]:
    """GCD-tighten; ``None`` for trivially-true, raise for trivially-false."""
    expr = constraint.expr
    if expr.is_constant():
        if constraint.equality:
            if expr.const != 0:
                raise _Infeasible()
        elif expr.const < 0:
            raise _Infeasible()
        return None
    g = 0
    for _, c in expr.terms:
        g = gcd(g, abs(c))
    if constraint.equality:
        if expr.const % g != 0:
            raise _Infeasible()
        if g > 1:
            expr = LinExpr(
                tuple((v, c // g) for v, c in expr.terms), expr.const // g
            )
        return Constraint(expr, equality=True)
    if g > 1:
        # g*x + c >= 0  <=>  x >= ceil(-c/g)  <=>  x + floor(c/g) >= 0.
        expr = LinExpr(
            tuple((v, c // g) for v, c in expr.terms), _floor_div(expr.const, g)
        )
    return Constraint(expr)


# -- the system ---------------------------------------------------------------


class System:
    """An affine integer constraint system over named variables.

    Immutable in practice: every operation returns a new system.  The
    variable set is inferred from the constraints; "parameters" are not
    special — they are whichever variables the caller keeps.
    """

    def __init__(self, constraints: Iterable[Constraint] = ()):
        self._constraints: tuple[Constraint, ...] = tuple(constraints)
        if len(self._constraints) > _MAX_CONSTRAINTS:
            raise FMBudgetExceeded(
                f"{len(self._constraints)} constraints exceeds the "
                f"{_MAX_CONSTRAINTS} ceiling"
            )

    # -- construction ------------------------------------------------------

    @staticmethod
    def of(*constraints: Constraint) -> "System":
        return System(constraints)

    # -- queries -----------------------------------------------------------

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return self._constraints

    @property
    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for con in self._constraints:
            for v in con.expr.variables:
                seen.setdefault(v)
        return tuple(sorted(seen))

    def __len__(self) -> int:
        return len(self._constraints)

    def __str__(self) -> str:
        return "{ " + "; ".join(str(c) for c in self._constraints) + " }"

    def to_json(self) -> list[dict]:
        return [c.to_json() for c in self._constraints]

    def satisfies(self, point: Mapping[str, int]) -> bool:
        """Exact membership check of a concrete integer point."""
        for con in self._constraints:
            value = con.expr.evaluate(point)
            if con.equality:
                if value != 0:
                    return False
            elif value < 0:
                return False
        return True

    # -- equality elimination ----------------------------------------------

    def _eliminated_equalities(
        self,
        trace: Optional[Trace] = None,
        keep: frozenset[str] = frozenset(),
    ) -> tuple[list[Constraint], list[tuple[str, LinExpr]]]:
        """Inequality-only constraints plus the substitution stack.

        Raises :class:`_Infeasible` when an equality is unsatisfiable over
        the integers (GCD test).  The substitution stack maps each
        eliminated variable to the expression (over the surviving
        variables) that reconstructs it.  Variables in ``keep`` are never
        substituted away (projection must preserve them); an equality
        mentioning only kept variables is split into two inequalities.
        """
        ineqs: list[Constraint] = []
        eqs: list[LinExpr] = []
        for con in self._constraints:
            norm = _normalize(con)
            if norm is None:
                continue
            if norm.equality:
                eqs.append(norm.expr)
            else:
                ineqs.append(norm)
        substitutions: list[tuple[str, LinExpr]] = []
        fresh = 0
        while eqs:
            expr = eqs.pop()
            norm = _normalize(Constraint(expr, equality=True))
            if norm is None:
                continue
            expr = norm.expr
            if all(v in keep for v in expr.variables):
                # Only kept variables: the equality survives projection as
                # a pair of opposed inequalities.
                ineqs.append(Constraint(expr))
                ineqs.append(Constraint(expr.scaled(-1)))
                continue
            # Prefer an *eliminable* variable with a unit coefficient.
            unit = None
            for v, c in expr.terms:
                if abs(c) == 1 and v not in keep:
                    unit = (v, c)
                    break
            if unit is None and any(v in keep for v in expr.variables):
                # Mixed kept/eliminable equality with no unit eliminable
                # coefficient: exact elimination would need divisibility
                # constraints (e.g. ``4*sigma == x`` projects to ``4 | x``),
                # which an inequality system cannot express.  Relax to an
                # opposed inequality pair — sound for the real shadow; the
                # dark shadow then only gets more conservative.
                if trace is not None:
                    trace.record("equality-relaxed", expr=str(expr))
                ineqs.append(Constraint(expr))
                ineqs.append(Constraint(expr.scaled(-1)))
                continue
            if unit is None:
                # Omega mod-hat reduction: introduce a fresh variable whose
                # coefficient is provably +-1, substitute it away, and keep
                # the shrunken original equality.  (Only reached when the
                # equality has no kept variables, so the minimum is over
                # eliminable coefficients and Pugh's shrinkage argument
                # guarantees termination.)
                v, a = min(
                    (t for t in expr.terms if t[0] not in keep),
                    key=lambda t: abs(t[1]),
                )
                m = abs(a) + 1
                hat = LinExpr.of(
                    {u: _mod_hat(c, m) for u, c in expr.terms},
                    _mod_hat(expr.const, m),
                )
                sigma = f"__fm_sigma{fresh}"
                fresh += 1
                hat = hat.plus(LinExpr.var(sigma, -m))
                # hat has coefficient -sign(a) on v: solve v from it.
                cv = hat.coeff(v)
                assert abs(cv) == 1, "mod-hat reduction lost its unit coeff"
                replacement = hat.drop(v).scaled(-cv)
                if trace is not None:
                    trace.record(
                        "mod-hat", var=v, modulus=m, fresh=sigma
                    )
                substitutions.append((v, replacement))
                expr = expr.substitute(v, replacement)
                eqs.append(expr)
                eqs = [e.substitute(v, replacement) for e in eqs]
                ineqs = [
                    Constraint(c.expr.substitute(v, replacement))
                    for c in ineqs
                ]
                continue
            v, c = unit
            # c*v + rest = 0  =>  v = -rest/c = rest * (-c)  (|c| == 1).
            replacement = expr.drop(v).scaled(-c)
            if trace is not None:
                trace.record("substitute", var=v, expr=str(replacement))
            substitutions.append((v, replacement))
            eqs = [e.substitute(v, replacement) for e in eqs]
            ineqs = [
                Constraint(con.expr.substitute(v, replacement))
                for con in ineqs
            ]
        normalized: list[Constraint] = []
        for con in ineqs:
            norm = _normalize(con)
            if norm is not None:
                normalized.append(norm)
        return normalized, substitutions

    # -- Fourier-Motzkin core ----------------------------------------------

    @staticmethod
    def _split(
        constraints: Sequence[Constraint], var: str
    ) -> tuple[list[tuple[int, LinExpr]], list[tuple[int, LinExpr]], list[Constraint]]:
        """Partition into lower bounds ``a*var + r >= 0`` (a>0, returns
        (a, r)), upper bounds ``-b*var + s >= 0`` (b>0, returns (b, s)),
        and constraints not mentioning ``var``."""
        lowers: list[tuple[int, LinExpr]] = []
        uppers: list[tuple[int, LinExpr]] = []
        rest: list[Constraint] = []
        for con in constraints:
            a = con.expr.coeff(var)
            if a > 0:
                lowers.append((a, con.expr.drop(var)))
            elif a < 0:
                uppers.append((-a, con.expr.drop(var)))
            else:
                rest.append(con)
        return lowers, uppers, rest

    @staticmethod
    def _shadow(
        lowers: Sequence[tuple[int, LinExpr]],
        uppers: Sequence[tuple[int, LinExpr]],
        rest: Sequence[Constraint],
        dark: bool,
    ) -> list[Constraint]:
        """The real (``dark=False``) or dark shadow of one elimination."""
        out = list(rest)
        for a, r in lowers:
            for b, s in uppers:
                # a x >= -r  and  b x <= s  =>  a s + b r >= 0 (real);
                # integer-guaranteed when a s + b r >= (a-1)(b-1) (dark).
                expr = s.scaled(a).plus(r.scaled(b))
                if dark:
                    expr = expr.plus(LinExpr.constant(-(a - 1) * (b - 1)))
                out.append(Constraint(expr))
        if len(out) > _MAX_CONSTRAINTS:
            raise FMBudgetExceeded(
                f"shadow produced {len(out)} constraints"
            )
        return out

    @staticmethod
    def _pick_variable(
        constraints: Sequence[Constraint], candidates: Sequence[str]
    ) -> str:
        """Cheapest variable to eliminate: exact eliminations first, then
        the smallest lower*upper fan-out."""
        best: Optional[str] = None
        best_key: Optional[tuple[int, int]] = None
        for var in candidates:
            lowers, uppers, _ = System._split(constraints, var)
            exact = all(a == 1 for a, _ in lowers) or all(
                b == 1 for b, _ in uppers
            )
            key = (0 if exact else 1, len(lowers) * len(uppers))
            if best_key is None or key < best_key:
                best, best_key = var, key
        assert best is not None
        return best

    # -- exact emptiness ----------------------------------------------------

    def is_empty(self, trace: Optional[Trace] = None) -> bool:
        """Exact: ``True`` iff the system has **no** integer solution."""
        try:
            ineqs, _ = self._eliminated_equalities(trace)
        except _Infeasible:
            if trace is not None:
                trace.record("infeasible-equality")
            return True
        return _empty_ineqs(ineqs, trace, depth=0)

    # -- projection ---------------------------------------------------------

    def project(
        self,
        keep: Iterable[str],
        dark: bool = False,
        trace: Optional[Trace] = None,
    ) -> "System":
        """Eliminate every variable not in ``keep``.

        With ``dark=False`` the result is the *real shadow* projection: a
        sound over-approximation (every integer solution of ``self``
        projects into it; some of its points may not lift).  With
        ``dark=True`` every integer point of the result is guaranteed to
        lift to an integer solution of ``self`` (under-approximation).
        """
        keep_set = set(keep)
        try:
            constraints, _ = self._eliminated_equalities(
                trace, keep=frozenset(keep_set)
            )
        except _Infeasible:
            return System([Constraint(LinExpr.constant(-1))])
        while True:
            variables = [
                v
                for v in sorted(
                    {u for c in constraints for u in c.expr.variables}
                )
                if v not in keep_set
            ]
            if not variables:
                break
            var = self._pick_variable(constraints, variables)
            lowers, uppers, rest = self._split(constraints, var)
            if trace is not None:
                trace.record(
                    "eliminate",
                    var=var,
                    lowers=len(lowers),
                    uppers=len(uppers),
                    shadow="dark" if dark else "real",
                )
            shadow = self._shadow(lowers, uppers, rest, dark)
            constraints = []
            try:
                for con in shadow:
                    norm = _normalize(con)
                    if norm is not None:
                        constraints.append(norm)
            except _Infeasible:
                return System([Constraint(LinExpr.constant(-1))])
        return System(_dedup(constraints))

    # -- witnesses ----------------------------------------------------------

    def interval(self, var: str) -> tuple[Optional[int], Optional[int]]:
        """Rational-shadow bounds of ``var``: integer-tightened
        ``(lo, hi)`` with ``None`` for unbounded ends.  Sound (the true
        integer extent lies within), not necessarily tight."""
        projected = self.project([var])
        lo: Optional[int] = None
        hi: Optional[int] = None
        for con in projected.constraints:
            a = con.expr.coeff(var)
            c = con.expr.const
            if a == 0:
                if c < 0:
                    return (1, 0)  # empty interval
                continue
            if a > 0:
                bound = ceil(Fraction(-c, a))
                lo = bound if lo is None else max(lo, bound)
            else:
                bound = floor(Fraction(c, -a))
                hi = bound if hi is None else min(hi, bound)
        return lo, hi

    def sample_point(
        self,
        prefer_small: bool = True,
        budget: int = _SAMPLE_TRIES_PER_VAR,
    ) -> Optional[dict[str, int]]:
        """A concrete integer solution, or ``None`` (empty / budget).

        Variables are assigned one at a time, smallest feasible value
        first (``prefer_small`` gives minimal counterexample sizes), each
        candidate checked with the exact emptiness test before recursing.
        """
        if self.is_empty():
            return None
        assignment: dict[str, int] = {}
        system = self
        while True:
            variables = system.variables
            if not variables:
                break
            var = variables[0]
            lo, hi = system.interval(var)
            if lo is not None and hi is not None and lo > hi:
                return None  # projection says empty; shouldn't happen
            found = False
            for value in _candidates(lo, hi, budget, prefer_small):
                candidate = system._with_fixed(var, value)
                if not candidate.is_empty():
                    assignment[var] = value
                    system = candidate
                    found = True
                    break
            if not found:
                return None
        # Every variable that appears in a constraint was assigned by the
        # loop above (equalities included); the exact check is just belt
        # and braces.
        if not self.satisfies(assignment):
            return None
        return {
            v: c for v, c in assignment.items() if not v.startswith("__fm_")
        }

    def sample_rational(self) -> Optional[dict[str, Fraction]]:
        """Rational-vertex fallback witness: a rational solution obtained
        by back-substituting interval midpoints through the real-shadow
        elimination.  ``None`` when the rational relaxation is empty."""
        try:
            constraints, substitutions = self._eliminated_equalities()
        except _Infeasible:
            return None
        order: list[tuple[str, list[tuple[int, LinExpr]], list[tuple[int, LinExpr]]]] = []
        while True:
            variables = sorted(
                {u for c in constraints for u in c.expr.variables}
            )
            if not variables:
                break
            var = self._pick_variable(constraints, variables)
            lowers, uppers, rest = self._split(constraints, var)
            order.append((var, lowers, uppers))
            constraints = []
            try:
                for con in self._shadow(lowers, uppers, rest, dark=False):
                    norm = _normalize(con)
                    if norm is not None:
                        constraints.append(norm)
            except _Infeasible:
                return None
        for con in constraints:
            if con.expr.const < 0:
                return None
        env: dict[str, Fraction] = {}
        for var, lowers, uppers in reversed(order):
            lo: Optional[Fraction] = None
            hi: Optional[Fraction] = None
            for a, r in lowers:
                value = -r.evaluate_rational(env) / a
                lo = value if lo is None else max(lo, value)
            for b, s in uppers:
                value = s.evaluate_rational(env) / b
                hi = value if hi is None else min(hi, value)
            if lo is not None and hi is not None:
                env[var] = (lo + hi) / 2
            elif lo is not None:
                env[var] = lo
            elif hi is not None:
                env[var] = hi
            else:
                env[var] = Fraction(0)
        for var, expr in reversed(substitutions):
            for v in expr.variables:
                env.setdefault(v, Fraction(0))
            env[var] = expr.evaluate_rational(env)
        return {v: c for v, c in env.items() if not v.startswith("__fm_")}

    # -- internals ----------------------------------------------------------

    def _with_fixed(self, var: str, value: int) -> "System":
        return System(
            Constraint(
                con.expr.substitute(var, LinExpr.constant(value)),
                con.equality,
            )
            for con in self._constraints
        )


def _candidates(
    lo: Optional[int], hi: Optional[int], budget: int, prefer_small: bool
) -> Iterable[int]:
    """Candidate integer values for one variable, at most ``budget``.

    Bounded below: ascend from ``lo`` (minimal witnesses).  Bounded only
    above: descend from ``hi``.  Unbounded: spiral out from zero.  When
    ``prefer_small`` is off a bounded-below scan descends from ``hi``
    instead when it can."""
    if lo is not None and not prefer_small and hi is not None:
        lo, hi = None, hi  # fall through to the descend-from-hi branch
    if lo is not None:
        for step in range(budget):
            value = lo + step
            if hi is not None and value > hi:
                return
            yield value
    elif hi is not None:
        for step in range(budget):
            yield hi - step
    else:
        yield 0
        for step in range(1, budget // 2 + 1):
            yield step
            yield -step


def _dedup(constraints: Iterable[Constraint]) -> list[Constraint]:
    seen: dict[tuple, Constraint] = {}
    for con in constraints:
        key = (con.expr.terms, con.expr.const, con.equality)
        seen.setdefault(key, con)
    return list(seen.values())


def _empty_ineqs(
    constraints: list[Constraint], trace: Optional[Trace], depth: int
) -> bool:
    """Exact integer emptiness of an inequality-only system."""
    if depth > _MAX_SPLINTER_DEPTH:
        raise FMBudgetExceeded(f"splinter depth {depth} exceeded")
    normalized: list[Constraint] = []
    try:
        for con in constraints:
            norm = _normalize(con)
            if norm is not None:
                normalized.append(norm)
    except _Infeasible:
        if trace is not None:
            trace.record("contradiction", depth=depth)
        return True
    normalized = _dedup(normalized)
    variables = sorted({v for c in normalized for v in c.expr.variables})
    if not variables:
        return False  # all constant facts were satisfied above
    var = System._pick_variable(normalized, variables)
    lowers, uppers, rest = System._split(normalized, var)
    exact = all(a == 1 for a, _ in lowers) or all(b == 1 for b, _ in uppers)
    if trace is not None:
        trace.record(
            "eliminate",
            var=var,
            lowers=len(lowers),
            uppers=len(uppers),
            exact=exact,
            depth=depth,
        )
    if not lowers or not uppers:
        # Unbounded on one side: var can always be chosen once the rest
        # is satisfiable; elimination is exact.
        return _empty_ineqs(list(rest), trace, depth)
    dark = System._shadow(lowers, uppers, rest, dark=True)
    if not _empty_ineqs(dark, trace, depth):
        if trace is not None:
            trace.record("dark-shadow-nonempty", var=var, depth=depth)
        return False
    if exact:
        # Dark == real shadow: the dark-empty answer is the exact answer.
        return True
    real = System._shadow(lowers, uppers, rest, dark=False)
    if _empty_ineqs(real, trace, depth):
        if trace is not None:
            trace.record("real-shadow-empty", var=var, depth=depth)
        return True
    # Gap case: any integer solution hugs a lower bound.  Check the
    # finitely many splinter planes exactly (Pugh's omega test).
    m = max(b for b, _ in uppers)
    for a, r in lowers:
        top = (a * m - a - m) // m
        for i in range(top + 1):
            plane = Constraint(
                r.plus(LinExpr.var(var, a)).plus(LinExpr.constant(-i)),
                equality=True,
            )
            if trace is not None:
                trace.record("splinter", var=var, offset=i, depth=depth)
            splintered = System([*normalized, plane])
            try:
                ineqs, _ = splintered._eliminated_equalities(None)
            except _Infeasible:
                continue
            if not _empty_ineqs(ineqs, trace, depth + 1):
                return False
    return True
