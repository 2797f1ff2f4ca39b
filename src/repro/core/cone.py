"""Membership in the non-negative integer cone of a stencil.

Everything in Section 3 of the paper reduces to one feasibility question:

    given a target vector ``t`` and stencil vectors ``v1..vm``, do there
    exist non-negative integers ``a1..am`` with ``sum(ai * vi) == t``?

``DONE(V, q)`` is exactly the set of ``p`` with ``q - p`` in that cone, and
``w`` is a universal occupancy vector iff ``w - vi`` is in the cone for
every ``i`` (equivalently, the paper's ``m`` equation systems each admit a
solution with a positive diagonal coefficient).

The problem is NP-complete in general (Section 3.1 / :mod:`.npcomplete`),
but realistic stencils have few vectors with small entries, so an exact
search is fast.  Two interchangeable backends are provided:

- ``"dfs"`` — a memoised depth-first search over coefficient choices.  The
  termination/bounding argument is the stencil's *positivity functional*
  ``w`` (``w . vi > 0`` for all ``i``, guaranteed by lexicographic
  positivity): any certificate for ``t`` has total weighted coefficient
  mass ``w . t``, so each coefficient is bounded by
  ``w . t // min_i(w . vi)``.
- ``"milp"`` — integer feasibility through :func:`scipy.optimize.milp`,
  used to cross-check the hand-rolled solver and as the faster choice for
  the adversarial NP-completeness instances.  It answers "no" only on a
  proof of infeasibility; a solve error is retried once without HiGHS'
  presolve, and any other outcome raises :class:`MilpUndecided`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.util.polyhedron import Polytope
from repro.util.vectors import IntVector, as_vector, sub

__all__ = [
    "positivity_functional",
    "coefficient_bound",
    "in_integer_cone",
    "in_rational_cone",
    "expand_certificate",
    "ConeSolver",
    "MilpUndecided",
    "done_set",
    "dead_set",
]


def positivity_functional(vectors: Sequence[Sequence[int]]) -> IntVector:
    """Integer weights ``w`` with ``w . v > 0`` for every vector.

    Requires every vector to be lexicographically positive; raises
    ``ValueError`` otherwise (in that case no such functional needs to
    exist and cone membership may be undecidable by naive search).
    """
    vecs = [as_vector(v) for v in vectors]
    if not vecs:
        raise ValueError("positivity functional of an empty set is undefined")
    dim = len(vecs[0])
    max_abs = max((abs(c) for v in vecs for c in v), default=0)
    m = dim * max_abs + 1
    weights = tuple(m ** (dim - 1 - k) for k in range(dim))
    for v in vecs:
        if sum(w * c for w, c in zip(weights, v)) <= 0:
            raise ValueError(
                f"vector {v} is not lexicographically positive; "
                "no positivity functional of this form exists"
            )
    return weights


def coefficient_bound(
    target: Sequence[int], vectors: Sequence[Sequence[int]]
) -> int:
    """Upper bound on any single coefficient in a cone certificate for target."""
    w = positivity_functional(vectors)
    wt = sum(a * b for a, b in zip(w, target))
    if wt < 0:
        return -1
    min_wv = min(sum(a * b for a, b in zip(w, v)) for v in vectors)
    return wt // min_wv


def in_rational_cone(
    target: Sequence[int], vectors: Sequence[Sequence[int]]
) -> bool:
    """True when ``target`` is a non-negative *rational* combination.

    This is the LP relaxation of integer cone membership; it is used to
    find the extreme vectors of a stencil and as a fast necessary condition
    inside the integer solvers.
    """
    target = as_vector(target)
    vecs = [as_vector(v) for v in vectors]
    if all(c == 0 for c in target):
        return True
    if not vecs:
        return False
    from scipy.optimize import linprog

    a_eq = np.array(vecs, dtype=float).T
    b_eq = np.array(target, dtype=float)
    res = linprog(
        c=np.zeros(len(vecs)),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * len(vecs),
        method="highs",
    )
    return bool(res.success)


#: :func:`scipy.optimize.milp`'s status for a proven-infeasible problem.
_MILP_INFEASIBLE = 2

#: Its status for "other": HiGHS' "Solve error" among them.
_MILP_SOLVE_ERROR = 4


class MilpUndecided(RuntimeError):
    """The MILP backend returned neither a certificate nor a proof of
    infeasibility: a time or iteration limit, a numerical failure, or a
    rounded solution that fails the exact re-check."""

    def __init__(self, target, status: int, message: str):
        super().__init__(
            f"milp gave no answer for target {tuple(target)} "
            f"(status {status}): {message}"
        )
        self.status = status


class ConeSolver:
    """Integer-cone membership with memoisation shared across queries.

    One solver instance is typically created per stencil; the UOV search
    issues many membership queries against the same vector set, and failed
    sub-states recur constantly, so the cross-query memo pays off.
    """

    def __init__(
        self,
        vectors: Sequence[Sequence[int]],
        backend: str = "dfs",
    ):
        vecs = [as_vector(v) for v in vectors]
        if not vecs:
            raise ValueError("a cone needs at least one generator")
        if backend not in ("dfs", "milp"):
            raise ValueError(f"unknown cone backend {backend!r}")
        self._backend = backend
        self._weights = positivity_functional(vecs)
        # Order generators by decreasing weighted mass: big steps first
        # shrinks the residual fastest and keeps the memo small.
        self._vectors = tuple(
            sorted(
                vecs,
                key=lambda v: -sum(w * c for w, c in zip(self._weights, v)),
            )
        )
        self._wv = tuple(
            sum(w * c for w, c in zip(self._weights, v)) for v in self._vectors
        )
        self._dim = len(vecs[0])
        # Per suffix position i, the set of coordinates on which every
        # remaining generator is non-negative: the residual must stay
        # non-negative there, a cheap and very effective prune.
        self._nonneg_coords: list[tuple[int, ...]] = []
        for i in range(len(self._vectors) + 1):
            rest = self._vectors[i:]
            coords = tuple(
                k
                for k in range(self._dim)
                if all(v[k] >= 0 for v in rest)
            )
            self._nonneg_coords.append(coords)
        self._fail_memo: set[tuple[int, IntVector]] = set()
        self.stats = {"queries": 0, "dfs_nodes": 0, "memo_hits": 0}

    @property
    def vectors(self) -> tuple[IntVector, ...]:
        return self._vectors

    def solve(
        self,
        target: Sequence[int],
        min_coeffs: Optional[dict[IntVector, int]] = None,
    ) -> Optional[dict[IntVector, int]]:
        """Find ``{vector: coefficient}`` with non-negative integer
        coefficients summing to ``target``, or ``None`` if infeasible.
        The milp backend raises :class:`MilpUndecided` when it can tell
        neither.

        ``min_coeffs`` optionally forces lower bounds per generator (the
        paper's positive-diagonal requirement); it is handled by peeling
        the mandatory part off the target first.
        """
        self.stats["queries"] += 1
        target = as_vector(target)
        if len(target) != self._dim:
            raise ValueError("target dimensionality mismatch")
        base = {v: 0 for v in self._vectors}
        if min_coeffs:
            for v, lo in min_coeffs.items():
                v = as_vector(v)
                if v not in base:
                    raise ValueError(f"{v} is not a generator of this cone")
                if lo < 0:
                    raise ValueError("minimum coefficients must be >= 0")
                base[v] = lo
                target = sub(target, tuple(lo * c for c in v))
        if self._backend == "milp":
            free = self._solve_milp(target)
        else:
            free = self._solve_dfs(target)
        if free is None:
            return None
        return {v: base[v] + free.get(v, 0) for v in self._vectors}

    def __contains__(self, target: Sequence[int]) -> bool:
        return self.solve(target) is not None

    # -- DFS backend ---------------------------------------------------------

    def _solve_dfs(self, target: IntVector) -> Optional[dict[IntVector, int]]:
        coeffs: list[int] = [0] * len(self._vectors)
        if self._dfs(0, target, coeffs):
            return {
                v: c for v, c in zip(self._vectors, coeffs) if c
            }
        return None

    def _dfs(self, i: int, rem: IntVector, coeffs: list[int]) -> bool:
        self.stats["dfs_nodes"] += 1
        if all(c == 0 for c in rem):
            for j in range(i, len(coeffs)):
                coeffs[j] = 0
            return True
        if i == len(self._vectors):
            return False
        wrem = sum(w * c for w, c in zip(self._weights, rem))
        if wrem < 0:
            return False
        for k in self._nonneg_coords[i]:
            if rem[k] < 0:
                return False
        key = (i, rem)
        if key in self._fail_memo:
            self.stats["memo_hits"] += 1
            return False
        v = self._vectors[i]
        bound = wrem // self._wv[i]
        # On a coordinate every remaining generator keeps non-negative, a
        # larger coefficient leaves a negative residual the child would
        # reject at once, before its memo: skipping those values changes
        # no answer, certificate or memo entry, only the node count.
        for k in self._nonneg_coords[i]:
            if v[k] > 0 and rem[k] // v[k] < bound:
                bound = rem[k] // v[k]
        # Try large coefficients first: certificates for stencil targets
        # are usually dominated by one or two generators.
        for a in range(bound, -1, -1):
            nxt = tuple(r - a * c for r, c in zip(rem, v))
            coeffs[i] = a
            if self._dfs(i + 1, nxt, coeffs):
                return True
        self._fail_memo.add(key)
        return False

    # -- MILP backend ----------------------------------------------------------

    def _solve_milp(self, target: IntVector) -> Optional[dict[IntVector, int]]:
        from scipy.optimize import LinearConstraint, milp

        wt = sum(w * c for w, c in zip(self._weights, target))
        if wt < 0:
            return None
        if all(c == 0 for c in target):
            return {}
        n = len(self._vectors)
        a_eq = np.array(self._vectors, dtype=float).T
        constraint = LinearConstraint(
            a_eq, np.array(target, float), np.array(target, float)
        )
        upper = [wt // wv for wv in self._wv]
        from scipy.optimize import Bounds

        def solve(**options):
            return milp(
                c=np.zeros(n),
                constraints=[constraint],
                integrality=np.ones(n),
                bounds=Bounds(np.zeros(n), np.array(upper, dtype=float)),
                options=options,
            )

        res = solve()
        if res.status == _MILP_SOLVE_ERROR:
            # HiGHS' presolve can end in a solve error where plain branch
            # and bound decides (the PARTITION reductions of [2, 3, 3] and
            # [4, 6, 6], among others).  Presolve stays on for the first
            # try: it is about 2.7x faster over the reduction's instances.
            res = solve(presolve=False)
        # Only a proof of infeasibility means "not in the cone"; a limit
        # or a numerical failure is no answer at all.
        if res.status == _MILP_INFEASIBLE:
            return None
        if not res.success:
            raise MilpUndecided(target, res.status, res.message)
        coeffs = [int(round(x)) for x in res.x]
        # milp returns floats; re-verify exactly before trusting it.
        for k in range(self._dim):
            if sum(c * v[k] for c, v in zip(coeffs, self._vectors)) != target[k]:
                raise MilpUndecided(
                    target,
                    res.status,
                    f"rounded solution {coeffs} fails the exact re-check",
                )
        return {
            v: c for v, c in zip(self._vectors, coeffs) if c
        }


def in_integer_cone(
    target: Sequence[int],
    vectors: Sequence[Sequence[int]],
    backend: str = "dfs",
) -> Optional[dict[IntVector, int]]:
    """One-shot integer cone membership; returns a certificate or ``None``."""
    return ConeSolver(vectors, backend=backend).solve(target)


def expand_certificate(
    target: Sequence[int],
    certificate: dict[IntVector, int],
) -> list[IntVector]:
    """Expand a cone certificate into a concrete dependence walk.

    Given ``target = sum(a_v * v)``, returns the residuals visited when the
    generators are subtracted one unit at a time (one generator kind at a
    time): ``[target, target - v1, ..., 0]``.  Every consecutive pair
    differs by exactly one generator, so ``q - r`` for each residual ``r``
    is a backward dependence chain from any point ``q`` down to
    ``q - target`` — the in-region path the counterexample builder in
    :mod:`repro.analysis.certify` needs to keep inside its box.
    """
    residual = as_vector(target)
    walk = [residual]
    for v, count in certificate.items():
        v = as_vector(v)
        for _ in range(count):
            residual = sub(residual, v)
            walk.append(residual)
    if any(c != 0 for c in walk[-1]):
        raise ValueError(
            f"certificate {certificate!r} does not sum to {tuple(target)}"
        )
    return walk


def done_set(
    stencil: "Stencil | Sequence[Sequence[int]]",
    q: Sequence[int],
    region: Polytope,
) -> set[IntVector]:
    """``DONE(V, q)`` restricted to a polytope region.

    The set of iteration points that must execute before ``q`` in *every*
    legal schedule: those reachable from ``q`` by walking dependence vectors
    backwards.  ``q`` itself is included (the all-zero combination), matching
    the paper's definition with all ``ai = 0``.
    """
    vectors = _stencil_vectors(stencil)
    q = as_vector(q)
    done: set[IntVector] = set()
    frontier = [q]
    if region.contains(q):
        done.add(q)
    while frontier:
        p = frontier.pop()
        for v in vectors:
            child = sub(p, v)
            if child not in done and region.contains(child):
                done.add(child)
                frontier.append(child)
    return done


def dead_set(
    stencil: "Stencil | Sequence[Sequence[int]]",
    q: Sequence[int],
    region: Polytope,
    done: Optional[set[IntVector]] = None,
) -> set[IntVector]:
    """``DEAD(V, q)`` restricted to a polytope region.

    Points whose produced value has been fully consumed once ``q`` has read
    its own inputs: every outgoing dependence lands inside ``DONE(V, q)``.
    Note ``DEAD(V,q) <= DONE(V,q)`` as the paper observes; a point outside
    the region's DONE restriction cannot be certified dead, so the result
    here is the conservative region-restricted set used by the tests.
    """
    vectors = _stencil_vectors(stencil)
    if done is None:
        done = done_set(vectors, q, region)
    from repro.util.vectors import add

    candidates = {sub(d, vectors[0]) for d in done}
    dead = set()
    for p in candidates:
        if all(add(p, v) in done for v in vectors):
            dead.add(p)
    return dead


def _stencil_vectors(
    stencil: "Stencil | Sequence[Sequence[int]]",
) -> tuple[IntVector, ...]:
    from repro.core.stencil import Stencil

    if isinstance(stencil, Stencil):
        return stencil.vectors
    return tuple(as_vector(v) for v in stencil)
