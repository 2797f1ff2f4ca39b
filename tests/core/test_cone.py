"""Integer cone membership: the feasibility kernel of Section 3."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cone import (
    ConeSolver,
    MilpUndecided,
    coefficient_bound,
    dead_set,
    done_set,
    in_integer_cone,
    in_rational_cone,
    positivity_functional,
)
from repro.core.stencil import Stencil
from repro.util.polyhedron import Polytope

from .test_stencil import lex_positive_vectors


def brute_force_in_cone(target, vectors, cap=6):
    """Independent oracle: enumerate small coefficient combinations."""
    import itertools

    for coeffs in itertools.product(range(cap + 1), repeat=len(vectors)):
        point = tuple(
            sum(c * v[k] for c, v in zip(coeffs, vectors))
            for k in range(len(target))
        )
        if point == tuple(target):
            return dict(
                (tuple(v), c) for v, c in zip(vectors, coeffs) if c
            )
    return None


class TestPositivityFunctional:
    def test_known(self):
        w = positivity_functional([(1, -2), (1, 2), (0, 1)])
        assert all(
            sum(a * b for a, b in zip(w, v)) > 0
            for v in [(1, -2), (1, 2), (0, 1)]
        )

    def test_rejects_lex_negative(self):
        with pytest.raises(ValueError):
            positivity_functional([(1, 0), (-1, 5)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            positivity_functional([])


class TestConeSolverExact:
    def test_certificate_is_verified(self, fig1_stencil):
        solver = ConeSolver(fig1_stencil.vectors)
        cert = solver.solve((3, 2))
        assert cert is not None
        total = tuple(
            sum(c * v[k] for v, c in cert.items()) for k in range(2)
        )
        assert total == (3, 2)

    def test_zero_target(self, fig1_stencil):
        cert = ConeSolver(fig1_stencil.vectors).solve((0, 0))
        assert cert == {v: 0 for v in fig1_stencil.vectors}

    def test_infeasible(self, fig1_stencil):
        solver = ConeSolver(fig1_stencil.vectors)
        assert solver.solve((-1, 0)) is None
        assert solver.solve((0, -1)) is None
        assert (1, 1) in solver and (2, -1) not in solver

    def test_min_coeffs(self, fig1_stencil):
        solver = ConeSolver(fig1_stencil.vectors)
        # (1,1) with a positive coefficient on (1,1) itself: exactly one.
        cert = solver.solve((1, 1), min_coeffs={(1, 1): 1})
        assert cert is not None and cert[(1, 1)] >= 1
        # but (1,0) cannot use (1,1) at all
        assert solver.solve((1, 0), min_coeffs={(1, 1): 1}) is None

    def test_min_coeffs_validation(self, fig1_stencil):
        solver = ConeSolver(fig1_stencil.vectors)
        with pytest.raises(ValueError):
            solver.solve((1, 1), min_coeffs={(9, 9): 1})
        with pytest.raises(ValueError):
            solver.solve((1, 1), min_coeffs={(1, 1): -1})

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ConeSolver([(1, 0)], backend="magic")

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(lex_positive_vectors(max_abs=2), min_size=1, max_size=3),
        st.tuples(st.integers(0, 8), st.integers(-6, 6)),
    )
    def test_matches_brute_force(self, vectors, target):
        from hypothesis import assume

        vectors = list(dict.fromkeys(vectors))
        # Exhaustive enumeration is complete up to the positivity bound on
        # any certificate coefficient; skip the rare instances where that
        # bound would make the brute force too slow.
        cap = coefficient_bound(target, vectors)
        assume(cap <= 30)
        got = in_integer_cone(target, vectors)
        expected = brute_force_in_cone(vectors=vectors, target=target, cap=max(cap, 0))
        assert (got is None) == (expected is None)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(lex_positive_vectors(max_abs=2), min_size=1, max_size=3),
        st.tuples(st.integers(0, 6), st.integers(-5, 5)),
    )
    def test_dfs_and_milp_agree(self, vectors, target):
        vectors = list(dict.fromkeys(vectors))
        dfs = ConeSolver(vectors, backend="dfs").solve(target)
        milp = ConeSolver(vectors, backend="milp").solve(target)
        assert (dfs is None) == (milp is None)


def unbounded_dfs(vectors, target):
    """The search bounded by the positivity functional alone: every
    coefficient from ``w·rem // w·v`` down to 0, generators in the given
    (solver's) order, with the non-negativity prune and a failure memo
    but no per-coordinate cap, so it finds the same first certificate
    as :class:`ConeSolver` in the same order."""
    weights = positivity_functional(vectors)

    def dot(v):
        return sum(w * c for w, c in zip(weights, v))

    nonneg = [
        [k for k in range(len(target)) if all(v[k] >= 0 for v in vectors[i:])]
        for i in range(len(vectors) + 1)
    ]
    coeffs = [0] * len(vectors)
    failed = set()

    def dfs(i, rem):
        if all(c == 0 for c in rem):
            coeffs[i:] = [0] * (len(vectors) - i)
            return True
        if i == len(vectors) or dot(rem) < 0:
            return False
        if any(rem[k] < 0 for k in nonneg[i]) or (i, rem) in failed:
            return False
        v = vectors[i]
        for a in range(dot(rem) // dot(v), -1, -1):
            coeffs[i] = a
            if dfs(i + 1, tuple(r - a * c for r, c in zip(rem, v))):
                return True
        failed.add((i, rem))
        return False

    if not dfs(0, tuple(target)):
        return None
    return {v: c for v, c in zip(vectors, coeffs) if c}


class TestCoordinateBounds:
    """Each DFS coefficient is also capped per non-negative coordinate."""

    def test_certificates_match_the_unbounded_search(self):
        import random

        rng = random.Random(1998)
        for _ in range(1000):
            dim = rng.randint(1, 3)
            drawn = [
                tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(1, 4))
            ]
            target = tuple(rng.randint(-4, 9) for _ in range(dim))
            vectors = {v for v in drawn if next((c for c in v if c), 0) > 0}
            if not vectors:
                continue
            solver = ConeSolver(sorted(vectors))
            got = solver.solve(target)
            if got is not None:
                got = {v: c for v, c in got.items() if c}
            assert got == unbounded_dfs(solver.vectors, target), (
                sorted(vectors), target,
            )

    def test_partition_instance_exhausts_in_few_nodes(self):
        from repro.core.npcomplete import reduction_from_partition

        # Infeasible (odd total): the search must exhaust it.  Bounded by
        # the positivity functional alone it took 307,736 nodes.
        stencil, w = reduction_from_partition((6, 4, 7, 1, 8, 7))
        solver = ConeSolver(stencil.vectors, backend="dfs")
        assert solver.solve(w) is None
        assert solver.stats["dfs_nodes"] < 50_000


class TestMilpAnswers:
    """The MILP backend says "not in the cone" only on a proof of
    infeasibility; every other outcome raises :class:`MilpUndecided`."""

    VECTORS = [(1, 0), (0, 1)]
    TARGET = (2, 3)

    def patch_milp(self, monkeypatch, **result):
        import scipy.optimize
        from scipy.optimize import OptimizeResult

        calls = []

        def fake_milp(*args, **kwargs):
            calls.append(kwargs)
            return OptimizeResult(**result)

        monkeypatch.setattr(scipy.optimize, "milp", fake_milp)
        return calls

    def test_a_limit_raises_naming_the_status(self, monkeypatch):
        calls = self.patch_milp(
            monkeypatch,
            status=1,
            success=False,
            message="Time limit reached.",
            x=None,
        )
        solver = ConeSolver(self.VECTORS, backend="milp")
        with pytest.raises(MilpUndecided, match="status 1") as info:
            solver.solve(self.TARGET)
        assert info.value.status == 1
        assert len(calls) == 1

    def test_a_rounded_solution_failing_the_recheck_raises(self, monkeypatch):
        self.patch_milp(
            monkeypatch,
            status=0,
            success=True,
            message="Optimization terminated successfully.",
            x=[2.0, 2.4],  # rounds to (2, 2), not the target (2, 3)
        )
        solver = ConeSolver(self.VECTORS, backend="milp")
        with pytest.raises(MilpUndecided, match="re-check") as info:
            solver.solve(self.TARGET)
        assert info.value.status == 0

    def test_infeasible_still_answers_no(self, monkeypatch):
        calls = self.patch_milp(
            monkeypatch,
            status=2,
            success=False,
            message="The problem is infeasible.",
            x=None,
        )
        assert ConeSolver(self.VECTORS, backend="milp").solve(self.TARGET) is None
        assert len(calls) == 1

    SOLVE_ERROR = dict(
        status=4, success=False, message="(HiGHS Status 4: Solve error)",
        x=None,
    )

    def patch_milp_results(self, monkeypatch, *results):
        """milp answering ``results`` in turn; returns its calls' kwargs."""
        import scipy.optimize
        from scipy.optimize import OptimizeResult

        calls = []

        def fake_milp(*args, **kwargs):
            calls.append(kwargs)
            return OptimizeResult(**results[len(calls) - 1])

        monkeypatch.setattr(scipy.optimize, "milp", fake_milp)
        return calls

    def test_a_solve_error_is_retried_without_presolve(self, monkeypatch):
        calls = self.patch_milp_results(
            monkeypatch,
            self.SOLVE_ERROR,
            dict(status=2, success=False,
                 message="The problem is infeasible.", x=None),
        )
        assert ConeSolver(self.VECTORS, backend="milp").solve(self.TARGET) is None
        assert [c["options"] for c in calls] == [{}, {"presolve": False}]

    def test_a_second_solve_error_raises(self, monkeypatch):
        calls = self.patch_milp_results(
            monkeypatch, self.SOLVE_ERROR, self.SOLVE_ERROR
        )
        solver = ConeSolver(self.VECTORS, backend="milp")
        with pytest.raises(MilpUndecided, match="status 4"):
            solver.solve(self.TARGET)
        assert len(calls) == 2

    def test_a_sound_solution_is_the_certificate(self, monkeypatch):
        self.patch_milp(
            monkeypatch,
            status=0,
            success=True,
            message="Optimization terminated successfully.",
            x=[2.0000001, 2.9999999],
        )
        got = ConeSolver(self.VECTORS, backend="milp").solve(self.TARGET)
        assert got == {(1, 0): 2, (0, 1): 3}


class TestRationalCone:
    def test_integer_gap(self):
        # (1,1) is rationally 0.5*(2,2) but not an integer combination.
        assert in_rational_cone((1, 1), [(2, 2)])
        assert in_integer_cone((1, 1), [(2, 2)]) is None

    def test_zero_always_member(self):
        assert in_rational_cone((0, 0), [])

    def test_nonmember(self):
        assert not in_rational_cone((-1, 0), [(1, 0), (0, 1)])


class TestCoefficientBound:
    def test_negative_weight_target(self, fig1_stencil):
        assert coefficient_bound((-3, 0), fig1_stencil.vectors) == -1

    def test_bound_dominates_certificates(self, fig1_stencil):
        target = (4, 5)
        bound = coefficient_bound(target, fig1_stencil.vectors)
        cert = in_integer_cone(target, fig1_stencil.vectors)
        assert cert is not None
        assert all(c <= bound for c in cert.values())


class TestDoneDeadSets:
    def test_done_contains_q_and_respects_region(self, fig1_stencil):
        region = Polytope.from_box((0, 0), (5, 5))
        done = done_set(fig1_stencil, (3, 3), region)
        assert (3, 3) in done
        assert (0, 0) in done
        assert (3, 4) not in done  # not a backwards-reachable point
        # every DONE point is q minus a non-negative combination
        solver = ConeSolver(fig1_stencil.vectors)
        for p in done:
            assert solver.solve((3 - p[0], 3 - p[1])) is not None

    def test_dead_subset_of_done(self, fig1_stencil):
        region = Polytope.from_box((0, 0), (6, 6))
        q = (5, 5)
        done = done_set(fig1_stencil, q, region)
        dead = dead_set(fig1_stencil, q, region, done=done)
        assert dead <= done

    def test_dead_semantics(self, fig1_stencil):
        # p is dead iff all of p's consumers are in DONE (Figure 2).
        region = Polytope.from_box((0, 0), (6, 6))
        q = (5, 5)
        done = done_set(fig1_stencil, q, region)
        dead = dead_set(fig1_stencil, q, region)
        from repro.util.vectors import add

        for p in dead:
            assert all(
                add(p, v) in done for v in fig1_stencil.vectors
            )
        # (4,4) is dead (its consumers (5,4),(4,5),(5,5) are all DONE)
        assert (4, 4) in dead
        # (4,5)'s consumer (5,6) is not in DONE, hence not dead... but it
        # is outside the region; within the region-restricted semantics it
        # IS dead, matching the conservative documentation.  A clearly
        # live point: (3,5) has consumer (4,5) which is not in DONE.
        assert (3, 5) not in dead

    def test_uov_from_dead_set(self, fig1_stencil):
        # UOV(V) = { q - p : p in DEAD(V, q) }: (1,1) must appear.
        region = Polytope.from_box((0, 0), (8, 8))
        q = (6, 6)
        dead = dead_set(fig1_stencil, q, region)
        assert (5, 5) in dead  # ov = (1,1)


class TestSolverStats:
    def test_memoisation_counts(self, stencil5):
        solver = ConeSolver(stencil5.vectors)
        for target in [(3, 1), (3, -1), (4, 0), (3, 1)]:
            solver.solve(target)
        assert solver.stats["queries"] == 4
        assert solver.stats["dfs_nodes"] > 0
