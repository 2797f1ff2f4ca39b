"""Differential fuzzing: the static subsystem vs. sampled schedules.

The acceptance bar for the verifier is quantitative: at least 200 random
legal schedules sampled across the corpus with **zero** static/dynamic
disagreements.  :class:`TestAcceptance` is that bar.
"""

import pytest

from repro.analysis.fuzz import (
    differential_fuzz_mapping,
    differential_fuzz_uov,
)
from repro.core.stencil import Stencil
from repro.mapping.optimized import RollingBufferMapping
from repro.mapping.ov import OVMapping
from repro.util.polyhedron import Polytope

#: (stencil vectors, certified UOV, bounds) — one entry per corpus code.
SUBJECTS = [
    ([(1, 0), (0, 1), (1, 1)], (1, 1), ((0, 5), (0, 6))),
    ([(1, -2), (1, -1), (1, 0), (1, 1), (1, 2)], (2, 0), ((1, 4), (0, 8))),
    ([(1, -1), (1, 0), (1, 1)], (2, 0), ((1, 4), (0, 8))),
    ([(0, 1), (1, 0), (1, 1)], (2, 2), ((0, 4), (0, 5))),
]


class TestAcceptance:
    def test_200_schedules_zero_disagreements(self):
        total = 0
        for vectors, ov, bounds in SUBJECTS:
            report = differential_fuzz_uov(
                ov, Stencil(vectors), bounds, samples=55, seed=0
            )
            assert report.ok, report.disagreements
            assert report.verdict == "universal"
            assert report.dynamic_violations == 0
            total += report.samples
        assert total >= 200


class TestRejectedSide:
    def test_counterexample_must_replay(self, fig1_stencil):
        report = differential_fuzz_uov(
            (1, 0), fig1_stencil, ((0, 5), (0, 6)), samples=20
        )
        assert report.verdict == "rejected"
        assert report.counterexample_replayed is True
        assert report.ok
        # Random schedules trip over the bad OV too — evidence the
        # static refutation describes real behaviour, not an edge case.
        assert report.dynamic_violations > 0


class TestMappingSide:
    def test_clean_mapping_survives_sampling(self, fig1_stencil):
        box = Polytope.from_loop_bounds(((0, 5), (0, 6)))
        report = differential_fuzz_mapping(
            OVMapping((1, 1), box), fig1_stencil, ((0, 5), (0, 6)),
            samples=25,
        )
        assert report.verdict == "clean" and report.ok
        assert report.dynamic_violations == 0

    def test_racy_mapping_may_violate_without_disagreeing(self, fig1_stencil):
        box = Polytope.from_loop_bounds(((0, 5), (0, 6)))
        report = differential_fuzz_mapping(
            RollingBufferMapping(fig1_stencil, box),
            fig1_stencil,
            ((0, 5), (0, 6)),
            samples=25,
        )
        assert report.verdict == "racy"
        # Sampled violations are expected here and are not disagreements.
        assert report.ok

    def test_reports_are_reproducible(self, fig1_stencil):
        box = Polytope.from_loop_bounds(((0, 4), (0, 4)))
        kwargs = dict(samples=10, seed=7)
        a = differential_fuzz_mapping(
            OVMapping((1, 1), box), fig1_stencil, ((0, 4), (0, 4)), **kwargs
        )
        b = differential_fuzz_mapping(
            OVMapping((1, 1), box), fig1_stencil, ((0, 4), (0, 4)), **kwargs
        )
        assert (a.verdict, a.disagreements, a.dynamic_violations) == (
            b.verdict, b.disagreements, b.dynamic_violations
        )


class TestSymbolicSide:
    def test_symbolic_fuzz_agrees_with_enumerative(self):
        from repro.analysis.fuzz import differential_fuzz_symbolic

        report = differential_fuzz_symbolic(trials=15, seed=7)
        assert report.ok, report.disagreements
        assert report.verdict == "universal"
        assert 0 < report.samples <= 15

    def test_symbolic_fuzz_3d(self):
        from repro.analysis.fuzz import differential_fuzz_symbolic

        report = differential_fuzz_symbolic(trials=6, seed=3, dim=3)
        assert report.ok, report.disagreements

    def test_random_stencil_vectors_are_lex_positive(self):
        import random

        from repro.analysis.fuzz import random_stencil

        rng = random.Random(11)
        for _ in range(50):
            stencil = random_stencil(rng, dim=2)
            assert stencil.vectors
            for v in stencil.vectors:
                assert v > (0, 0) or (v[0] == 0 and v[1] > 0) or v[0] > 0
