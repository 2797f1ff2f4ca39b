"""Size-parametric UOV certification."""

import json

import pytest

from repro.analysis.certify import UOVCertificate, UOVCounterexample, certify
from repro.analysis.symcert import (
    SymbolicBounds,
    SymbolicCertificate,
    SymbolicCounterexample,
    symbolic_certify,
    symbolic_certify_code,
    symbolic_certify_spec,
)
from repro.codes import CODES, get_versions
from repro.codes.psm import PSM_SPEC
from repro.core.stencil import Stencil
from repro.ir.affine import AffineExpr

FIG1 = Stencil([(1, 0), (0, 1), (1, 1)])


def fig1_bounds():
    return SymbolicBounds(
        indices=("i", "j"),
        bounds=(
            (AffineExpr.parse(1), AffineExpr.parse("n")),
            (AffineExpr.parse(1), AffineExpr.parse("m")),
        ),
        params=("n", "m"),
    )


class TestCertificates:
    def test_paper_uov_certifies_parametrically(self):
        result = symbolic_certify((1, 1), FIG1, bounds=fig1_bounds())
        assert isinstance(result, SymbolicCertificate)
        assert result.verify()
        assert set(result.rows) == set(FIG1.vectors)

    def test_certificate_has_auditable_proof(self):
        result = symbolic_certify((1, 1), FIG1)
        assert isinstance(result, SymbolicCertificate)
        assert result.trace  # one elimination record per stencil vector
        assert all("system" in step for step in result.trace)

    def test_certificate_json_round_trip(self):
        result = symbolic_certify((2, 2), FIG1, bounds=fig1_bounds())
        blob = json.dumps(result.to_json())
        back = SymbolicCertificate.from_json(json.loads(blob))
        assert back.ov == result.ov
        assert back.rows == result.rows
        assert back.verify()
        assert back.bounds is not None and back.bounds.params == ("n", "m")

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            symbolic_certify((0, 0), FIG1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            symbolic_certify((1, 1, 1), FIG1)


class TestCounterexamples:
    def test_rejection_with_witness_sizes(self):
        result = symbolic_certify((0, 1), FIG1, bounds=fig1_bounds())
        assert isinstance(result, SymbolicCounterexample)
        assert result.failing_vector in FIG1.vectors
        # The violation box found minimal concrete sizes and they are
        # confirmed by the enumerative replay.
        assert result.witness_sizes is not None
        assert all(v >= 1 for v in result.witness_sizes.values())
        assert result.confirmed
        assert result.size_conditions  # projection onto (n, m)

    def test_rejection_agrees_with_enumerative(self):
        for ov in ((1, 0), (0, 1), (3, -1)):
            symbolic = symbolic_certify(ov, FIG1)
            enumerative = certify(ov, FIG1)
            assert isinstance(symbolic, SymbolicCounterexample) == isinstance(
                enumerative, UOVCounterexample
            )

    def test_counterexample_json(self):
        result = symbolic_certify((1, 0), FIG1, bounds=fig1_bounds())
        record = result.to_json()
        assert record["verdict"] == "rejected"
        assert record["parametric"] is True
        assert record["confirmed"] is True


class TestCodeLevel:
    @pytest.mark.parametrize("name", sorted(CODES.as_dict()))
    def test_builtin_codes_certify_parametrically(self, name):
        from repro.analysis.passes import LINT_SIZES

        versions = get_versions(name)
        code = next(iter(versions.values())).code
        outcome = symbolic_certify_code(
            code, code.stencil.initial_uov, sizes=LINT_SIZES[name]
        )
        assert outcome.verdict == "universal", (
            name,
            outcome.degradation,
        )
        assert outcome.certificate.verify()
        assert outcome.agreement is True

    @pytest.mark.parametrize("name", sorted(CODES.as_dict()))
    def test_version_ovs_certify(self, name):
        """Every OV an actual shipped version uses is parametrically safe."""
        from repro.analysis.passes import LINT_SIZES
        from repro.mapping import OVMapping

        versions = get_versions(name)
        code = next(iter(versions.values())).code
        for key, version in versions.items():
            mapping = version.mapping(LINT_SIZES[name])
            if not isinstance(mapping, OVMapping):
                continue
            outcome = symbolic_certify_code(
                code, tuple(mapping.ov), sizes=LINT_SIZES[name]
            )
            assert outcome.verdict == "universal", (name, key)

    def test_bad_ov_rejected_with_enumerative_backing(self):
        versions = get_versions("simple2d")
        code = next(iter(versions.values())).code
        outcome = symbolic_certify_code(code, (0, 1))
        assert outcome.verdict == "rejected"
        assert outcome.agreement is True
        assert isinstance(outcome.enumerative, UOVCounterexample)


class TestSpecLevel:
    def test_example_specs_certify(self):
        from repro.frontend.spec import validate_spec

        for path in (
            "examples/specs/heat7.json",
            "examples/specs/relax3.json",
        ):
            with open(path) as fh:
                spec = validate_spec(json.load(fh))
            outcome = symbolic_certify_spec(spec)
            assert outcome.verdict == "universal", (path, outcome.degradation)
            assert outcome.agreement is True

    def test_hook_spec_degrades_never_wrong(self):
        """Opaque SemanticsHook combines degrade with a structured record
        — the enumerative verdict is the one the caller must trust."""
        outcome = symbolic_certify_spec(PSM_SPEC)
        assert outcome.verdict == "degraded"
        assert outcome.degradation is not None
        assert outcome.degradation.reason == "opaque-semantics"
        assert outcome.degradation.fallback == "enumerative-certify"
        assert isinstance(outcome.enumerative, UOVCertificate)
        # Degraded outcomes never claim a symbolic verdict.
        assert outcome.certificate is None
        assert outcome.counterexample is None
        assert outcome.agreement is None


class TestIrregularBounds:
    def test_model_mismatch_degrades(self):
        """A bounds callable the affine IR does not reproduce degrades."""
        import dataclasses

        versions = get_versions("simple2d")
        code = next(iter(versions.values())).code
        warped = dataclasses.replace(
            code,
            bounds=lambda sizes: tuple(
                (lo, hi + 1) for lo, hi in code.bounds(sizes)
            ),
        )
        outcome = symbolic_certify_code(
            warped, code.stencil.initial_uov, sizes={"n": 6, "m": 7}
        )
        assert outcome.verdict == "degraded"
        assert outcome.degradation.reason == "irregular-bounds"
        assert isinstance(outcome.enumerative, UOVCertificate)
