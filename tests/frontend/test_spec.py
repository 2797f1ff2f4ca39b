"""StencilSpec validation, round-tripping, and the builder API."""

import dataclasses

import pytest

from repro.analysis.diag import Diagnostics, Severity
from repro.codes import CODES, get_spec
from repro.frontend import (
    SpecBuilder,
    SpecError,
    StencilSpec,
    code_to_spec,
    synthesize_code,
    validate_spec,
)

CODE_NAMES = ["simple2d", "stencil5", "psm", "jacobi"]


def minimal_doc(**overrides):
    """A valid 2-D Jacobi-shaped spec document to perturb."""
    doc = {
        "name": "probe",
        "indices": ["t", "x"],
        "bounds": [[1, "T"], [0, "L - 1"]],
        "distances": [[1, 1], [1, 0], [1, -1]],
        "combine": {"kind": "weighted-sum", "weights": [0.25, 0.5, 0.25]},
        "inputs": {"kind": "padded-line", "axis": 1, "pad": 1, "pad_value": 0.0},
        "sizes": {"T": 4, "L": 8},
    }
    doc.update(overrides)
    return doc


def findings_for(doc):
    """Validate an invalid doc; return its findings (asserts SpecError)."""
    diag = Diagnostics()
    with pytest.raises(SpecError) as exc_info:
        validate_spec(doc, diag)
    assert exc_info.value.diagnostics is diag
    return diag.findings


def codes_of(findings):
    return {f.code for f in findings}


class TestRoundTrip:
    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_registered_spec_survives_json_round_trip(self, name):
        spec = get_spec(name)
        assert validate_spec(spec.to_json()) == spec

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_spec_to_code_to_spec_is_stable(self, name):
        spec = get_spec(name)
        code = synthesize_code(spec)
        recovered = code_to_spec(code)
        assert recovered == spec
        # And the recovered spec re-synthesizes and re-serialises stably.
        assert code_to_spec(synthesize_code(recovered)) == spec
        assert validate_spec(recovered.to_json()).to_json() == spec.to_json()

    def test_minimal_doc_round_trips(self):
        spec = validate_spec(minimal_doc())
        assert validate_spec(spec.to_json()) == spec

    def test_bounds_are_canonicalised_idempotently(self):
        spec = validate_spec(minimal_doc(bounds=[[1, "T"], [0, "L-1"]]))
        assert spec.bounds == ((1, "T"), (0, "L - 1"))
        assert validate_spec(spec.to_json()).bounds == spec.bounds

    def test_hand_written_code_has_no_spec(self):
        from repro.codes.base import Code

        code = synthesize_code(get_spec("jacobi"))
        bare = dataclasses.replace(code, spec=None)
        with pytest.raises(ValueError, match="hand-written"):
            code_to_spec(bare)


class TestBoundsFn:
    """Bound strings are parsed once; evaluating them stays pure."""

    def test_same_tuples_for_several_bindings(self):
        spec = validate_spec(
            minimal_doc(bounds=[[1, "T"], ["2*T - 1", "L + T - 1"]])
        )
        for sizes in ({"T": 4, "L": 8}, {"T": 1, "L": 1}, {"T": 9, "L": 40}):
            t, length = sizes["T"], sizes["L"]
            expected = ((1, t), (2 * t - 1, length + t - 1))
            assert spec.bounds_fn(sizes) == expected
        # Earlier bindings are not remembered.
        assert spec.bounds_fn({"T": 4, "L": 8}) == ((1, 4), (7, 11))

    def test_evaluating_bounds_leaves_the_spec_unchanged(self):
        import pickle

        from repro.store.fingerprint import content_hash

        spec = validate_spec(minimal_doc())
        fresh = validate_spec(minimal_doc())
        before = (pickle.dumps(spec), content_hash(spec.to_json()))
        spec.bounds_fn({"T": 3, "L": 5})
        assert spec == fresh
        assert dataclasses.asdict(spec) == dataclasses.asdict(fresh)
        assert (pickle.dumps(spec), content_hash(spec.to_json())) == before
        assert validate_spec(spec.to_json()) == spec
        restored = pickle.loads(pickle.dumps(spec))
        assert restored == spec
        assert restored.bounds_fn({"T": 2, "L": 6}) == ((1, 2), (0, 5))


class TestValidation:
    def test_bad_distance_arity(self):
        findings = findings_for(
            minimal_doc(distances=[[1, 1], [1, 0, 0], [1, -1]])
        )
        assert "SPEC002" in codes_of(findings)
        assert any("3 components for 2" in f.message for f in findings)

    def test_non_lex_positive_distance(self):
        findings = findings_for(minimal_doc(distances=[[1, 1], [0, -1]]))
        assert "SPEC002" in codes_of(findings)
        assert any("lexicographically" in f.message for f in findings)

    def test_unbound_size_symbol(self):
        findings = findings_for(minimal_doc(sizes={"T": 4}))
        assert "SPEC004" in codes_of(findings)
        bad = next(f for f in findings if f.code == "SPEC004")
        assert bad.data["symbol"] == "L"
        assert "sizes" in (bad.fix_hint or "")

    def test_non_affine_bound(self):
        findings = findings_for(minimal_doc(bounds=[[1, "T"], [0, "L*L"]]))
        assert "SPEC003" in codes_of(findings)

    def test_bound_referencing_loop_index(self):
        findings = findings_for(minimal_doc(bounds=[[1, "T"], [0, "t + 3"]]))
        assert "SPEC003" in codes_of(findings)
        assert any("rectangular" in f.message for f in findings)

    def test_bad_combine_weight_arity(self):
        findings = findings_for(
            minimal_doc(combine={"kind": "weighted-sum", "weights": [0.5, 0.5]})
        )
        assert "SPEC005" in codes_of(findings)

    def test_unknown_combine_hook(self):
        findings = findings_for(
            minimal_doc(combine={"kind": "hook", "name": "nope"})
        )
        assert "SPEC005" in codes_of(findings)

    def test_hook_spec_compiles_in_a_fresh_interpreter(self, tmp_path):
        # In-process this would pass regardless: the suite has already
        # imported repro.codes, which registers PSM's hook.  A fresh
        # ``repro compile`` of the psm spec file must find it too.
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        spec_path = tmp_path / "psm.json"
        spec_path.write_text(json.dumps(get_spec("psm").to_json()))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "compile", str(spec_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_bad_input_rule(self):
        findings = findings_for(minimal_doc(inputs={"kind": "telepathy"}))
        assert "SPEC006" in codes_of(findings)

    def test_unknown_mapping_suggests_close_match(self):
        findings = findings_for(minimal_doc(mapping="ov-interleave"))
        bad = next(f for f in findings if f.code == "SPEC007")
        assert "ov-interleaved" in (bad.fix_hint or "")

    def test_unknown_schedule(self):
        findings = findings_for(minimal_doc(schedule="wavefront2"))
        assert "SPEC007" in codes_of(findings)

    def test_empty_loop_under_default_sizes(self):
        findings = findings_for(minimal_doc(sizes={"T": 4, "L": 0}))
        assert "SPEC008" in codes_of(findings)

    def test_multiple_errors_collected_in_one_pass(self):
        findings = findings_for(
            minimal_doc(
                distances=[[1, 1, 1]],
                bounds=[[1, "T"], [0, "L*L"]],
                mapping="telepathy",
            )
        )
        assert {"SPEC002", "SPEC003", "SPEC007"} <= codes_of(findings)

    def test_unknown_field_is_a_warning_not_an_error(self):
        diag = Diagnostics()
        spec = validate_spec(minimal_doc(extra_field=1), diag)
        assert isinstance(spec, StencilSpec)
        assert diag.max_severity() == Severity.WARNING

    def test_non_mapping_spec(self):
        findings = findings_for(["not", "a", "spec"])
        assert "SPEC001" in codes_of(findings)

    @pytest.mark.parametrize(
        "bound", [1.0, 2.5, None, [1], {"lo": 1}],
        ids=["integral-float", "float", "null", "list", "object"],
    )
    def test_bound_neither_string_nor_integer(self, bound):
        # 1 is parsed (and cached) first: 1.0 must not be handed its parse.
        validate_spec(minimal_doc(bounds=[[1, "T"], [0, "L - 1"]]))
        findings = findings_for(minimal_doc(bounds=[[bound, "T"], [0, "L - 1"]]))
        assert codes_of(findings) == {"SPEC003"}
        assert type(bound).__name__ in findings[0].message


class TestBoundParseCache:
    """Bounds parse through the bounded ``_parse_bound`` cache."""

    def test_validating_a_spec_twice_parses_its_bounds_once(self, monkeypatch):
        from repro.ir import affine

        parsed = []
        real = affine._parse_affine

        def counting(source):
            parsed.append(source)
            return real(source)

        monkeypatch.setattr(affine, "_parse_affine", counting)
        # Bound strings no other test uses, so the first validation misses.
        doc = minimal_doc(bounds=[[1, "2*T - T"], [0, "L - 2 + 1"]])
        first = validate_spec(doc)
        assert parsed.count("2*T - T") == 1
        assert parsed.count("L - 2 + 1") == 1
        seen = len(parsed)
        assert validate_spec(doc) == first
        assert len(parsed) == seen
        assert first.bounds == ((1, "T"), (0, "L - 1"))

    def test_true_bound_canonicalises_to_one(self):
        spec = validate_spec(minimal_doc(bounds=[[True, "T"], [0, "L - 1"]]))
        assert spec.bounds == ((1, "T"), (0, "L - 1"))
        assert type(spec.bounds[0][0]) is int


class TestBuilder:
    def test_builder_matches_from_json(self):
        built = (
            SpecBuilder("probe")
            .loop("t", 1, "T")
            .loop("x", 0, "L - 1")
            .distances((1, 1), (1, 0), (1, -1))
            .weighted_sum(0.25, 0.5, 0.25)
            .inputs("padded-line", axis=1, pad=1, pad_value=0.0)
            .sizes(T=4, L=8)
            .build()
        )
        assert built == validate_spec(minimal_doc())

    def test_builder_expr_combine_with_max(self):
        spec = (
            SpecBuilder("clamped")
            .loop("i", 1, "n")
            .loop("j", 1, "m")
            .distances((1, 0), (0, 1), (1, 1))
            .expr("max(0.3*v0 + 0.3*v1 + 0.4*v2, 0.1)")
            .inputs("row-or-constant", axis=1, constant=0.5)
            .sizes(n=4, m=5)
            .build()
        )
        code = synthesize_code(spec)
        assert code.combine((1.0, 1.0, 1.0), (1, 1), {}) == 1.0
        assert code.combine((0.0, 0.0, 0.0), (1, 1), {}) == 0.1

    def test_builder_surfaces_validation_errors(self):
        builder = (
            SpecBuilder("broken")
            .loop("t", 1, "T")
            .distances((1, 2))  # arity mismatch with 1 loop
            .weighted_sum(1.0)
            .inputs("padded-line")
            .sizes(T=4)
        )
        with pytest.raises(SpecError):
            builder.build()


class TestSynthesizedEquivalence:
    """Spec-synthesized codes behave exactly like the originals."""

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_stencil_matches_program_extraction(self, name):
        from repro.analysis.dependence import extract_stencil

        code = synthesize_code(get_spec(name))
        assert extract_stencil(code.program).vectors == code.stencil.vectors

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_all_versions_verify(self, name):
        from repro.codes import get_versions
        from repro.execution import verify_versions

        spec = get_spec(name)
        versions = get_versions(name)
        verify_versions(list(versions.values()), spec.sizes, seed=1)

    def test_registry_metadata_carries_specs(self):
        for entry in CODES.entries():
            assert entry.meta["spec"].name == entry.name


class TestCombineCache:
    """Each (expression, source count) compiles once per process."""

    def test_same_expression_same_callables(self):
        from repro.frontend import compile_combine

        doc = {"kind": "expr", "expr": "0.5*v0 + max(v1, 0.0)"}
        a = compile_combine(doc, 2)
        b = compile_combine(dict(doc), 2)
        assert a.combine is b.combine
        assert a.combine_batch is b.combine_batch
        # The CompiledCombine and its json are the caller's own.
        assert a is not b and a.json is not b.json
        assert compile_combine(doc, 3).combine is not a.combine

    def test_validating_a_spec_twice_compiles_it_once(self, monkeypatch):
        from repro.frontend import combine

        compiled = []
        real = combine._compile_fn

        def counting(tree, batched):
            compiled.append(batched)
            return real(tree, batched)

        monkeypatch.setattr(combine, "_compile_fn", counting)
        # Weights no other test uses, so the first validation misses.
        doc = minimal_doc(
            combine={"kind": "weighted-sum", "weights": [0.125, 0.625, 0.25]}
        )
        validate_spec(doc)
        assert sorted(compiled) == [False, True]  # scalar + batched
        validate_spec(doc)
        assert sorted(compiled) == [False, True]

    @pytest.mark.parametrize(
        "expr", ["v0 +", "v0 + v7", "__import__('os')", "v0 ** 2"]
    )
    def test_malformed_expression_raises_every_time_uncached(self, expr):
        from repro.frontend.combine import _expr_callables

        doc = minimal_doc(combine={"kind": "expr", "expr": expr})
        size = _expr_callables.cache_info().currsize
        first = [f.message for f in findings_for(doc) if f.code == "SPEC005"]
        again = [f.message for f in findings_for(doc) if f.code == "SPEC005"]
        assert first and first == again
        assert _expr_callables.cache_info().currsize == size

    def test_cache_is_bounded(self):
        from repro.frontend.combine import EXPR_CACHE_SIZE, _expr_callables

        assert EXPR_CACHE_SIZE == 1024
        assert _expr_callables.cache_info().maxsize == EXPR_CACHE_SIZE
