"""Static UOV certification: certificates, counterexamples, replay."""

import pytest

from repro.analysis.certify import UOVCertificate, UOVCounterexample, certify
from repro.analysis.legality import is_schedule_legal
from repro.core.stencil import Stencil

#: (code, stencil vectors, UOVs that must certify) — the paper's corpus.
CORPUS = [
    ("simple2d", [(1, 0), (0, 1), (1, 1)], [(2, 2), (1, 1)]),
    ("stencil5", [(1, -2), (1, -1), (1, 0), (1, 1), (1, 2)], [(2, 0)]),
    ("jacobi", [(1, -1), (1, 0), (1, 1)], [(2, 0)]),
    ("psm", [(0, 1), (1, 0), (1, 1)], [(2, 2), (1, 1)]),
]


class TestCertificates:
    @pytest.mark.parametrize(
        "name,vectors,uovs", CORPUS, ids=[c[0] for c in CORPUS]
    )
    def test_corpus_uovs_certify(self, name, vectors, uovs):
        stencil = Stencil(vectors)
        for ov in uovs:
            result = certify(ov, stencil)
            assert isinstance(result, UOVCertificate), f"{name} {ov}"
            assert result.verify()

    def test_initial_uov_always_certifies(self, fig1_stencil):
        result = certify(fig1_stencil.initial_uov, fig1_stencil)
        assert isinstance(result, UOVCertificate)

    def test_certificate_rows_are_integer_checkable(self, stencil5):
        cert = certify((2, 0), stencil5)
        # One witness row per stencil vector, each a non-negative
        # combination summing (with the mandatory vi) to the OV.
        assert set(cert.rows) == set(stencil5.vectors)
        for vi, row in cert.rows.items():
            total = list(vi)
            for vj, a in row.items():
                assert a >= 0
                for k in range(2):
                    total[k] += a * vj[k]
            assert tuple(total) == (2, 0)

    def test_tampered_certificate_fails_verify(self, fig1_stencil):
        cert = certify((1, 1), fig1_stencil)
        rows = {vi: dict(row) for vi, row in cert.rows.items()}
        some_vi = next(iter(rows))
        rows[some_vi][fig1_stencil.vectors[0]] = (
            rows[some_vi].get(fig1_stencil.vectors[0], 0) + 1
        )
        assert not UOVCertificate(cert.ov, cert.stencil, rows).verify()

    def test_json_artifact_shape(self, fig1_stencil):
        record = certify((1, 1), fig1_stencil).to_json()
        assert record["verdict"] == "universal"
        assert record["ov"] == [1, 1]
        assert len(record["rows"]) == len(fig1_stencil.vectors)


class TestCounterexamples:
    @pytest.mark.parametrize(
        "name,vectors,uovs", CORPUS, ids=[c[0] for c in CORPUS]
    )
    def test_known_illegal_ov_rejected_with_replay(self, name, vectors, uovs):
        """(1, 0) skips the same-row dependences of every corpus stencil;
        the refutation must come with a schedule that really clobbers."""
        stencil = Stencil(vectors)
        result = certify((1, 0), stencil)
        assert isinstance(result, UOVCounterexample), name
        assert result.replayable
        violation = result.replay()
        assert violation is not None
        # The schedule fragment is itself legal — the clobber is the
        # mapping's fault, not an artifact of an impossible order.
        assert is_schedule_legal(result.order, stencil, bounds=result.bounds)

    def test_counterexample_names_the_cast(self, fig1_stencil):
        result = certify((1, 0), fig1_stencil)
        assert result.failing_vector in fig1_stencil.vectors
        assert result.writer is not None and result.victim is not None
        for k in range(2):
            assert result.victim[k] == result.writer[k] - result.ov[k]
        # Writer and victim genuinely collide in the replay mapping.
        mapping = result.mapping()
        assert mapping(result.writer) == mapping(result.victim)

    def test_skipping_schedule_construction(self, fig1_stencil):
        result = certify((1, 0), fig1_stencil, counterexample_schedule=False)
        assert isinstance(result, UOVCounterexample)
        assert not result.replayable and result.replay() is None

    def test_json_artifact_shape(self, fig1_stencil):
        record = certify((1, 0), fig1_stencil).to_json()
        assert record["verdict"] == "rejected"
        assert record["failing_vector"] in [[1, 0], [0, 1], [1, 1]]
        assert record["order"], "replayable counterexample stores its order"


class TestValidation:
    def test_zero_ov_rejected(self, fig1_stencil):
        with pytest.raises(ValueError, match="zero vector"):
            certify((0, 0), fig1_stencil)

    def test_dimension_mismatch_rejected(self, fig1_stencil):
        with pytest.raises(ValueError, match="dimensionality"):
            certify((1, 1, 1), fig1_stencil)


class TestPropertyBased:
    """Satellite (f): certify(sum vi) holds for random 2-D stencils."""

    def test_initial_uov_certifies_for_random_stencils(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        from ..core.test_stencil import lex_positive_vectors

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(
            st.lists(
                lex_positive_vectors(max_abs=3), min_size=1, max_size=4
            )
        )
        def check(vectors):
            stencil = Stencil(vectors)
            result = certify(stencil.initial_uov, stencil)
            assert isinstance(result, UOVCertificate)
            assert result.verify()

        check()
