"""Request validation, canonicalisation, and content-hash identity."""

import re

import pytest

from repro.serve.protocol import (
    ERROR_CODES,
    RequestError,
    ServeError,
    compile_request_key,
    error_body,
    experiment_request_key,
    normalize_compile_request,
    normalize_experiment_request,
    success_body,
)


class TestCompileRequests:
    def test_minimal_valid_request(self, relax3_spec):
        job = normalize_compile_request({"spec": relax3_spec})
        assert job["kind"] == "compile"
        assert job["engine"] == "interpreter"
        assert job["execute"] is True
        assert job["spec"]["name"] == "relax3"

    def test_rejects_non_object_body(self):
        with pytest.raises(RequestError):
            normalize_compile_request([1, 2, 3])

    def test_rejects_missing_spec(self):
        with pytest.raises(RequestError, match="'spec'"):
            normalize_compile_request({})

    def test_rejects_invalid_spec_with_diagnostics(self):
        with pytest.raises(RequestError, match="invalid spec"):
            normalize_compile_request({"spec": {"name": "nope"}})

    def test_rejects_unknown_engine(self, relax3_spec):
        with pytest.raises(RequestError, match="engine"):
            normalize_compile_request({"spec": relax3_spec, "engine": "gpu"})

    def test_rejects_bad_sizes(self, relax3_spec):
        with pytest.raises(RequestError, match="positive integer"):
            normalize_compile_request(
                {"spec": relax3_spec, "sizes": {"n": -1}}
            )
        with pytest.raises(RequestError, match="positive integer"):
            normalize_compile_request(
                {"spec": relax3_spec, "sizes": {"n": True}}
            )

    def test_rejects_unbound_size_symbols(self, relax3_spec):
        # A request-level sizes override must still bind every symbol.
        with pytest.raises(RequestError, match="size symbol"):
            normalize_compile_request(
                {"spec": relax3_spec, "sizes": {"n": 8}}
            )

    def test_rejects_undeclared_size_names(self, relax3_spec):
        # A stray name would split the door's key and the stage keys.
        with pytest.raises(RequestError, match=r"unknown size binding.*'X'"):
            normalize_compile_request(
                {"spec": relax3_spec, "sizes": {"n": 8, "m": 9, "X": 3}}
            )
        job = normalize_compile_request(
            {"spec": relax3_spec, "sizes": {"n": 8, "m": 9, "tile_h": 4}}
        )
        assert job["sizes"] == {"n": 8, "m": 9, "tile_h": 4}

    def test_rejects_bool_seed(self, relax3_spec):
        with pytest.raises(RequestError, match="seed"):
            normalize_compile_request({"spec": relax3_spec, "seed": True})

    @pytest.mark.parametrize(
        "bound", [1.5, None, [1], {"lo": 1}],
        ids=["float", "null", "list", "object"],
    )
    def test_rejects_ill_typed_bound(self, relax3_spec, bound):
        relax3_spec["bounds"][0][0] = bound
        with pytest.raises(RequestError, match="invalid spec") as info:
            normalize_compile_request({"spec": relax3_spec})
        findings = info.value.__cause__.diagnostics.findings
        assert {f.code for f in findings} == {"SPEC003"}

    def test_ill_typed_bound_is_a_bad_request(self, relax3_spec):
        import asyncio
        import json

        from repro.serve.app import ServeApp
        from repro.serve.http import Request

        relax3_spec["bounds"][0][0] = 1.5
        body = json.dumps({"spec": relax3_spec}).encode()
        app = ServeApp(workers=1)  # never started: no job may reach it
        response = asyncio.run(
            app.handle(Request("POST", "/compile", {}, body))
        )
        assert response.status == 400
        assert response.body["error"]["code"] == "bad-request"
        assert "invalid spec" in response.body["error"]["message"]


class TestExperimentRequests:
    def test_valid_request_defaults(self):
        job = normalize_experiment_request(
            {"code": "stencil5", "version": "ov", "sizes": {"T": 4, "L": 16}}
        )
        assert job["kind"] == "experiment"
        assert job["passes"] == 1 and job["seed"] == 0
        assert job["machine"]  # defaulted to the first registered machine

    def test_rejects_unknown_code(self):
        with pytest.raises(RequestError, match="unknown code"):
            normalize_experiment_request(
                {"code": "nope", "version": "ov", "sizes": {"T": 4}}
            )

    def test_rejects_unknown_version(self):
        with pytest.raises(RequestError, match="unknown version"):
            normalize_experiment_request(
                {"code": "stencil5", "version": "nope", "sizes": {"T": 4}}
            )

    def test_rejects_unknown_machine(self):
        with pytest.raises(RequestError, match="unknown machine"):
            normalize_experiment_request(
                {
                    "code": "stencil5",
                    "version": "ov",
                    "sizes": {"T": 4},
                    "machine": "cray-1",
                }
            )

    def test_rejects_empty_sizes(self):
        with pytest.raises(RequestError, match="sizes"):
            normalize_experiment_request(
                {"code": "stencil5", "version": "ov"}
            )

    @pytest.mark.parametrize("passes", [0, -2])
    def test_rejects_passes_below_one(self, passes):
        with pytest.raises(RequestError, match="'passes' must be at least 1"):
            normalize_experiment_request(
                {
                    "code": "stencil5",
                    "version": "ov",
                    "sizes": {"T": 4, "L": 16},
                    "passes": passes,
                }
            )

    @pytest.mark.parametrize(
        "code, sizes, missing",
        [
            ("stencil5", {"T": 4}, "['L']"),
            ("psm", {"n0": 8, "tile_h": 4}, "['n1']"),
            ("simple2d", {"N": 7, "M": 9}, "['n', 'm']"),
        ],
    )
    def test_rejects_unbound_size_symbols(self, code, sizes, missing):
        with pytest.raises(RequestError, match=re.escape(missing)):
            normalize_experiment_request(
                {"code": code, "version": "natural", "sizes": sizes}
            )

    def test_rejects_undeclared_size_names(self):
        with pytest.raises(RequestError, match=r"unknown size binding.*'X'"):
            normalize_experiment_request(
                {
                    "code": "stencil5",
                    "version": "ov",
                    "sizes": {"T": 4, "L": 16, "X": 3},
                }
            )


class TestMalformedExperimentAtTheDoor:
    """A point that can never simulate is a 400 on every repeat: it
    reaches no worker and counts no failure on the spec breaker."""

    @pytest.fixture
    def app(self):
        from repro.serve.app import ServeApp

        app = ServeApp(workers=1)
        app.pool.start()
        yield app
        app.pool.shutdown(grace_s=2.0)

    @pytest.mark.parametrize(
        "change", [{"passes": 0}, {"sizes": {"T": 4}}], ids=["passes", "sizes"]
    )
    def test_bad_request_every_time(self, app, change):
        import asyncio
        import json

        from repro import obs
        from repro.serve.http import Request

        body = {"code": "stencil5", "version": "ov", "sizes": {"T": 4, "L": 16}}
        request = Request(
            "POST", "/experiment", {}, json.dumps(body | change).encode()
        )
        for _ in range(4):
            response = asyncio.run(
                asyncio.wait_for(app.handle(request), timeout=60)
            )
            assert response.status == 400
            assert response.body["error"]["code"] == "bad-request"
        assert app.spec_breakers.snapshot()["total"] == 0
        assert app.pool.snapshot()["completed"] == 0
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters.get("serve.responses.400") == 4
        assert "serve.jobs.failed" not in counters


class TestRequestIdentity:
    def test_equal_work_hashes_equal(self, relax3_spec):
        a = normalize_compile_request({"spec": relax3_spec, "seed": 7})
        # Byte-different body (key order, explicit defaults), same work.
        b = normalize_compile_request(
            {"seed": 7, "engine": "interpreter", "spec": dict(relax3_spec)}
        )
        assert compile_request_key(a) == compile_request_key(b)

    def test_different_engine_hashes_differ(self, relax3_spec):
        a = normalize_compile_request({"spec": relax3_spec})
        b = normalize_compile_request(
            {"spec": relax3_spec, "engine": "vectorized"}
        )
        assert compile_request_key(a) != compile_request_key(b)

    def test_compile_and_experiment_never_collide(self, relax3_spec):
        compile_job = normalize_compile_request({"spec": relax3_spec})
        exp_job = normalize_experiment_request(
            {"code": "stencil5", "version": "ov", "sizes": {"T": 4, "L": 16}}
        )
        assert compile_request_key(compile_job) != experiment_request_key(
            exp_job
        )


class TestEnvelopes:
    def test_success_body_shape(self):
        body = success_body({"x": 1}, coalesced=True, cached=False)
        assert body == {
            "ok": True,
            "coalesced": True,
            "result": {"x": 1},
            "degradation": None,
            "cached": False,
        }

    def test_error_body_shape_and_codes(self):
        err = ServeError(
            "overloaded", "shed", retry_after_s=1.5, detail={"reason": "rate"}
        )
        body = error_body(err)
        assert body["ok"] is False
        assert body["error"]["code"] in ERROR_CODES
        assert body["error"]["retry_after_s"] == 1.5
        assert body["error"]["detail"] == {"reason": "rate"}
