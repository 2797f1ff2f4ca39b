"""The door: a started ``ServeApp`` answers a request whose clean answer
is stored from its own store, with no pool round trip — and sends every
other request to the pool exactly as before.

Driven in-process through ``ServeApp.handle`` (no HTTP) on a sqlite
store, with one real worker.
"""

import asyncio
import json
import sqlite3

import pytest

from repro import obs
from repro.codegen.build import discover_toolchain, reset_toolchain_cache
from repro.serve.app import ServeApp
from repro.serve.http import Request
from repro.serve.protocol import (
    compile_request_key,
    normalize_compile_request,
    normalize_experiment_request,
    success_body,
)
from repro.serve.workers import compile_answer_key

EXPERIMENT = {"code": "stencil5", "version": "ov", "sizes": {"T": 4, "L": 12}}


def post(app, path, body):
    request = Request("POST", path, {}, json.dumps(body).encode())
    return asyncio.run(asyncio.wait_for(app.handle(request), timeout=120))


def door_hits():
    return obs.get_metrics().snapshot()["counters"].get("serve.door.hits", 0)


def as_json(value):
    return json.loads(json.dumps(value))


@pytest.fixture
def make_app(tmp_path, monkeypatch):
    """Factory for a started app; the environment is read by the workers
    as they fork, so set it before calling."""
    monkeypatch.setenv("REPRO_SO_CACHE", str(tmp_path / "so"))
    apps = []

    def factory(store=True, **kwargs):
        reset_toolchain_cache()  # daemon and workers agree on REPRO_CC
        app = ServeApp(
            cache_dir=str(tmp_path / "store.sqlite") if store else None,
            workers=1,
            **kwargs,
        )
        app.pool.start()
        apps.append(app)
        return app

    yield factory
    for app in apps:
        app.pool.shutdown(grace_s=2.0)
        if app.store is not None:
            app.store.close()
    reset_toolchain_cache()


@pytest.fixture
def app(make_app):
    return make_app()


class TestDoorHits:
    def test_repeat_compile_is_the_workers_warm_answer(self, app, relax3_spec):
        body = {"spec": relax3_spec, "engine": "vectorized", "lint": True}
        cold = post(app, "/compile", body)
        assert cold.status == 200 and cold.body["cached"] is False
        completed = app.pool.completed
        hit = post(app, "/compile", body)
        assert hit.status == 200
        assert app.pool.completed == completed  # no worker
        assert door_hits() == 1
        # The worker's own warm answer to the same job, for comparison.
        job = normalize_compile_request(body)
        warm = app.pool.submit(job).result(timeout=120)
        assert warm["cached"] is True
        expected = dict(
            warm, stages=[dict(s, wall_s=0.0) for s in warm["stages"]]
        )
        expected = success_body(expected, cached=True)
        assert as_json(hit.body) == as_json(expected)
        assert hit.body["result"]["outputs_sha256"] == (
            cold.body["result"]["outputs_sha256"]
        )

    def test_repeat_experiment_is_the_workers_warm_answer(self, app):
        cold = post(app, "/experiment", EXPERIMENT)
        assert cold.status == 200 and cold.body["cached"] is False
        completed = app.pool.completed
        hit = post(app, "/experiment", EXPERIMENT)
        assert hit.status == 200
        assert app.pool.completed == completed
        assert door_hits() == 1
        warm = app.pool.submit(normalize_experiment_request(EXPERIMENT))
        warm = warm.result(timeout=120)
        assert warm["cached"] is True
        assert as_json(hit.body) == as_json(success_body(warm, cached=True))

    def test_a_hit_holds_and_releases_an_admission_slot(self, make_app):
        app = make_app(rate_per_s=0.001, burst=2)
        assert post(app, "/experiment", EXPERIMENT).status == 200
        assert post(app, "/experiment", EXPERIMENT).status == 200  # door
        assert door_hits() == 1
        assert post(app, "/experiment", EXPERIMENT).status == 429
        assert app.admission.snapshot()["inflight"] == 0

    def test_a_hit_is_answered_whatever_the_spec_breaker(self, app):
        from repro.serve.protocol import experiment_request_key

        assert post(app, "/experiment", EXPERIMENT).status == 200
        key = experiment_request_key(normalize_experiment_request(EXPERIMENT))
        breaker = app.spec_breakers.breaker(key)
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        assert breaker.state == "open"
        assert post(app, "/experiment", EXPERIMENT).status == 200
        assert door_hits() == 1


class TestDoorMisses:
    def test_degraded_native_result_is_never_answered(
        self, make_app, relax3_spec, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CC", "none")
        app = make_app()
        body = {"spec": relax3_spec, "engine": "native"}
        for _ in range(2):
            response = post(app, "/compile", body)
            assert response.status == 200
            assert response.body["degradation"]["reason"] == "no-toolchain"
        assert app.pool.completed == 2
        assert door_hits() == 0
        key = compile_request_key(normalize_compile_request(body))
        assert app.store.get(compile_answer_key(key)) is None

    @pytest.mark.skipif(
        discover_toolchain() is None,
        reason="no C toolchain on PATH (or REPRO_CC=none)",
    )
    def test_open_toolchain_breaker_sends_native_to_the_pool(
        self, app, relax3_spec
    ):
        body = {"spec": relax3_spec, "engine": "native"}
        clean = post(app, "/compile", body)
        assert clean.body["degradation"] is None  # a native answer is stored
        breaker = app.toolchain_breaker
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        completed = app.pool.completed
        rewritten = post(app, "/compile", body)
        assert rewritten.status == 200
        assert app.pool.completed == completed + 1
        assert rewritten.body["degradation"]["reason"] == (
            "toolchain-breaker-open"
        )
        assert rewritten.body["result"]["engine_used"] != "native"
        assert door_hits() == 0

    def test_rewritten_native_request_stores_nothing_native(
        self, app, relax3_spec
    ):
        breaker = app.toolchain_breaker
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        native = {"spec": relax3_spec, "engine": "native"}
        response = post(app, "/compile", native)
        assert response.body["degradation"]["reason"] == (
            "toolchain-breaker-open"
        )

        def stored(body):
            job = normalize_compile_request(body)
            return app.store.get(compile_answer_key(compile_request_key(job)))

        assert stored(native) is None
        assert stored(dict(native, engine="vectorized"))["engine"] == (
            "vectorized"
        )
        breaker.record_success()  # closed: the native request still misses
        completed = app.pool.completed
        assert post(app, "/compile", native).status == 200
        assert app.pool.completed == completed + 1
        assert door_hits() == 0

    def test_tampered_answer_heals_and_the_request_still_succeeds(
        self, app, relax3_spec, tmp_path
    ):
        body = {"spec": relax3_spec}
        cold = post(app, "/compile", body)
        golden = cold.body["result"]["outputs_sha256"]
        key = compile_answer_key(
            compile_request_key(normalize_compile_request(body))
        )
        with sqlite3.connect(tmp_path / "store.sqlite") as conn:
            changed = conn.execute(
                "UPDATE entries SET body = ? WHERE key = ?",
                ('{"tampered": true}', key),
            ).rowcount
        assert changed == 1
        completed = app.pool.completed
        healed = post(app, "/compile", body)
        assert healed.status == 200
        assert healed.body["result"]["outputs_sha256"] == golden
        assert app.pool.completed == completed + 1  # the miss ran
        assert door_hits() == 0
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters.get("store.heal.serve.store") == 1
        # The worker wrote the answer again.
        again = post(app, "/compile", body)
        assert again.body["result"]["outputs_sha256"] == golden
        assert door_hits() == 1

    def test_changed_engine_fingerprint_misses(
        self, app, relax3_spec, monkeypatch
    ):
        import repro.store.fingerprint as fingerprint

        routes = [("/compile", {"spec": relax3_spec})]
        routes.append(("/experiment", EXPERIMENT))
        for path, body in routes:
            assert post(app, path, body).status == 200
        monkeypatch.setattr(fingerprint, "_ENGINE_FINGERPRINT", "0" * 16)
        completed = app.pool.completed
        for path, body in routes:
            assert post(app, path, body).status == 200
        assert app.pool.completed == completed + 2
        assert door_hits() == 0

    def test_no_store_no_door(self, make_app, relax3_spec):
        app = make_app(store=False)
        for _ in range(2):
            assert post(app, "/compile", {"spec": relax3_spec}).status == 200
        assert app.pool.completed == 2
        assert door_hits() == 0
