"""Pinned-format tests for the consolidated fingerprint module.

The exact byte formats here are load-bearing: every on-disk cache key
in the field is derived from them, so an accidental change silently
invalidates (or worse, aliases) existing entries.  If one of these
tests fails, the fix is to restore the format, not the expectation.
"""

from __future__ import annotations

import hashlib
import json

from repro.store.fingerprint import (
    canonical_json,
    content_hash,
    engine_fingerprint,
    hash_bytes,
    reset_engine_fingerprint,
)


class TestCanonicalJson:
    def test_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == b'{"a": 2, "b": 1}'

    def test_insertion_order_is_irrelevant(self):
        assert canonical_json({"x": 1, "y": 2}) == canonical_json(
            {"y": 2, "x": 1}
        )

    def test_bytes_equal_json_dumps_sort_keys(self):
        corpus = [
            "bare string",
            "",
            "non-ASCII: é ü 漢字 \u2028 \U0001f600",
            {"é": "ü", "z": ["\x00", "\t\n\"\\"]},
            0.1, -2.5e-300, 1e22, 3.0, float("inf"), float("-inf"),
            [1, [2, [3, []]], {}, [{}], {"a": {}}],
            {"b": {"d": [1.5, None, True, False], "c": {}}, "a": []},
            {}, [], None, True, 0, -7, 2**70,
            {"structural": {"name": "heat7", "bounds": [[1, "T"], [0, "L-1"]],
                            "combine": {"weights": [0.02, 0.08, 0.2]}}},
        ]
        for payload in corpus:
            assert canonical_json(payload) == (
                json.dumps(payload, sort_keys=True).encode()
            ), payload


class TestContentHashPinnedFormat:
    def test_is_sha256_of_sorted_json(self):
        payload = {"op": "simulate", "seed": 0, "sizes": {"T": 8, "L": 64}}
        expected = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        assert content_hash(payload) == expected

    def test_known_value_is_pinned(self):
        # Golden value: changing canonical_json or the hash function
        # breaks this, on purpose.
        assert (
            content_hash({"a": 1})
            == hashlib.sha256(b'{"a": 1}').hexdigest()
        )
        assert content_hash({"a": 1}, length=24) == content_hash({"a": 1})[:24]

    def test_hash_bytes_is_content_hash_of_canonical_bytes(self):
        payload = {"b": [1, 2], "a": "é"}
        for length in (16, 64):
            assert hash_bytes(canonical_json(payload), length) == (
                content_hash(payload, length)
            )

    def test_full_length_is_64_hex(self):
        digest = content_hash([1, 2, 3])
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")


class TestEngineFingerprint:
    def test_stable_and_16_hex(self):
        assert engine_fingerprint() == engine_fingerprint()
        assert len(engine_fingerprint()) == 16

    def test_reset_recomputes_to_the_same_value(self):
        before = engine_fingerprint()
        reset_engine_fingerprint()
        assert engine_fingerprint() == before

    def test_folds_in_toolchain(self, monkeypatch):
        from repro.codegen import build

        reset_engine_fingerprint()
        monkeypatch.setattr(build, "toolchain_fingerprint", lambda: "tc-one")
        one = engine_fingerprint()
        reset_engine_fingerprint()
        monkeypatch.setattr(build, "toolchain_fingerprint", lambda: "tc-two")
        two = engine_fingerprint()
        reset_engine_fingerprint()
        assert one != two


class TestConsolidation:
    """The old import paths are the same objects, not near-copies."""

    def test_harness_reexports_the_one_implementation(self):
        from repro.experiments import harness
        from repro.store import fingerprint

        assert harness.engine_fingerprint is fingerprint.engine_fingerprint

    def test_store_toolchain_fingerprint_delegates_to_build(self):
        from repro.codegen import build
        from repro.store import fingerprint

        assert fingerprint.toolchain_fingerprint() == build.toolchain_fingerprint()

    def test_pipeline_cache_uses_the_one_fingerprint(self):
        import repro.pipeline.cache as pipeline_cache
        from repro.store import fingerprint

        assert (
            pipeline_cache.engine_fingerprint
            is fingerprint.engine_fingerprint
        )
