"""The one fingerprint module (DESIGN.md §16).

Every cache key in the system folds in a fingerprint of the machinery
that produced the cached value, so editing that machinery transparently
invalidates exactly the entries it could have changed.  Before the
unified store, three near-identical implementations lived in
``experiments/harness.py``, ``pipeline/cache.py``, and
``codegen/build.py``; this module is now the single source of truth —
the old import paths re-export from here.

- :func:`engine_fingerprint` — a digest of every ``repro`` source file a
  simulation or compile result depends on (everything outside
  ``experiments/``, which merely arranges tasks and renders results),
  plus the C toolchain identity.  Editing a figure script keeps caches
  warm; touching the tracer, caches, cost model, codes, schedules,
  mappings, or upgrading/losing the compiler invalidates every entry.
- :func:`toolchain_fingerprint` — the C compiler identity (resolved
  path + ``--version`` banner + flag set), or ``"none"`` when native
  compilation is unavailable.
- :func:`canonical_json` — the one canonical serialisation: the bytes
  of ``json.dumps(payload, sort_keys=True)``, produced by one shared
  module-level ``json.JSONEncoder(sort_keys=True)``.  Its settings are
  the ones ``json.dumps`` builds a fresh encoder from on every
  ``sort_keys`` call, so the bytes are identical and the per-call
  construction is gone: over 400 warm compiles under cProfile the
  pipeline's stage keys fell from 0.108 s (0.063 s in ``json.dumps``)
  to 0.069 s.  The pipeline's chained stage keys, the store's entry
  digests and serve's door keys all encode through it.
- :func:`content_hash` — the canonical content hash of any
  JSON-serialisable payload (:func:`hash_bytes` over
  :func:`canonical_json`), the idiom every key scheme and digest
  wrapper in the repo is built from.  Its exact byte format is pinned
  by ``tests/store/test_fingerprint.py``: changing it silently would
  invalidate every on-disk cache in the field.
- :func:`hash_bytes` — the same hash over bytes already in canonical
  form (the store verifies an entry's body as stored with it).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Optional

__all__ = [
    "canonical_json",
    "content_hash",
    "engine_fingerprint",
    "hash_bytes",
    "reset_engine_fingerprint",
    "toolchain_fingerprint",
]


#: The encoder ``json.dumps(..., sort_keys=True)`` would build per call.
_CANONICAL = json.JSONEncoder(sort_keys=True)


def canonical_json(payload: Any) -> bytes:
    """The canonical serialised form content hashes are computed over:
    the bytes of ``json.dumps(payload, sort_keys=True)``."""
    return _CANONICAL.encode(payload).encode()


def hash_bytes(blob: bytes, length: int = 64) -> str:
    """The content hash of ``blob``: its sha256 hex digest, truncated to
    ``length`` digits (64 = full sha256)."""
    return hashlib.sha256(blob).hexdigest()[:length]


def content_hash(payload: Any, length: int = 64) -> str:
    """Canonical content hash of a JSON-serialisable payload.

    ``length`` truncates the hex digest (64 = full sha256); the format
    (sort_keys JSON, sha256) is pinned — see the module docstring.
    """
    return hash_bytes(canonical_json(payload), length)


def toolchain_fingerprint() -> str:
    """The C toolchain identity folded into the engine fingerprint.

    ``"none"`` when no compiler is available — so gaining or losing a
    toolchain also (correctly) invalidates cached artifacts, whose
    execute stage records which engine actually ran.  Delegates to
    :mod:`repro.codegen.build`, which owns toolchain discovery.
    """
    from repro.codegen import build

    return build.toolchain_fingerprint()


_ENGINE_FINGERPRINT: Optional[str] = None


def reset_engine_fingerprint() -> None:
    """Forget the memoised engine fingerprint (tests flip toolchains)."""
    global _ENGINE_FINGERPRINT
    _ENGINE_FINGERPRINT = None


def engine_fingerprint() -> str:
    """Digest of every source file a cached result depends on.

    Hashes all of :mod:`repro` except ``experiments/`` plus the C
    toolchain identity (via :mod:`repro.codegen.build`, looked up at
    call time so tests can monkeypatch it).  Memoised per process;
    :func:`reset_engine_fingerprint` (or
    :func:`repro.codegen.build.reset_toolchain_cache`) forgets it.
    """
    global _ENGINE_FINGERPRINT
    if _ENGINE_FINGERPRINT is None:
        import repro
        from repro.codegen import build

        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            if rel.parts[0] == "experiments":
                continue
            digest.update(str(rel).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        digest.update(b"toolchain:")
        digest.update(build.toolchain_fingerprint().encode())
        _ENGINE_FINGERPRINT = digest.hexdigest()[:16]
    return _ENGINE_FINGERPRINT
