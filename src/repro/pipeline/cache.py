"""Content-hash artifact cache with chained per-stage keys.

Every key folds in :func:`repro.store.fingerprint.engine_fingerprint`
(a digest of all ``repro`` sources outside ``experiments/``), so editing
any analysis, mapping, schedule, or execution source transparently
invalidates every cached artifact, while results survive across
processes in the unified store (:mod:`repro.store`).

Keys are *chained*: each stage's key hashes its parent stage's key plus
only the stage-local payload (the spec fields that stage actually reads).
Editing one directive therefore invalidates exactly the stages downstream
of the first stage whose payload changed — the upstream prefix still
hits.  The pipeline-caching tests assert both directions.

Persistence is a :class:`repro.store.Store` over the historical
one-JSON-file-per-artifact directory layout (``<stage>-<key>.json``,
digest-wrapped, self-healing via ``.corrupt/`` quarantine — DESIGN.md
§12/§16), so cache directories written before the unified store keep
hitting.  Pass a ``*.sqlite`` path as ``cache_dir`` to share one
database between concurrent processes instead, or an open
:class:`~repro.store.core.Store` to reuse one (a serve worker keeps its
store open across jobs).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Mapping, Optional, Union

from repro.store.core import Store
from repro.store.fingerprint import engine_fingerprint
from repro.store.provenance import Provenance

__all__ = ["ArtifactCache"]


class ArtifactCache:
    """Two-level artifact store: in-process dict over an optional Store.

    ``cache_dir=None`` keeps artifacts for the lifetime of the process
    only (enough for repeated ``compile_spec`` calls in one run); with a
    directory (or sqlite file), artifacts persist across processes.  An
    open :class:`Store` (see :meth:`open_store`) is used as it is.
    ``hits`` and ``misses`` count lookups, for tests and telemetry.
    """

    def __init__(
        self, cache_dir: Union[str, os.PathLike, Store, None] = None
    ):
        if cache_dir is None or isinstance(cache_dir, Store):
            self._store = cache_dir
        else:
            self._store = self.open_store(cache_dir)
        self._memory: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def open_store(path: Union[str, os.PathLike]) -> Store:
        """The store a cache path names, opened as this cache opens it."""
        return Store.open(path, site="pipeline.cache", indent=2)

    def key(self, stage: str, parent_key: Optional[str], payload: Mapping) -> str:
        """Chained content hash identifying one stage invocation."""
        digest = hashlib.sha256()
        digest.update(engine_fingerprint().encode())
        digest.update(b"\0")
        digest.update(stage.encode())
        digest.update(b"\0")
        digest.update((parent_key or "").encode())
        digest.update(b"\0")
        digest.update(json.dumps(payload, sort_keys=True).encode())
        return digest.hexdigest()[:24]

    def load(self, stage: str, key: str) -> Optional[dict]:
        record = self._memory.get(key)
        if record is None and self._store is not None:
            # Digest-verified read through the store: a corrupt entry is
            # quarantined and reported as a miss, so the stage reruns and
            # the cache heals itself.
            record = self._store.get(f"{stage}-{key}")
            if record is not None:
                self._memory[key] = record
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def store(
        self,
        stage: str,
        key: str,
        artifact_json: dict,
        provenance: Optional[Provenance] = None,
    ) -> None:
        self._memory[key] = artifact_json
        if self._store is None:
            return
        self._store.put(
            f"{stage}-{key}",
            artifact_json,
            provenance=provenance,
            label=f"{stage}-{key}",
        )

    def provenance(self, stage: str, key: str) -> Optional[Provenance]:
        """Provenance of one persisted artifact (None in memory-only mode
        or for entries written before the unified store)."""
        if self._store is None:
            return None
        return self._store.provenance(f"{stage}-{key}")
