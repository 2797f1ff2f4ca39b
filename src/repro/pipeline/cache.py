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
hits.  The pipeline-caching tests assert both directions.  The payload
is encoded by :func:`repro.store.fingerprint.canonical_json`, the one
function that knows the canonical format, so a key is one encoding and
one sha256 (``tests/pipeline/test_pipeline.py::TestStageKeys`` pins
stencil5's eight keys).

Persistence is a :class:`repro.store.Store` over the historical
one-JSON-file-per-artifact directory layout (``<stage>-<key>.json``,
digest-wrapped, self-healing via ``.corrupt/`` quarantine — DESIGN.md
§12/§16).  Entries are written in the store's one compact format.  A
warm :meth:`ArtifactCache.read` is the store's verified lookup: it
hashes the stored bytes at once, so a corrupt entry is a miss right
there, and returns a :class:`~repro.store.backend.VerifiedEntry` that
parses them only when the caller first asks for the artifact.  On a
directory store that lookup is one open and one whole-file read of a
string path, then the hash.  The memory layer keeps that handle, so
each entry is parsed at most once per cache; :meth:`ArtifactCache.load`
is that lookup plus the parse.
The indented entries this cache wrote before still hit, through the
store's re-hashing fallback.  Pass a ``*.sqlite`` path as ``cache_dir``
to share one database between concurrent processes instead, or an open
:class:`~repro.store.core.Store` to reuse one (a serve worker keeps its
store open across jobs).
"""

from __future__ import annotations

import hashlib
import os
from typing import Mapping, Optional, Union

from repro.store.backend import VerifiedEntry
from repro.store.core import Store
from repro.store.fingerprint import canonical_json, engine_fingerprint
from repro.store.provenance import Provenance

__all__ = ["ArtifactCache"]


class ArtifactCache:
    """Two-level artifact store: in-process dict over an optional Store.

    ``cache_dir=None`` keeps artifacts for the lifetime of the process
    only (enough for repeated ``compile_spec`` calls in one run); with a
    directory (or sqlite file), artifacts persist across processes.  An
    open :class:`Store` (see :meth:`open_store`) is used as it is.
    ``hits`` and ``misses`` count lookups, for tests and telemetry;
    a hit is a verified entry, parsed or not.
    """

    def __init__(
        self, cache_dir: Union[str, os.PathLike, Store, None] = None
    ):
        if cache_dir is None or isinstance(cache_dir, Store):
            self._store = cache_dir
        else:
            self._store = self.open_store(cache_dir)
        self._memory: dict[str, VerifiedEntry] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def open_store(path: Union[str, os.PathLike]) -> Store:
        """The store a cache path names, opened as this cache opens it."""
        return Store.open(path, site="pipeline.cache")

    def key(self, stage: str, parent_key: Optional[str], payload: Mapping) -> str:
        """Chained content hash identifying one stage invocation: sha256
        over the engine fingerprint, the stage name, the parent key and
        the payload's :func:`canonical_json`, NUL-separated."""
        head = f"{engine_fingerprint()}\0{stage}\0{parent_key or ''}\0"
        blob = head.encode() + canonical_json(payload)
        return hashlib.sha256(blob).hexdigest()[:24]

    def read(self, stage: str, key: str) -> Optional[VerifiedEntry]:
        """The lookup: the stage's verified entry, whose artifact JSON is
        parsed on first use of ``body``, or None on a miss."""
        entry = self._memory.get(key)
        if entry is None and self._store is not None:
            # Digest-verified lookup through the store: a corrupt entry is
            # quarantined and reported as a miss, so the stage reruns and
            # the cache heals itself.
            entry = self._store.read(f"{stage}-{key}")
            if entry is not None:
                self._memory[key] = entry
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def load(self, stage: str, key: str) -> Optional[dict]:
        """:meth:`read` plus one parse: the artifact JSON, or None."""
        entry = self.read(stage, key)
        return None if entry is None else entry.body

    def store(
        self,
        stage: str,
        key: str,
        artifact_json: dict,
        provenance: Optional[Provenance] = None,
    ) -> None:
        self._memory[key] = VerifiedEntry.of(artifact_json)
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
