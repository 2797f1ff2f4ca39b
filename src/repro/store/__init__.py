"""Unified provenance-tracking content-addressed store (DESIGN.md §16).

One storage layer behind every cache in the repo — the pipeline
artifact cache, the experiment harness's simulation-result cache, and
the native ``.so`` cache — with two backends (local directory and
sqlite) that share one digest-wrapped entry format, a provenance
record per entry, the consolidated fingerprint module, and the
``repro store`` CLI group.
"""

from repro.store.backend import (
    DirBackend,
    EntryInfo,
    SqliteBackend,
    open_backend,
)
from repro.store.core import Store
from repro.store.fingerprint import (
    canonical_json,
    content_hash,
    engine_fingerprint,
    reset_engine_fingerprint,
    toolchain_fingerprint,
)
from repro.store.provenance import PROVENANCE_SCHEMA, Provenance

__all__ = [
    "DirBackend",
    "EntryInfo",
    "PROVENANCE_SCHEMA",
    "Provenance",
    "SqliteBackend",
    "Store",
    "canonical_json",
    "content_hash",
    "engine_fingerprint",
    "open_backend",
    "reset_engine_fingerprint",
    "toolchain_fingerprint",
]
