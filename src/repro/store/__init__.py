"""Unified provenance-tracking content-addressed store (DESIGN.md §16).

One storage layer behind every cache in the repo — the pipeline
artifact cache, the experiment harness's simulation-result cache, and
the native ``.so`` cache — with two backends (local directory and
sqlite) that share one digest-wrapped entry format, a provenance
record per entry, the consolidated fingerprint module, and the
``repro store`` CLI group.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "DirBackend",
    "EntryInfo",
    "OPEN_ERRORS",
    "PROVENANCE_SCHEMA",
    "Provenance",
    "SqliteBackend",
    "Store",
    "VerifiedEntry",
    "canonical_json",
    "content_hash",
    "engine_fingerprint",
    "open_backend",
    "reset_engine_fingerprint",
    "toolchain_fingerprint",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.store.backend": (
            "DirBackend",
            "EntryInfo",
            "OPEN_ERRORS",
            "SqliteBackend",
            "VerifiedEntry",
            "open_backend",
        ),
        "repro.store.core": ("Store",),
        "repro.store.fingerprint": (
            "canonical_json",
            "content_hash",
            "engine_fingerprint",
            "reset_engine_fingerprint",
            "toolchain_fingerprint",
        ),
        "repro.store.provenance": ("PROVENANCE_SCHEMA", "Provenance"),
    },
)
