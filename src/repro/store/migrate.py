"""Migrate pre-store cache directories into the unified store.

The three legacy caches share the digest-wrapper file format but carry
no provenance.  Migration is **in place by default**: every entry keeps
its exact filename and bytes (so warm lookups through the historical
key schemes keep hitting) and gains a ``.prov/`` sidecar whose op is
inferred from the filename:

- ``<64 hex>.json``            → ``simulate``   (harness result cache)
- ``<stage>-<24 hex>.json``    → ``<stage>``    (pipeline artifact cache)
- ``run-<24 hex>.so``          → ``compile-so`` (native object cache;
  a ``run-<key>.json`` meta entry is created naming the object, since
  a bare ``.so`` cannot carry a digest wrapper)

Migrated provenance records ``engine="unknown"`` — the producing
fingerprint is unrecoverable — so they answer ``repro store query
--stale`` until recomputed under the current engine.  With ``--into``,
entries are instead copied (same keys, re-wrapped bodies) into another
store, which may be a sqlite file: the supported path for moving a
fleet of workers onto one shared database.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Optional, Union

from repro.store.backend import DirBackend, open_backend
from repro.store.provenance import Provenance

__all__ = ["infer_op", "migrate_path"]

_SIM_KEY = re.compile(r"[0-9a-f]{64}")
_STAGE_KEY = re.compile(r"(.+)-[0-9a-f]{24}")
_SO_KEY = re.compile(r"run-[0-9a-f]{24}")


def infer_op(stem: str) -> Optional[str]:
    """The op a legacy cache filename implies, or None if unrecognised."""
    if _SIM_KEY.fullmatch(stem):
        return "simulate"
    if _SO_KEY.fullmatch(stem):
        return "compile-so"
    match = _STAGE_KEY.fullmatch(stem)
    if match:
        return match.group(1)
    return None


def migrate_path(
    source: Union[str, os.PathLike],
    into: Optional[Union[str, os.PathLike]] = None,
) -> dict:
    """Migrate one legacy cache directory; returns a report dict.

    In place (default): annotate every recognised entry with inferred
    provenance, skipping entries that already have some (idempotent).
    With ``into``: copy entries (same keys) into the target store path
    — a directory or a ``*.sqlite``/``*.db`` file.  Unreadable or
    digest-mismatched entries are quarantined, never migrated.
    """
    source = Path(source)
    if not source.is_dir():
        raise FileNotFoundError(f"not a cache directory: {source}")
    annotator = DirBackend(source, site="store.migrate")
    target = (
        open_backend(into, site="store.migrate") if into is not None else None
    )
    report = {
        "source": str(source),
        "into": str(into) if into is not None else None,
        "migrated": 0,
        "already": 0,
        "quarantined": 0,
        "unrecognised": 0,
        "by_op": {},
    }

    def record(op: str) -> None:
        report["migrated"] += 1
        report["by_op"][op] = report["by_op"].get(op, 0) + 1

    for path in sorted(source.glob("*.json")):
        stem = path.stem
        op = infer_op(stem)
        if op is None:
            report["unrecognised"] += 1
            continue
        # A present entry that reads as None was quarantined (counted
        # under ``store.heal.store.migrate``, never as a miss).
        body = annotator.get(stem)
        if body is None:
            report["quarantined"] += 1
            continue
        if target is None and annotator.provenance(stem) is not None:
            report["already"] += 1
            continue
        prov = Provenance.now(
            op=op,
            engine="unknown",
            extra={"migrated_from": str(source)},
        )
        if target is not None:
            target.put(stem, body, provenance=prov, label=stem)
        else:
            annotator.annotate(stem, prov)
        record(op)

    for path in sorted(source.glob("*.so")):
        stem = path.stem
        if not _SO_KEY.fullmatch(stem):
            report["unrecognised"] += 1
            continue
        meta = {"file": path.name, "nbytes": path.stat().st_size}
        prov = Provenance.now(
            op="compile-so",
            engine="unknown",
            extra={"migrated_from": str(source)},
        )
        if target is None:
            if annotator.provenance(stem) is not None:
                report["already"] += 1
                continue
            annotator.put(stem, meta, provenance=prov, label=stem)
        else:
            target.put(stem, meta, provenance=prov, label=stem)
        record("compile-so")

    if target is not None:
        target.close()
    return report

