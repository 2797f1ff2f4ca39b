"""The unified content-addressed store (DESIGN.md §16).

One :class:`Store` instance fronts one backend (directory or sqlite)
and is what every former cache in the repo now talks to: the
pipeline's ``ArtifactCache``, the experiment harness's simulation-result
cache, and the native ``.so`` cache.  It adds, on top of the raw
backend:

- hit/miss/put counters (``store.hits`` / ``store.misses`` /
  ``store.puts``) through :mod:`repro.obs`, shared by every cache; a
  hit is counted at the digest-verified lookup (:meth:`Store.read`),
  whether or not its body is ever parsed;
- provenance-aware :meth:`query` (by op, engine fingerprint, age,
  staleness vs. the current engine);
- :meth:`gc` with ``keep_latest``-per-op and ``max_bytes`` budgets
  (:meth:`gc_victims` previews it);
- :meth:`stats` for ``repro store stats``.

Keys are caller-chosen strings: each legacy cache keeps its historical
key scheme (and therefore its warm on-disk entries) and simply routes
reads/writes through here, attaching a :class:`Provenance` record to
every ``put``.
"""

from __future__ import annotations

import os
from typing import Any, Optional, Union

from repro import obs
from repro.store.backend import EntryInfo, VerifiedEntry, open_backend
from repro.store.fingerprint import engine_fingerprint
from repro.store.provenance import Provenance

__all__ = ["Store"]


class Store:
    """Content-addressed key/value store with provenance and healing."""

    def __init__(self, backend: Any) -> None:
        self.backend = backend

    @classmethod
    def open(
        cls, path: Union[str, os.PathLike], site: str = "store"
    ) -> "Store":
        """Open a store at ``path`` — a directory, or a ``*.sqlite`` /
        ``*.db`` file for the sqlite backend."""
        return cls(open_backend(path, site=site))

    # -- the core five -------------------------------------------------

    def read(self, key: str) -> Optional[VerifiedEntry]:
        """The digest-verified lookup: a handle whose body is parsed on
        first use, or None.  Corrupt entries heal and count a miss."""
        entry = self.backend.read(key)
        outcome = "store.misses" if entry is None else "store.hits"
        obs.get_metrics().counter(outcome).inc()
        return entry

    def get(self, key: str, default: Any = None) -> Any:
        """:meth:`read` plus one parse: the verified body, or ``default``."""
        entry = self.read(key)
        return default if entry is None else entry.body

    def put(
        self,
        key: str,
        body: Any,
        provenance: Optional[Provenance] = None,
        label: str = "",
    ) -> None:
        self.backend.put(key, body, provenance=provenance, label=label)
        obs.get_metrics().counter("store.puts").inc()

    def has(self, key: str) -> bool:
        return self.backend.read(key) is not None

    def delete(self, key: str) -> bool:
        return self.backend.delete(key)

    def query(
        self,
        op: Optional[str] = None,
        engine: Optional[str] = None,
        since: Optional[float] = None,
        stale: Optional[bool] = None,
        current_engine: Optional[str] = None,
    ) -> list[EntryInfo]:
        """Entries matching every given filter, newest first.

        ``stale=True`` selects entries whose recorded engine fingerprint
        differs from ``current_engine`` (default: the live
        :func:`engine_fingerprint`) — including pre-provenance entries
        recorded as ``unknown``; ``stale=False`` selects the current
        ones.  ``since`` is a Unix timestamp lower bound.
        """
        if stale is not None and current_engine is None:
            current_engine = engine_fingerprint()
        found = []
        for info in self.backend.items():
            if op is not None and info.op != op:
                continue
            if engine is not None and info.engine != engine:
                continue
            if since is not None and info.created_at < since:
                continue
            if stale is not None and (info.engine != current_engine) != stale:
                continue
            found.append(info)
        found.sort(key=lambda info: (-info.created_at, info.key))
        return found

    # -- maintenance ---------------------------------------------------

    def gc_victims(
        self,
        keep_latest: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> list[str]:
        """The sorted keys :meth:`gc` would evict; deletes nothing.

        ``keep_latest=N`` keeps only the N newest entries *per op*
        (pre-provenance entries group under op ``?``); ``max_bytes``
        then evicts oldest-first until the remaining total fits the
        budget.  With no arguments nothing is selected — ``gc`` never
        guesses a policy.
        """
        infos = self.query()  # newest first
        doomed: set[str] = set()
        if keep_latest is not None:
            per_op: dict[str, int] = {}
            for info in infos:
                seen = per_op.get(info.op, 0) + 1
                per_op[info.op] = seen
                if seen > keep_latest:
                    doomed.add(info.key)
        if max_bytes is not None:
            survivors = [i for i in infos if i.key not in doomed]
            total = sum(i.nbytes for i in survivors)
            for info in reversed(survivors):  # oldest first
                if total <= max_bytes:
                    break
                doomed.add(info.key)
                total -= info.nbytes
        return sorted(doomed)

    def gc(
        self,
        keep_latest: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> list[str]:
        """Evict :meth:`gc_victims`; returns the deleted keys."""
        return [
            key
            for key in self.gc_victims(keep_latest, max_bytes)
            if self.backend.delete(key)
        ]

    def stats(self, current_engine: Optional[str] = None) -> dict:
        """Aggregate view for ``repro store stats``: entry counts and
        bytes overall and per op, stale-vs-current engine breakdown,
        and this process's hit/miss/put/heal counters."""
        if current_engine is None:
            current_engine = engine_fingerprint()
        infos = self.backend.items()
        by_op: dict[str, dict[str, int]] = {}
        current = stale = 0
        for info in infos:
            slot = by_op.setdefault(info.op, {"entries": 0, "bytes": 0})
            slot["entries"] += 1
            slot["bytes"] += info.nbytes
            if info.engine == current_engine:
                current += 1
            else:
                stale += 1
        counters = obs.get_metrics().snapshot().get("counters", {})
        return {
            "entries": len(infos),
            "bytes": sum(info.nbytes for info in infos),
            "by_op": {op: by_op[op] for op in sorted(by_op)},
            "engine": {
                "current_fingerprint": current_engine,
                "current": current,
                "stale": stale,
            },
            "session": {
                name: counters[name]
                for name in sorted(counters)
                if name.startswith("store.")
            },
        }

    # -- provenance plumbing -------------------------------------------

    def provenance(self, key: str) -> Optional[Provenance]:
        return self.backend.provenance(key)

    def annotate(self, key: str, provenance: Provenance) -> None:
        """Attach provenance to an existing entry without rewriting its
        value bytes (how ``repro store migrate`` upgrades in place)."""
        self.backend.annotate(key, provenance)

    def keys(self) -> list[str]:
        return self.backend.keys()

    def items(self) -> list[EntryInfo]:
        return self.backend.items()

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
