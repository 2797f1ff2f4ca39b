"""Storage backends for the unified store, and the one owner of the
on-disk entry format (DESIGN.md §16).

Directory entries and run-ledger lines carry one integrity wrapper::

    {"schema": 1, "digest": content_hash(body, length=16), "body": body}

and sqlite rows keep the same digest beside the body, so silent
corruption (bit rot, a broken writer, an interrupted copy) is
*detected*, not deserialised.  :func:`wrap` and :func:`unwrap` are the
only code that knows this wrapper.  A present but unusable directory
entry is moved into a ``.corrupt/`` sidecar beside it (evidence for
debugging, never re-read), counted and warned about by
:func:`note_corruption`, and read as a plain miss, so the value is
recomputed and the cache heals itself.

A backend stores digest-verified JSON bodies plus optional provenance
sidecars under string keys.  The contract (duck-typed; every method
below) is:

- ``get(key) -> body | None`` — digest-verified; a corrupt entry is
  healed (quarantined or deleted), counted, and reported as a miss.
- ``put(key, body, provenance=None, label="")`` — atomic; a reader
  (or a concurrent writer) never observes a torn entry, and a process
  killed mid-write leaves no corrupt *visible* entry.
- ``annotate(key, provenance)`` — attach/replace provenance without
  touching the value bytes (migration uses this so legacy entries stay
  bit-identical).
- ``provenance(key) -> Provenance | None``
- ``delete(key) -> bool`` — removes the entry, its provenance, and any
  companion file the body names under ``"file"`` (compiled objects).
- ``keys() -> list[str]`` / ``items() -> list[EntryInfo]`` — listing
  without deserialising bodies.
- ``close()``

Backends:

- :class:`DirBackend` — the repo's historical local-directory layout,
  byte-compatible with the three pre-store caches: one
  ``<key>.json`` wrapped file per entry (atomic temp + ``os.replace``
  writes, ``.corrupt/`` quarantine) plus a ``.prov/<key>.json``
  provenance sidecar.  Warm caches written before the unified store
  hit unchanged.
- :class:`SqliteBackend` — one WAL-mode sqlite file, safe under
  concurrent harness worker processes: writes are transactions
  (last-write-wins, never torn), reads re-verify the body digest and
  heal corrupt rows by deleting them.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from repro.resilience.faults import maybe_corrupt, maybe_fault
from repro.store.fingerprint import content_hash
from repro.store.provenance import Provenance

__all__ = [
    "CORRUPT_DIR",
    "EntryInfo",
    "DirBackend",
    "SqliteBackend",
    "open_backend",
    "quarantine_file",
    "unwrap",
    "wrap",
]

#: File suffixes that select the sqlite backend in ``open_backend``.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: Name of the provenance sidecar directory inside a DirBackend root.
PROV_DIR = ".prov"

#: Name of the sidecar directory corrupt entries are moved into.
CORRUPT_DIR = ".corrupt"

WRAPPER_SCHEMA = 1

#: Hex digits of the body digest a wrapper carries.
DIGEST_LENGTH = 16


def wrap(body: Any) -> dict:
    """The integrity wrapper persisted around ``body``."""
    return {
        "schema": WRAPPER_SCHEMA,
        "digest": content_hash(body, DIGEST_LENGTH),
        "body": body,
    }


def unwrap(obj: Any) -> tuple[Any, Optional[str]]:
    """``(body, None)`` for a valid wrapper, else ``(None, problem)``."""
    if (
        not isinstance(obj, dict)
        or obj.get("schema") != WRAPPER_SCHEMA
        or "digest" not in obj
        or "body" not in obj
    ):
        return None, "missing digest wrapper"
    body = obj["body"]
    if content_hash(body, DIGEST_LENGTH) != obj["digest"]:
        return None, "digest mismatch"
    return body, None


def note_corruption(site: str, entry: str, problem: str) -> None:
    """Count and warn about one healed corrupt entry.

    The single ``store.heal.*`` counter family every backend shares
    (directory quarantine and sqlite row-deletion alike), plus the
    historical ``resilience.cache.corrupt`` name dashboards pin.
    """
    from repro import obs

    metrics = obs.get_metrics()
    metrics.counter("resilience.cache.corrupt").inc()
    metrics.counter("store.heal.quarantined").inc()
    metrics.counter(f"store.heal.{site}").inc()
    obs.warn_once(
        ("cache-corrupt", site),
        f"{site}: corrupt cache entry quarantined "
        f"({entry}: {problem}); recomputing",
        event="resilience.cache.corrupt",
        counter="resilience.cache.corrupt_events",
        site=site,
        entry=entry,
        problem=problem,
    )


def quarantine_file(path: os.PathLike, site: str, problem: str) -> None:
    """Move a corrupt entry into ``.corrupt/`` beside it, and count it."""
    path = Path(path)
    sidecar = path.parent / CORRUPT_DIR
    try:
        sidecar.mkdir(exist_ok=True)
        os.replace(path, sidecar / path.name)
    except OSError:
        try:  # quarantine failed (e.g. cross-device): delete instead
            path.unlink(missing_ok=True)
        except OSError:
            return
    note_corruption(site, entry=path.name, problem=problem)


def _atomic_write(
    path: Path, body: Any, indent: Optional[int] = None
) -> None:
    """Wrap ``body`` and write it to ``path`` through a temp file.

    ``os.replace`` is atomic, so a reader never observes a torn file and
    a SIGKILL mid-write leaves at worst an orphan ``*.tmp`` no reader
    opens.  The temp name folds in the pid so concurrent writers (two
    harness processes racing on the same key) never clobber each
    other's half-written temp; the last ``os.replace`` wins with an
    identical, fully-written file.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(wrap(body), sort_keys=True, indent=indent))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_verified(path: Path, site: str) -> Optional[Any]:
    """The verified body of ``path``, or None (healed) on failure.

    A missing file is an ordinary miss (no quarantine, no warning); any
    *present but unusable* file is quarantined so the next run never
    trips over it again.
    """
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    except OSError as exc:
        quarantine_file(path, site, f"unreadable: {exc}")
        return None
    try:
        obj = json.loads(text)
    except ValueError as exc:
        quarantine_file(path, site, f"bad JSON: {exc}")
        return None
    body, problem = unwrap(obj)
    if problem is not None:
        quarantine_file(path, site, problem)
    return body


@dataclass(frozen=True)
class EntryInfo:
    """One entry's metadata, cheap enough to list a whole store."""

    key: str
    nbytes: int
    created_at: float
    provenance: Optional[Provenance]

    @property
    def op(self) -> str:
        return self.provenance.op if self.provenance is not None else "?"

    @property
    def engine(self) -> str:
        return (
            self.provenance.engine if self.provenance is not None
            else "unknown"
        )


class DirBackend:
    """The historical one-JSON-file-per-entry directory layout.

    ``site`` names this store in warnings, counters, and fault-injection
    sites: a write fires the ``<site>.store`` corruption hook (the chaos
    suite's ``harness.cache.store:corrupt`` / ``pipeline.cache.store``
    sites keep working verbatim), and a corrupt read quarantines into
    ``.corrupt/`` exactly as the pre-store caches did.  ``indent``
    preserves each legacy cache's on-disk formatting (the pipeline wrote
    ``indent=2``; the harness wrote compact JSON) so healed entries stay
    bit-identical to what the previous code produced.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        site: str = "store",
        indent: Optional[int] = None,
    ) -> None:
        self.root = Path(root)
        self.site = site
        self.indent = indent
        # Fail fast on an unusable location, before any work is spent.
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _prov_path(self, key: str) -> Path:
        return self.root / PROV_DIR / f"{key}.json"

    def get(self, key: str) -> Optional[Any]:
        return _read_verified(self._path(key), self.site)

    def put(
        self,
        key: str,
        body: Any,
        provenance: Optional[Provenance] = None,
        label: str = "",
    ) -> None:
        path = self._path(key)
        # A store kept open (a serve worker's) can outlive its directory;
        # recreate it, as opening the store again would.
        self.root.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, body, self.indent)
        if provenance is not None:
            self.annotate(key, provenance)
        # Fault-injection hook: the chaos suite corrupts the entry just
        # written and asserts the next read heals it.
        maybe_corrupt(f"{self.site}.store", path, label=label or key)

    def annotate(self, key: str, provenance: Provenance) -> None:
        prov_path = self._prov_path(key)
        prov_path.parent.mkdir(exist_ok=True)
        _atomic_write(prov_path, provenance.to_json())

    def provenance(self, key: str) -> Optional[Provenance]:
        prov_path = self._prov_path(key)
        if not prov_path.exists():
            return None
        body = _read_verified(prov_path, f"{self.site}.prov")
        return Provenance.from_json(body)

    def delete(self, key: str) -> bool:
        path = self._path(key)
        companion = self._companion_file(path)
        existed = path.exists()
        path.unlink(missing_ok=True)
        self._prov_path(key).unlink(missing_ok=True)
        if companion is not None:
            companion.unlink(missing_ok=True)
        return existed

    def _companion_file(self, path: Path) -> Optional[Path]:
        """A non-JSON file the entry body names (compiled ``.so``s)."""
        try:
            wrapper = json.loads(path.read_text())
            name = wrapper["body"]["file"]
        except (OSError, ValueError, TypeError, KeyError):
            return None
        if not isinstance(name, str) or os.path.sep in name:
            return None
        companion = self.root / name
        return companion if companion.exists() else None

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*.json"))

    def items(self) -> list[EntryInfo]:
        infos = []
        for path in sorted(self.root.glob("*.json")):
            try:
                stat = path.stat()
            except OSError:
                continue
            key = path.stem
            prov = self.provenance(key)
            created = prov.created_at if prov and prov.created_at else stat.st_mtime
            infos.append(
                EntryInfo(
                    key=key,
                    nbytes=stat.st_size,
                    created_at=created,
                    provenance=prov,
                )
            )
        return infos

    def close(self) -> None:
        pass


class SqliteBackend:
    """One WAL-mode sqlite file; safe under concurrent worker processes.

    Writes are single transactions with ``INSERT OR REPLACE``: two
    processes racing on the same key converge on last-write-wins and a
    reader never observes a torn row; a process killed mid-write rolls
    back, leaving the previous value (or nothing) visible.  Reads
    re-verify the body digest — a corrupt row (disk damage, a broken
    writer) is deleted, counted through the same
    ``store.heal.*``/``resilience.cache.corrupt`` counters as the
    directory backend, and reported as a miss.

    ``PRAGMA busy_timeout`` makes sqlite itself wait on a plain row
    lock, but "database is locked" can still escape it — a competing
    ``BEGIN IMMEDIATE`` held past the timeout under a pile-up of
    writers, or a WAL snapshot conflict, both surface as
    ``sqlite3.OperationalError`` after the pragma gives up.  Every
    write (``put``/``annotate``/``delete``) therefore retries the whole
    transaction with capped exponential backoff
    (:data:`LOCKED_BACKOFF_S`, ~3 s worst case) and counts
    ``store.locked_retries`` before letting the error propagate:
    under the serve daemon's concurrent workers a transient lock storm
    costs milliseconds, not a failed request.
    """

    #: Backoff schedule (seconds) for "database is locked" retries.
    LOCKED_BACKOFF_S = (0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0)

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS entries (
        key        TEXT PRIMARY KEY,
        body       TEXT NOT NULL,
        digest     TEXT NOT NULL,
        provenance TEXT,
        created_at REAL NOT NULL,
        nbytes     INTEGER NOT NULL
    )
    """

    def __init__(
        self, path: Union[str, os.PathLike], site: str = "store"
    ) -> None:
        self.path = Path(path)
        self.site = site
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None
        self._connect()  # fail fast on an unusable location

    def _connect(self) -> sqlite3.Connection:
        # One connection per process: a forked worker must not share the
        # parent's sqlite handle, so reopen lazily after a fork.
        if self._conn is None or self._conn_pid != os.getpid():
            self._conn = self._retry_locked("open", self._open)
            self._conn_pid = os.getpid()
        return self._conn

    def _open(self) -> sqlite3.Connection:
        # Switching a fresh file to WAL reports "database is locked" at
        # once, without waiting out busy_timeout, while another
        # connection holds a write transaction; so the whole setup runs
        # under the write retry.
        conn = sqlite3.connect(
            str(self.path), timeout=30.0, isolation_level=None
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            conn.execute(self._SCHEMA)
        except BaseException:
            conn.close()
            raise
        return conn

    def _retry_locked(self, label: str, attempt):
        """Run ``attempt()`` again after a lock-contention error, backing
        off through :data:`LOCKED_BACKOFF_S`; re-raise anything else (a
        real error — disk full, corrupt file — must not be retried into
        a hang) and the lock error itself once the schedule runs dry."""
        from repro import obs

        for delay in self.LOCKED_BACKOFF_S:
            try:
                return attempt()
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                obs.get_metrics().counter("store.locked_retries").inc()
                obs.warn_once(
                    f"{self.site}.locked:{label}",
                    f"{self.site}: {self.path.name} is locked "
                    f"({exc}); retrying {label}",
                )
                time.sleep(delay)
        return attempt()

    def get(self, key: str) -> Optional[Any]:
        conn = self._connect()
        row = conn.execute(
            "SELECT body, digest FROM entries WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        try:
            body = json.loads(row[0])
        except ValueError:
            body = None
        if body is None or content_hash(body, DIGEST_LENGTH) != row[1]:
            self._heal(key, "digest mismatch")
            return None
        return body

    def _heal(self, key: str, problem: str) -> None:
        self._retry_locked(
            "heal",
            lambda: self._connect().execute(
                "DELETE FROM entries WHERE key = ?", (key,)
            ),
        )
        note_corruption(self.site, entry=key, problem=problem)

    def put(
        self,
        key: str,
        body: Any,
        provenance: Optional[Provenance] = None,
        label: str = "",
    ) -> None:
        blob = json.dumps(body, sort_keys=True)
        prov_blob = (
            json.dumps(provenance.to_json(), sort_keys=True)
            if provenance is not None
            else None
        )
        def attempt() -> None:
            conn = self._connect()
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.execute(
                    "INSERT OR REPLACE INTO entries "
                    "(key, body, digest, provenance, created_at, nbytes) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        key,
                        blob,
                        content_hash(body, DIGEST_LENGTH),
                        prov_blob,
                        (
                            provenance.created_at
                            if provenance is not None and provenance.created_at
                            else time.time()
                        ),
                        len(blob),
                    ),
                )
                # Fault-injection hook: a ``kill`` here dies inside the
                # transaction — the chaos suite asserts no corrupt entry
                # becomes visible (the transaction simply never commits).
                maybe_fault(f"{self.site}.sqlite.put", label=label or key)
                conn.execute("COMMIT")
            except BaseException:
                try:
                    conn.execute("ROLLBACK")
                except sqlite3.Error:
                    pass
                raise

        self._retry_locked("put", attempt)

    def annotate(self, key: str, provenance: Provenance) -> None:
        blob = json.dumps(provenance.to_json(), sort_keys=True)
        self._retry_locked(
            "annotate",
            lambda: self._connect().execute(
                "UPDATE entries SET provenance = ? WHERE key = ?",
                (blob, key),
            ),
        )

    def provenance(self, key: str) -> Optional[Provenance]:
        conn = self._connect()
        row = conn.execute(
            "SELECT provenance FROM entries WHERE key = ?", (key,)
        ).fetchone()
        if row is None or row[0] is None:
            return None
        try:
            return Provenance.from_json(json.loads(row[0]))
        except ValueError:
            return None

    def delete(self, key: str) -> bool:
        cursor = self._retry_locked(
            "delete",
            lambda: self._connect().execute(
                "DELETE FROM entries WHERE key = ?", (key,)
            ),
        )
        return cursor.rowcount > 0

    def keys(self) -> list[str]:
        conn = self._connect()
        return [
            row[0]
            for row in conn.execute("SELECT key FROM entries ORDER BY key")
        ]

    def items(self) -> list[EntryInfo]:
        conn = self._connect()
        infos = []
        for key, prov_blob, created, nbytes in conn.execute(
            "SELECT key, provenance, created_at, nbytes FROM entries "
            "ORDER BY key"
        ):
            prov = None
            if prov_blob:
                try:
                    prov = Provenance.from_json(json.loads(prov_blob))
                except ValueError:
                    prov = None
            infos.append(
                EntryInfo(
                    key=key,
                    nbytes=int(nbytes),
                    created_at=float(created),
                    provenance=prov,
                )
            )
        return infos

    def close(self) -> None:
        if self._conn is not None and self._conn_pid == os.getpid():
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
        self._conn = None
        self._conn_pid = None


def open_backend(
    path: Union[str, os.PathLike],
    site: str = "store",
    indent: Optional[int] = None,
):
    """Pick a backend from a path: ``*.sqlite``/``*.db`` files get the
    sqlite backend, anything else the directory backend — so every
    legacy ``--cache-dir`` flag transparently accepts both."""
    name = str(path)
    if name.endswith(SQLITE_SUFFIXES):
        return SqliteBackend(path, site=site)
    return DirBackend(path, site=site, indent=indent)
