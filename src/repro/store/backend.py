"""Storage backends for the unified store, and the one owner of the
on-disk entry format (DESIGN.md §16).

Directory entries and run-ledger lines carry one integrity wrapper::

    {"body": body, "digest": content_hash(body, length=16), "schema": 1}

and sqlite rows keep the same digest beside the body, so silent
corruption (bit rot, a broken writer, an interrupted copy) is
*detected*, not deserialised.  The wrapper is a text codec, and this
module is the only code that knows it.  A write encodes its body to
canonical JSON once, takes the digest of those bytes and, for a file
or a ledger line, writes the compact wrapper around them
(:func:`encode_entry`: the bytes ``json.dumps(wrapper,
sort_keys=True)`` gives).

A read is split into *verify* and *parse*.  The lookup accepts an entry
when its stored body bytes hash to its digest and returns a
:class:`VerifiedEntry` holding those bytes (:func:`verify_entry`; a
sqlite row's body column is that canonical text already); the handle
parses them on the first use of its ``body`` and never goes back to the
store, so an entry deleted or corrupted after the lookup, or a closed
store, cannot change what it returns.  A caller that only needs to know
the entry is there and intact never parses it.  A file or line that is
not a compact wrapper (an indented one the pipeline cache wrote before
every store wrote one format, which ``repro store migrate`` adopts
untouched) can only be verified by parsing the entry and hashing its
re-encoded body, so its handle holds the parsed body.  A present but
unusable directory entry is moved into a ``.corrupt/`` sidecar beside
it (evidence for debugging, never re-read), counted and warned about
by :func:`note_corruption`, and read as a plain miss, so the value is
recomputed and the cache heals itself.

A backend stores digest-verified JSON bodies plus optional provenance
sidecars under string keys.  The contract (duck-typed; every method
below) is:

- ``read(key) -> VerifiedEntry | None`` — the lookup: digest-verified
  at once, parsed on first use; a corrupt entry is healed (quarantined
  or deleted), counted, and reported as a miss.
- ``get(key) -> body | None`` — :meth:`read` plus one parse.
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

- :class:`DirBackend` — the historical local-directory layout: one
  ``<key>.json`` compact wrapper per entry (atomic temp +
  ``os.replace`` writes, ``.corrupt/`` quarantine) plus a
  ``.prov/<key>.json`` provenance sidecar.  Entries written by the
  three pre-store caches, indented ones included, still hit.  A lookup
  is one open, one whole-file read and one hash: one reader, for
  entries and sidecars alike, opens ``prefix + key + ".json"`` (the
  root kept as a string) unbuffered, with no pathlib on the way.
- :class:`SqliteBackend` — one WAL-mode sqlite file, safe under
  concurrent harness worker processes: writes are transactions
  (last-write-wins, never torn), lookups verify the stored body text
  against its digest and heal corrupt rows by deleting them.
"""

from __future__ import annotations

import functools
import json
import os
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from repro.resilience.faults import maybe_corrupt, maybe_fault
from repro.store.fingerprint import canonical_json, content_hash, hash_bytes
from repro.store.provenance import Provenance

__all__ = [
    "CORRUPT_DIR",
    "EntryInfo",
    "DirBackend",
    "OPEN_ERRORS",
    "SqliteBackend",
    "UnusableStore",
    "VerifiedEntry",
    "encode_entry",
    "open_backend",
    "quarantine_file",
    "verify_entry",
]

#: File suffixes that select the sqlite backend in ``open_backend``.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: What opening a store at an unusable location raises: a path that is
#: a regular file or lies under one, no permission, or a file sqlite
#: cannot open as a database.  Commands report it as a usage error.
OPEN_ERRORS = (OSError, sqlite3.Error)


class UnusableStore(Exception):
    """A store path that cannot be opened as a store (``OPEN_ERRORS``);
    the message names the path."""


#: Name of the provenance sidecar directory inside a DirBackend root.
PROV_DIR = ".prov"

#: Name of the sidecar directory corrupt entries are moved into.
CORRUPT_DIR = ".corrupt"

WRAPPER_SCHEMA = 1

#: Hex digits of the body digest a wrapper carries.
DIGEST_LENGTH = 16

#: The compact wrapper's bytes around the canonical body, as
#: ``json.dumps`` with ``sort_keys`` orders them: ``body``, ``digest``,
#: ``schema``.
_HEAD = b'{"body": '
_DIGEST_KEY = b', "digest": "'
_TAIL = b'", "schema": %d}' % WRAPPER_SCHEMA
_AFTER_BODY = len(_DIGEST_KEY) + DIGEST_LENGTH + len(_TAIL)


def _digest(blob: bytes) -> str:
    return hash_bytes(blob, DIGEST_LENGTH)


def _seal(body: Any) -> tuple[bytes, str]:
    """``(blob, digest)``: the canonical JSON bytes of ``body`` and their
    digest, which equals ``content_hash(body, 16)``.  The one
    serialisation a write makes."""
    blob = canonical_json(body)
    return blob, _digest(blob)


class VerifiedEntry:
    """One store entry whose stored bytes hashed to its digest at lookup;
    its body is parsed on the first use of :attr:`body`.

    The handle holds the verified bytes, so parsing never reads the store
    again, and it keeps the parsed body and drops the bytes, so an entry
    is parsed at most once per handle.  A handle made with :meth:`of`
    holds a body already in hand (one just written, or a legacy entry
    that could only be verified by parsing it).
    """

    __slots__ = ("_blob", "_body")

    def __init__(self, blob: Optional[bytes], body: Any = None) -> None:
        self._blob = blob
        self._body = body

    @classmethod
    def of(cls, body: Any) -> "VerifiedEntry":
        return cls(None, body)

    @property
    def parsed(self) -> bool:
        """Whether :attr:`body` has been parsed (or was never bytes)."""
        return self._blob is None

    @property
    def body(self) -> Any:
        # Read the bytes once and set the body before dropping them: two
        # threads racing here at worst both parse, never see a half state.
        blob = self._blob
        if blob is not None:
            self._body = json.loads(blob)
            self._blob = None
        return self._body


def encode_entry(body: Any) -> bytes:
    """The compact wrapper around ``body``, byte-identical to
    ``json.dumps(wrapper, sort_keys=True)`` but encoding ``body`` once."""
    blob, digest = _seal(body)
    return b"".join((_HEAD, blob, _DIGEST_KEY, digest.encode(), _TAIL))


def _compact_body(data: bytes) -> Optional[bytes]:
    """The body bytes of a compact wrapper, if they hash to its digest."""
    end = len(data) - _AFTER_BODY
    if (
        end < len(_HEAD)
        or not data.startswith(_HEAD)
        or not data.startswith(_DIGEST_KEY, end)
        or not data.endswith(_TAIL)
    ):
        return None
    blob = data[len(_HEAD):end]
    digest = data[end + len(_DIGEST_KEY):-len(_TAIL)]
    return blob if _digest(blob).encode() == digest else None


def verify_entry(data: bytes) -> tuple[Optional[VerifiedEntry], Optional[str]]:
    """``(entry, None)`` for a verified wrapper, else ``(None, problem)``.

    A compact wrapper is verified over its stored body bytes, and the
    handle keeps only those, unparsed.  Any other bytes are parsed whole
    and the body's re-encoding is hashed, so an indented wrapper with
    matching content still reads; its handle holds the parsed body.
    """
    blob = _compact_body(data)
    if blob is not None:
        return VerifiedEntry(blob), None
    try:
        obj = json.loads(data)
    except ValueError as exc:
        return None, f"bad JSON: {exc}"
    if (
        not isinstance(obj, dict)
        or obj.get("schema") != WRAPPER_SCHEMA
        or "digest" not in obj
        or "body" not in obj
    ):
        return None, "missing digest wrapper"
    # Not a compact wrapper that verifies as stored: hash the parsed
    # body's re-encoding.
    if content_hash(obj["body"], DIGEST_LENGTH) != obj["digest"]:
        return None, "digest mismatch"
    return VerifiedEntry.of(obj["body"]), None


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


def quarantine_file(
    path: Union[str, os.PathLike], site: str, problem: str
) -> None:
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


def _atomic_write(path: Union[str, os.PathLike], body: Any) -> None:
    """Wrap ``body`` and write it to ``path`` through a temp file.

    ``os.replace`` is atomic, so a reader never observes a torn file and
    a SIGKILL mid-write leaves at worst an orphan ``*.tmp`` no reader
    opens.  The temp name folds in the pid so concurrent writers (two
    harness processes racing on the same key) never clobber each
    other's half-written temp; the last ``os.replace`` wins with an
    identical, fully-written file.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(encode_entry(body))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_verified(path: str, site: str) -> Optional[VerifiedEntry]:
    """The verified entry at ``path``, or None (healed) on failure.

    The one directory reader, for entries and provenance sidecars: it
    opens the string path unbuffered and reads the file whole, so a
    lookup is one open, one read and one hash.  A missing file is an
    ordinary miss (no quarantine, no warning); any *present but
    unusable* file (unreadable, e.g. a directory planted at the name,
    or failing :func:`verify_entry`) is quarantined so the next run
    never trips over it again.
    """
    try:
        with open(path, "rb", buffering=0) as f:
            data = f.readall()
    except FileNotFoundError:
        return None
    except OSError as exc:
        quarantine_file(path, site, f"unreadable: {exc}")
        return None
    entry, problem = verify_entry(data)
    if problem is not None:
        quarantine_file(path, site, problem)
    return entry


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


class _Backend:
    """What every backend shares: ``get`` is its ``read`` plus one parse."""

    def read(self, key: str) -> Optional[VerifiedEntry]:
        raise NotImplementedError

    def get(self, key: str) -> Optional[Any]:
        entry = self.read(key)
        return None if entry is None else entry.body


class DirBackend(_Backend):
    """The historical one-JSON-file-per-entry directory layout.

    ``site`` names this store in warnings, counters, and fault-injection
    sites: a write fires the ``<site>.store`` corruption hook (the chaos
    suite's ``harness.cache.store:corrupt`` / ``pipeline.cache.store``
    sites keep working verbatim), and a corrupt read quarantines into
    ``.corrupt/`` exactly as the pre-store caches did.  Every entry is
    written in the one compact format, so a healed entry is
    bit-identical to the one it replaces; entries in another layout
    (the pre-store pipeline cache wrote ``indent=2``) still read.

    Lookups (:meth:`read`, :meth:`provenance`) join plain strings onto
    the root and read each file whole, every time: a stat or mtime
    check cannot stand in for the read, because a same-size tamper
    written within one timestamp tick would pass it unverified.  Opening
    an existing directory stats it and creates nothing.
    """

    def __init__(
        self, root: Union[str, os.PathLike], site: str = "store"
    ) -> None:
        self.site = site
        # Entry paths are plain strings, ``prefix + key + ".json"``: no
        # pathlib on a lookup.
        self._prefix = os.path.join(os.fspath(root), "")
        self._prov_prefix = os.path.join(self._prefix, PROV_DIR, "")
        # Fail fast on an unusable location, before any work is spent.
        if not os.path.isdir(self._prefix):
            self.root.mkdir(parents=True, exist_ok=True)

    @functools.cached_property
    def root(self) -> Path:
        """The directory, for writes and listings."""
        return Path(self._prefix)

    def _path(self, key: str) -> str:
        return self._prefix + key + ".json"

    def _prov_path(self, key: str) -> str:
        return self._prov_prefix + key + ".json"

    def read(self, key: str) -> Optional[VerifiedEntry]:
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
        _atomic_write(path, body)
        if provenance is not None:
            self.annotate(key, provenance)
        # Fault-injection hook: the chaos suite corrupts the entry just
        # written and asserts the next read heals it.
        maybe_corrupt(f"{self.site}.store", path, label=label or key)

    def annotate(self, key: str, provenance: Provenance) -> None:
        prov_path = Path(self._prov_path(key))
        prov_path.parent.mkdir(exist_ok=True)
        _atomic_write(prov_path, provenance.to_json())

    def provenance(self, key: str) -> Optional[Provenance]:
        entry = _read_verified(self._prov_path(key), f"{self.site}.prov")
        return Provenance.from_json(None if entry is None else entry.body)

    def delete(self, key: str) -> bool:
        path = Path(self._path(key))
        companion = self._companion_file(path)
        existed = path.exists()
        path.unlink(missing_ok=True)
        Path(self._prov_path(key)).unlink(missing_ok=True)
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


class SqliteBackend(_Backend):
    """One WAL-mode sqlite file; safe under concurrent worker processes.

    Writes are single transactions with ``INSERT OR REPLACE``: two
    processes racing on the same key converge on last-write-wins and a
    reader never observes a torn row; a process killed mid-write rolls
    back, leaving the previous value (or nothing) visible.  The body
    column holds the body's canonical text, so a lookup hashes it as
    stored and hands back a :class:`VerifiedEntry` that parses it on
    first use — a row whose text does not hash to its digest (disk
    damage, a broken writer, a hand edit) is deleted, counted through
    the same ``store.heal.*``/``resilience.cache.corrupt`` counters as
    the directory backend, and reported as a miss.

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

    def read(self, key: str) -> Optional[VerifiedEntry]:
        conn = self._connect()
        row = conn.execute(
            "SELECT body, digest FROM entries WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        blob = row[0].encode()
        if _digest(blob) != row[1]:
            self._heal(key, "digest mismatch")
            return None
        return VerifiedEntry(blob)

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
        blob, digest = _seal(body)
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
                        blob.decode(),
                        digest,
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


def open_backend(path: Union[str, os.PathLike], site: str = "store"):
    """Pick a backend from a path: ``*.sqlite``/``*.db`` files get the
    sqlite backend, anything else the directory backend — so every
    legacy ``--cache-dir`` flag transparently accepts both."""
    name = str(path)
    if name.endswith(SQLITE_SUFFIXES):
        return SqliteBackend(path, site=site)
    return DirBackend(path, site=site)
