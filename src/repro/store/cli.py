"""``repro store`` — inspect and maintain unified-store locations.

Subcommands (all take a store PATH: a cache directory or a
``*.sqlite``/``*.db`` file):

- ``stats``   — entry counts, bytes, per-op breakdown, stale-vs-current
  engine split (``--format json`` for the CI artifact).
- ``query``   — list entries by ``--op``, ``--engine`` fingerprint,
  ``--since`` (epoch seconds or an age like ``7d``/``12h``/``30m``),
  ``--stale``/``--current``.
- ``gc``      — evict with ``--keep-latest N`` per op and/or
  ``--max-bytes BYTES`` (``--dry-run`` to preview).
- ``migrate`` — adopt a pre-store cache directory: annotate entries
  in place with inferred provenance (default) or copy into ``--into``.

Wired into the main parser by :func:`add_store_parser`; each handler is
a plain ``args -> int`` function so tests drive them directly.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
import time
from typing import Optional

__all__ = ["add_store_parser", "parse_since"]


def _command(fn):
    """A missing or unusable store is a usage error (exit 2)."""

    @functools.wraps(fn)
    def wrapper(args) -> int:
        # Imported per call: building the parser loads no store backend.
        from repro.store.backend import UnusableStore

        try:
            return fn(args)
        except (FileNotFoundError, UnusableStore) as exc:
            print(f"store {args.store_command}: {exc}", file=sys.stderr)
            return 2

    return wrapper

_AGE = re.compile(r"(\d+(?:\.\d+)?)([smhdw])")

_AGE_SECONDS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def parse_since(text: str) -> float:
    """``--since`` as a Unix timestamp: raw epoch seconds, or an age
    like ``7d`` / ``12h`` / ``30m`` counted back from now."""
    match = _AGE.fullmatch(text.strip())
    if match:
        return time.time() - float(match.group(1)) * _AGE_SECONDS[match.group(2)]
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"bad --since {text!r}: epoch seconds or an age like 7d/12h/30m"
        )


def _open_store(path: str):
    """Open an existing store.  ``Store.open`` would create a missing
    one, so a mistyped PATH raises FileNotFoundError instead of being
    created and reported empty; a PATH that cannot be a store (a
    regular file without a sqlite suffix, say) raises UnusableStore."""
    from repro.store import OPEN_ERRORS, Store
    from repro.store.backend import UnusableStore

    if not os.path.exists(path):
        raise FileNotFoundError(f"no store at {path}")
    try:
        return Store.open(path, site="store.cli")
    except OPEN_ERRORS as exc:
        raise UnusableStore(f"unusable store {path!r}: {exc}") from None


@_command
def _cmd_store_stats(args) -> int:
    store = _open_store(args.path)
    try:
        stats = store.stats()
    finally:
        store.close()
    if args.format == "json":
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(
        f"store {args.path}: {stats['entries']} entries, "
        f"{stats['bytes']} bytes"
    )
    if stats["by_op"]:
        print("by op:")
        for op, slot in stats["by_op"].items():
            print(
                f"  {op:<16s} {slot['entries']:>6d} entries  "
                f"{slot['bytes']:>10d} bytes"
            )
    eng = stats["engine"]
    print(
        f"engine {eng['current_fingerprint']}: "
        f"{eng['current']} current, {eng['stale']} stale"
    )
    if stats["session"]:
        print("this session:")
        for name, value in stats["session"].items():
            print(f"  {name:<24s} {value}")
    return 0


@_command
def _cmd_store_query(args) -> int:
    if args.stale and args.current:
        print("store query: --stale and --current conflict", file=sys.stderr)
        return 2
    try:
        since = parse_since(args.since) if args.since else None
    except ValueError as exc:
        print(f"store query: {exc}", file=sys.stderr)
        return 2
    stale: Optional[bool] = None
    if args.stale:
        stale = True
    elif args.current:
        stale = False
    store = _open_store(args.path)
    try:
        infos = store.query(
            op=args.op, engine=args.engine, since=since, stale=stale
        )
    finally:
        store.close()
    if args.format == "json":
        print(json.dumps(
            [
                {
                    "key": info.key,
                    "op": info.op,
                    "engine": info.engine,
                    "nbytes": info.nbytes,
                    "created_at": info.created_at,
                    "provenance": (
                        info.provenance.to_json()
                        if info.provenance is not None
                        else None
                    ),
                }
                for info in infos
            ],
            indent=2,
            sort_keys=True,
        ))
        return 0
    if not infos:
        print("no matching entries")
        return 0
    print(f"{'key':<44s} {'op':<16s} {'engine':<18s} "
          f"{'bytes':>8s}  created")
    for info in infos:
        created = (
            time.strftime("%Y-%m-%d %H:%M", time.localtime(info.created_at))
            if info.created_at
            else "?"
        )
        print(f"{info.key:<44s} {info.op:<16s} {info.engine:<18s} "
              f"{info.nbytes:>8d}  {created}")
    return 0


@_command
def _cmd_store_gc(args) -> int:
    from repro import obs

    if args.keep_latest is None and args.max_bytes is None:
        print(
            "store gc: nothing to do (pass --keep-latest and/or --max-bytes)",
            file=sys.stderr,
        )
        return 2
    store = _open_store(args.path)
    try:
        if args.dry_run:
            doomed = store.gc_victims(args.keep_latest, args.max_bytes)
            for key in doomed:
                print(f"would remove {key}")
            print(f"store gc: would remove {len(doomed)} entries (dry run)")
            return 0
        removed = store.gc(
            keep_latest=args.keep_latest, max_bytes=args.max_bytes
        )
    finally:
        store.close()
    for key in removed:
        print(f"removed {key}")
    print(f"store gc: removed {len(removed)} entries")
    obs.ledger_record(
        "store", action="gc", path=args.path, removed=len(removed)
    )
    return 0


@_command
def _cmd_store_migrate(args) -> int:
    from repro import obs
    from repro.store.migrate import migrate_path

    report = migrate_path(args.path, into=args.into)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        where = f" into {report['into']}" if report["into"] else " in place"
        print(
            f"store migrate: {report['migrated']} entries migrated{where} "
            f"({report['already']} already had provenance, "
            f"{report['quarantined']} quarantined, "
            f"{report['unrecognised']} unrecognised)"
        )
        for op, n in sorted(report["by_op"].items()):
            print(f"  {op:<16s} {n}")
    obs.ledger_record(
        "store",
        action="migrate",
        path=report["source"],
        into=report["into"],
        migrated=report["migrated"],
        quarantined=report["quarantined"],
    )
    return 0


def add_store_parser(sub, parents=()) -> None:
    """Attach the ``store`` subcommand group to the main CLI parser."""
    p_store = sub.add_parser(
        "store",
        help="inspect and maintain the unified provenance store",
        parents=list(parents),
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    p_st = store_sub.add_parser(
        "stats", help="entry counts, bytes, per-op and engine breakdown",
        parents=list(parents),
    )
    p_st.add_argument("path", help="store directory or *.sqlite file")
    p_st.add_argument("--format", choices=("text", "json"), default="text")
    p_st.set_defaults(func=_cmd_store_stats)

    p_q = store_sub.add_parser(
        "query", help="list entries with provenance filters",
        parents=list(parents),
    )
    p_q.add_argument("path", help="store directory or *.sqlite file")
    p_q.add_argument("--op", default=None, help="op name (e.g. execute)")
    p_q.add_argument(
        "--engine", default=None, metavar="FP",
        help="exact engine fingerprint",
    )
    p_q.add_argument(
        "--since", default=None,
        help="epoch seconds or an age like 7d/12h/30m",
    )
    p_q.add_argument(
        "--stale", action="store_true",
        help="only entries NOT produced by the current engine",
    )
    p_q.add_argument(
        "--current", action="store_true",
        help="only entries produced by the current engine",
    )
    p_q.add_argument("--format", choices=("text", "json"), default="text")
    p_q.set_defaults(func=_cmd_store_query)

    p_gc = store_sub.add_parser(
        "gc", help="evict entries by per-op count and/or byte budget",
        parents=list(parents),
    )
    p_gc.add_argument("path", help="store directory or *.sqlite file")
    p_gc.add_argument(
        "--keep-latest", type=int, default=None, metavar="N",
        help="keep only the N newest entries per op",
    )
    p_gc.add_argument(
        "--max-bytes", type=int, default=None, metavar="BYTES",
        help="evict oldest-first until the store fits BYTES",
    )
    p_gc.add_argument(
        "--dry-run", action="store_true", help="print victims, delete nothing"
    )
    p_gc.set_defaults(func=_cmd_store_gc)

    p_mig = store_sub.add_parser(
        "migrate",
        help="adopt a pre-store cache dir (annotate in place or copy)",
        parents=list(parents),
    )
    p_mig.add_argument("path", help="legacy cache directory")
    p_mig.add_argument(
        "--into", default=None, metavar="PATH",
        help="copy into this store (dir or *.sqlite) instead of in-place",
    )
    p_mig.add_argument("--format", choices=("text", "json"), default="text")
    p_mig.set_defaults(func=_cmd_store_migrate)
