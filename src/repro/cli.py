"""Command-line interface: ``repro-uov`` (or ``python -m repro``).

Subcommands:

- ``find`` — search for the optimal UOV of a stencil, optionally with
  compile-time ISG bounds (the Figure 3 scenario)::

      repro-uov find --stencil "1,0;0,1;1,1"
      repro-uov find --stencil "1,0;1,1;1,-1" --bounds "1,1;1,6;10,9;10,4"

- ``map`` — print the storage mapping (expression, size, layouts) an OV
  induces over a rectangular ISG::

      repro-uov map --ov 2,0 --box "1,0:16,63"

- ``codegen`` — emit the Python or C source of a benchmark code version::

      repro-uov codegen stencil5 ov-tiled --sizes T=8,L=64 --lang c

- ``compile`` — push a JSON stencil spec through the full pipeline
  (parse → dependence → uov-search → mapping-select → schedule-select
  [→ lint] [→ execute] [→ codegen]) with chained artifact caching::

      repro-uov compile examples/specs/heat7.json --lint --execute
      repro-uov compile spec.json --sizes T=32,L=256 --format json

  Exit code: 0 on success, 1 when validation or a stage fails (or a
  lint finding reaches ``--fail-on``), 2 on usage errors.

- ``run`` — execute a registered code or a spec file through the same
  pipeline and verify it against the natural/lexicographic reference::

      repro-uov run stencil5 --sizes T=8,L=64
      repro-uov run examples/specs/heat7.json --schedule tiled

- ``list`` — print the plugin registries (codes, mappings, schedules,
  input rules, combine hooks, lint passes)::

      repro-uov list
      repro-uov list codes

- ``common`` — find a UOV shared by several loops' stencils (Section 7
  future work)::

      repro-uov common --stencils "1,-2;1,-1;1,0;1,1;1,2 | 1,-1;1,0;1,1"

- ``lint`` — run the static storage-safety verifier over the shipped
  benchmark corpus and report structured findings (text or JSON)::

      repro-uov lint
      repro-uov lint --codes stencil5,psm --format json --out lint.json
      repro-uov lint --fail-on warning --fuzz 25

  Exit code: 0 when no finding reaches the ``--fail-on`` severity
  (default ``error``), 1 when one does, 2 on usage errors.

- ``experiments`` — run the paper's evaluation and write EXPERIMENTS.md::

      repro-uov experiments --mode quick

- ``trace-summary`` — render a JSONL trace (from ``--trace``) as an
  ASCII span tree with the top self-time spans, event tally, and final
  counters::

      repro-uov find --stencil "1,0;0,1;1,1" --trace /tmp/t.jsonl
      repro-uov trace-summary /tmp/t.jsonl

- ``stats`` — aggregate a persistent run ledger (written by ``--ledger``
  or ``REPRO_LEDGER``) into an engine comparison, top-k slowest runs,
  and so-cache hit rates::

      repro-uov run stencil5 --sizes T=8,L=64 --ledger runs.jsonl
      repro-uov stats runs.jsonl

- ``serve`` — run the fault-tolerant compilation/experiment daemon: an
  HTTP/JSON API over the pipeline with crash-only workers, admission
  control, request coalescing, and circuit breakers (DESIGN.md §17)::

      repro-uov serve --port 8750 --workers 4 --cache-dir serve.sqlite

- ``store`` — inspect and maintain unified-store cache locations
  (DESIGN.md §16): ``stats``, ``query`` (by op / engine fingerprint /
  age / staleness), ``gc``, and ``migrate`` for pre-store cache dirs::

      repro-uov store stats .pipeline-cache --format json
      repro-uov store query .sim-cache --op simulate --stale
      repro-uov store gc .sim-cache --keep-latest 5 --max-bytes 50000000
      repro-uov store migrate .sim-cache

Every subcommand accepts the observability flags ``--trace FILE``
(structured JSONL tracing), ``--profile`` (print the metrics registry to
stderr at exit; arms native kernel timers), ``--ledger FILE`` (append
to the persistent run ledger), and ``--log-level LEVEL`` (stderr
logging for the ``repro.*`` loggers) — see DESIGN.md §8 and §14.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import obs

__all__ = ["main"]


def _parse_vectors(text: str) -> list[tuple[int, ...]]:
    vectors = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            try:
                vectors.append(tuple(int(c) for c in chunk.split(",")))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"not an integer vector: {chunk!r}"
                ) from None
    if not vectors:
        raise argparse.ArgumentTypeError(f"no vectors in {text!r}")
    return vectors


def _parse_stencils(text: str) -> list[list[tuple[int, ...]]]:
    return [_parse_vectors(chunk) for chunk in text.split("|")]


def _parse_sizes(text: str) -> dict[str, int]:
    sizes = {}
    for pair in text.split(","):
        name, _, value = pair.partition("=")
        try:
            sizes[name.strip()] = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a NAME=INT size binding: {pair!r}"
            ) from None
    return sizes


def _cmd_find(args) -> int:
    from repro.core import (
        Stencil,
        find_optimal_uov,
        initial_uov,
        storage_for_ov,
    )
    from repro.util.polyhedron import Polytope

    try:
        stencil = Stencil(args.stencil)
        isg = Polytope(args.bounds) if args.bounds else None
        result = find_optimal_uov(stencil, isg=isg, max_nodes=args.max_nodes)
    except ValueError as exc:
        print(f"find: {exc}", file=sys.stderr)
        return 2
    print(f"stencil:     {list(stencil.vectors)}")
    print(f"initial UOV: {initial_uov(stencil)} (sum of dependences)")
    print(f"search:      {result}")
    prunes = ", ".join(f"{k}={v}" for k, v in result.prunes.items())
    print(f"pruned:      {result.nodes_pruned} branches ({prunes})")
    steps = " -> ".join(
        f"{u.ov}@node{u.node}" for u in result.incumbent_history
    )
    print(f"incumbents:  {steps}")
    if isg is not None:
        print(
            f"storage:     {storage_for_ov(result.ov, isg)} locations "
            f"over the given ISG"
        )
    return 0


def _cmd_map(args) -> int:
    from repro.mapping import OVMapping
    from repro.util.polyhedron import Polytope

    try:
        ov = tuple(int(c) for c in args.ov.split(","))
        lower_text, _, upper_text = args.box.partition(":")
        lower = tuple(int(c) for c in lower_text.split(","))
        upper = tuple(int(c) for c in upper_text.split(","))
        isg = Polytope.from_box(lower, upper)
        mappings = [
            OVMapping(ov, isg, layout=layout)
            for layout in ("interleaved", "consecutive")
        ]
    except ValueError as exc:
        print(f"map: {exc}", file=sys.stderr)
        return 2
    names = [f"q{k}" for k in range(len(ov))]
    for mapping in mappings:
        expr = mapping.expression(names)
        print(
            f"{mapping.layout:>12}: SM({', '.join(names)}) = "
            f"{expr.to_python()}   "
            f"[{mapping.size} locations, ops {expr.op_counts()}]"
        )
    return 0


def _cmd_codegen(args) -> int:
    from repro.codes import get_versions

    try:
        versions = get_versions(args.code)
    except KeyError as exc:
        print(f"codegen: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.version not in versions:
        print(
            f"codegen: unknown version {args.version!r}; one of "
            f"{sorted(versions)}",
            file=sys.stderr,
        )
        return 2
    version = versions[args.version]
    try:
        version.code.program.check_sizes(args.sizes)
        if args.lang == "c":
            from repro.codegen import generate_c

            source = generate_c(version, args.sizes)
        else:
            from repro.codegen import generate_python

            source = generate_python(
                version, args.sizes, unroll_mod=args.unroll
            )
    except ValueError as exc:
        print(f"codegen: {exc}", file=sys.stderr)
        return 2
    print(source)
    return 0


def _spec_overrides(args) -> dict:
    """Directive overrides (--mapping/--schedule/--tile/--uov) as a
    dataclasses.replace kwargs dict."""
    overrides = {}
    if getattr(args, "mapping", None):
        overrides["mapping"] = args.mapping
    if getattr(args, "schedule", None):
        overrides["schedule"] = args.schedule
    if getattr(args, "tile", None):
        overrides["tile"] = tuple(int(c) for c in args.tile.split(","))
    if getattr(args, "uov", None):
        overrides["uov"] = tuple(int(c) for c in args.uov.split(","))
    return overrides


def _load_spec(ref: str):
    """Resolve a spec reference: a JSON file path, or a registered code
    name.  Returns (spec, None) or (None, exit_code) after printing."""
    from repro.frontend import SpecError, StencilSpec

    if ref.endswith(".json") or os.path.sep in ref or os.path.exists(ref):
        if not os.path.exists(ref):
            print(f"compile: no such spec file: {ref}", file=sys.stderr)
            return None, 2
        try:
            return StencilSpec.load(ref), None
        except SpecError as exc:
            print(exc.diagnostics.render_text(), file=sys.stderr)
            return None, 1
    from repro.codes import get_spec

    try:
        return get_spec(ref), None
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return None, 2


def _make_cache(args):
    from repro.pipeline import ArtifactCache

    if getattr(args, "no_cache", False):
        return ArtifactCache()
    return ArtifactCache(cache_dir=getattr(args, "cache_dir", None))


def _render_compile_text(result) -> str:
    lines = [
        f"spec:    {result.spec.name}  "
        f"(sizes {result.sizes}, seed {result.seed})"
    ]
    for record in result.records:
        mark = "cached" if record.cached else f"{record.wall_s * 1e3:.1f} ms"
        lines.append(f"  {record.name:16s} [{mark}]")
        a = record.artifact
        name = record.name
        if name == "dependence":
            lines.append(
                f"{'':20s}distances {a.distances}"
                f"{'' if a.ok else '  PROBLEMS: ' + '; '.join(a.problems)}"
            )
        elif name == "uov-search":
            lines.append(
                f"{'':20s}UOV {a.ov} ({a.source}"
                + (", certified optimal" if a.optimal else "")
                + (f", {a.nodes_visited} nodes" if a.nodes_visited else "")
                + ")"
            )
            if getattr(a, "degradation", None):
                d = a.degradation
                lines.append(
                    f"{'':20s}DEGRADED: {d.get('reason')} after "
                    f"{d.get('nodes_explored', 0)} nodes "
                    f"({d.get('fallback', 'incumbent')} fallback)"
                )
        elif name == "mapping-select":
            pct = 100.0 * a.size / a.natural_size if a.natural_size else 0.0
            lines.append(
                f"{'':20s}{a.name}: {a.size} locations "
                f"({pct:.1f}% of natural {a.natural_size})"
            )
        elif name == "schedule-select":
            extra = f", tile {a.tile}" if a.tile else ""
            batch = f", {a.batches} batches" if a.batches else ""
            lines.append(f"{'':20s}{a.name}: legal{extra}{batch}")
        elif name == "lint":
            lines.append(
                f"{'':20s}{len(a.findings)} finding(s), worst "
                f"{a.max_severity or 'none'}"
            )
        elif name == "execute":
            engine_used = getattr(a, "engine_used", "interpreter")
            lines.append(
                f"{'':20s}verified {a.n_outputs} outputs against the "
                f"natural/lex reference (sha256 {a.outputs_sha256}, "
                f"engine {engine_used})"
            )
            if getattr(a, "degradation", None):
                d = a.degradation
                lines.append(
                    f"{'':20s}DEGRADED: {d.get('reason')}"
                    + (f" ({d.get('detail')})" if d.get("detail") else "")
                    + f"; ran {engine_used} instead"
                )
        elif name == "codegen":
            what = (
                f"{len(a.source.splitlines())} lines of "
                f"{getattr(a, 'lang', 'python')}"
                if a.supported
                else f"unsupported: {a.reason}"
            )
            lines.append(f"{'':20s}{what}")
    return "\n".join(lines)


def _search_budget(args):
    """A ``Budget`` for the uov-search stage from the CLI flags (or None)."""
    from repro.resilience import Budget

    wall_ms = getattr(args, "search_wall_ms", None)
    max_nodes = getattr(args, "search_max_nodes", None)
    memory_mb = getattr(args, "search_memory_mb", None)
    if wall_ms is None and max_nodes is None and memory_mb is None:
        return None
    return Budget(
        wall_s=wall_ms / 1e3 if wall_ms is not None else None,
        max_nodes=max_nodes,
        memory_mb=memory_mb,
    )


def _run_pipeline(args, spec, *, lint: bool, execute: bool, codegen: bool):
    """Shared compile/run driver: returns the process exit code."""
    import dataclasses
    import json as _json

    from repro.analysis.diag import Severity
    from repro.pipeline import StageError, compile_spec
    from repro.store import OPEN_ERRORS

    overrides = _spec_overrides(args)
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    try:
        cache = _make_cache(args)
    except OPEN_ERRORS as exc:
        print(
            f"{args.command}: unusable --cache-dir {args.cache_dir!r}: {exc}",
            file=sys.stderr,
        )
        return 2
    try:
        result = compile_spec(
            spec,
            sizes=args.sizes,
            seed=args.seed,
            lint=lint,
            lint_fuzz=getattr(args, "fuzz", 0),
            execute=execute,
            codegen=codegen,
            cache=cache,
            search_budget=_search_budget(args),
            engine=getattr(args, "engine", "interpreter"),
        )
    except StageError as exc:
        print(f"compile failed at {exc.stage}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"compile: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "format", "text") == "json":
        print(_json.dumps(result.to_json(), indent=2))
    else:
        print(_render_compile_text(result))
        if codegen and result.artifact("codegen").supported and args.emit:
            print()
            print(result.artifact("codegen").source)
    if lint:
        findings = result.artifact("lint").findings
        threshold = Severity.parse(args.fail_on)
        if any(
            Severity.parse(f["severity"]) >= threshold for f in findings
        ):
            return 1
    return 0


def _cmd_compile(args) -> int:
    spec, err = _load_spec(args.spec)
    if spec is None:
        return err
    return _run_pipeline(
        args,
        spec,
        lint=args.lint,
        execute=args.execute,
        codegen=args.codegen or args.emit,
    )


def _cmd_run(args) -> int:
    spec, err = _load_spec(args.spec)
    if spec is None:
        return err
    return _run_pipeline(args, spec, lint=False, execute=True, codegen=False)


def _cmd_list(args) -> int:
    from repro.analysis.passes import registered_passes
    from repro.codes import CODES
    from repro.frontend import COMBINE_HOOKS, INPUT_RULES
    from repro.mapping import MAPPINGS
    from repro.schedule import SCHEDULES

    registries = {
        "codes": CODES,
        "mappings": MAPPINGS,
        "schedules": SCHEDULES,
        "input-rules": INPUT_RULES,
        "combine-hooks": COMBINE_HOOKS,
    }
    wanted = args.kind
    if wanted and wanted not in registries and wanted != "passes":
        print(
            f"unknown registry {wanted!r}; one of "
            f"{sorted([*registries, 'passes'])}",
            file=sys.stderr,
        )
        return 2
    for title, registry in registries.items():
        if wanted and title != wanted:
            continue
        print(f"{title}:")
        for entry in registry.entries():
            summary = f"  {entry.summary}" if entry.summary else ""
            print(f"  {entry.name:20s}{summary}")
    if not wanted or wanted == "passes":
        print("passes:")
        for name, lint in sorted(registered_passes().items()):
            extra = "" if lint.default else "  [off by default]"
            print(f"  {name:20s}  {lint.description}{extra}")
    return 0


def _cmd_common(args) -> int:
    from repro.core import Stencil, find_common_uov

    try:
        stencils = [Stencil(vectors) for vectors in args.stencils]
        result = find_common_uov(stencils, max_norm2=args.max_norm2)
    except ValueError as exc:
        print(f"common: {exc}", file=sys.stderr)
        return 2
    for k, stencil in enumerate(stencils):
        print(f"loop {k}: stencil {list(stencil.vectors)}")
    if result is None:
        print("no common UOV exists (within the search radius)")
        return 1
    print(f"common UOV: {result.ov} (checked {result.nodes_visited} candidates)")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.diag import Severity
    from repro.analysis.passes import run_lint

    codes = None
    if args.codes:
        codes = [c.strip() for c in args.codes.split(",") if c.strip()]
    passes = None
    if args.passes:
        passes = [p.strip() for p in args.passes.split(",") if p.strip()]
    try:
        diag = run_lint(
            codes=codes,
            passes=passes,
            fuzz=args.fuzz,
            seed=args.seed,
            symbolic=args.symbolic,
        )
    except KeyError as exc:
        print(f"lint: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(diag.render_json())
    else:
        print(diag.render_text())
    if args.out:
        import json

        try:
            with open(args.out, "w") as fh:
                json.dump(diag.to_json(), fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"lint: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    return diag.exit_code(Severity.parse(args.fail_on))


def _cmd_certify(args) -> int:
    """Size-parametric UOV certification of one subject.

    Exit 0 — universal (symbolically, or enumeratively after a graceful
    degradation); exit 1 — rejected; exit 2 — usage error.
    """
    import json as _json

    from repro.analysis.certify import UOVCertificate
    from repro.analysis.symcert import (
        symbolic_certify,
        symbolic_certify_code,
        symbolic_certify_spec,
    )

    subjects = sum(
        1 for s in (args.code, args.spec, args.stencil) if s is not None
    )
    if subjects != 1:
        print(
            "certify: exactly one of --code, --spec, --stencil is required",
            file=sys.stderr,
        )
        return 2
    try:
        if args.code is not None:
            from repro.codes import get_versions

            versions = get_versions(args.code)
            code = versions[next(iter(versions))].code
            ov = (
                tuple(int(c) for c in args.ov.split(","))
                if args.ov
                else code.stencil.initial_uov
            )
            outcome = symbolic_certify_code(code, ov, sizes=args.sizes)
        elif args.spec is not None:
            from repro.frontend.spec import SpecError, validate_spec

            try:
                with open(args.spec) as fh:
                    spec = validate_spec(_json.load(fh))
            except (OSError, ValueError, SpecError) as exc:
                print(f"certify: {exc}", file=sys.stderr)
                return 2
            ov = (
                tuple(int(c) for c in args.ov.split(","))
                if args.ov
                else None
            )
            outcome = symbolic_certify_spec(spec, ov)
        else:
            if not args.ov:
                print(
                    "certify: --ov is required with --stencil",
                    file=sys.stderr,
                )
                return 2
            from repro.core import Stencil

            stencil = Stencil(args.stencil)
            ov = tuple(int(c) for c in args.ov.split(","))
            result = symbolic_certify(ov, stencil)
            from repro.analysis.symcert import (
                SymbolicCertificate,
                SymbolicOutcome,
            )

            outcome = SymbolicOutcome(
                verdict=(
                    "universal"
                    if isinstance(result, SymbolicCertificate)
                    else "rejected"
                ),
                subject="<stencil>",
                certificate=(
                    result
                    if isinstance(result, SymbolicCertificate)
                    else None
                ),
                counterexample=(
                    None
                    if isinstance(result, SymbolicCertificate)
                    else result
                ),
                enumerative=(
                    result.enumerative
                    if not isinstance(result, SymbolicCertificate)
                    else None
                ),
            )
    except (KeyError, ValueError) as exc:
        print(f"certify: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(_json.dumps(outcome.to_json(), indent=2))
    else:
        if outcome.verdict == "universal":
            print(outcome.certificate)
        elif outcome.verdict == "rejected":
            print(outcome.counterexample)
        else:
            d = outcome.degradation
            print(
                f"DEGRADED: {d.reason} ({d.detail}); enumerative verdict "
                f"follows"
            )
            print(outcome.enumerative)
        if outcome.agreement is not None:
            print(
                "enumerative cross-check: "
                + ("agrees" if outcome.agreement else "DISAGREES")
            )
    if outcome.verdict == "degraded":
        return 0 if isinstance(outcome.enumerative, UOVCertificate) else 1
    if outcome.agreement is False:
        return 1
    return 0 if outcome.verdict == "universal" else 1


def _cmd_lint_codes(args) -> int:
    """Render (or freshness-check) the generated lint-code catalogue."""
    from repro.analysis.diag import render_lint_codes_md

    rendered = render_lint_codes_md()
    if args.check:
        try:
            with open(args.path) as fh:
                on_disk = fh.read()
        except OSError as exc:
            print(f"lint-codes: cannot read {args.path}: {exc}", file=sys.stderr)
            return 1
        if on_disk != rendered:
            print(
                f"lint-codes: {args.path} is stale; regenerate with "
                f"`repro lint-codes --out {args.path}`",
                file=sys.stderr,
            )
            return 1
        print(f"lint-codes: {args.path} is up to date")
        return 0
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"lint-codes: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
        return 0
    print(rendered, end="")
    return 0


def _cmd_trace_summary(args) -> int:
    from repro.obs.summary import load_trace, render_summary

    try:
        with open(args.file) as fh:
            summary = load_trace(fh)
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"{args.file} is not a valid trace: {exc}", file=sys.stderr)
        return 2
    print(render_summary(summary, top=args.top))
    return 0


def _cmd_stats(args) -> int:
    from repro.obs.ledger import LEDGER_ENV, render_stats

    path = args.file or os.environ.get(LEDGER_ENV)
    if not path:
        print(
            "stats: no ledger file (pass FILE or set REPRO_LEDGER)",
            file=sys.stderr,
        )
        return 2
    if not os.path.exists(path):
        print(f"stats: no such ledger file: {path}", file=sys.stderr)
        return 2
    print(render_stats(path, top=args.top))
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import serve_main

    return serve_main(args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-uov",
        description="Schedule-independent storage mapping (UOV) toolkit",
    )
    # Observability flags ride on every subcommand (DESIGN.md §8).
    obs_flags = argparse.ArgumentParser(add_help=False)
    group = obs_flags.add_argument_group("observability")
    group.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a structured JSONL trace (render: repro-uov "
        "trace-summary FILE)",
    )
    group.add_argument(
        "--profile",
        action="store_true",
        help="print the metrics registry to stderr at exit",
    )
    group.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="stderr log level for the repro.* loggers (e.g. INFO, DEBUG)",
    )
    group.add_argument(
        "--ledger",
        default=None,
        metavar="FILE",
        help="append run records (compile/execute/experiment) to a "
        "persistent JSONL ledger (also: REPRO_LEDGER env; query with "
        "repro-uov stats FILE)",
    )
    group.add_argument(
        "--inject",
        default=None,
        metavar="SPEC",
        help="arm the fault-injection plan (chaos testing), e.g. "
        "'harness.worker:transient:times=1'; inherited by worker "
        "processes — see DESIGN.md §12",
    )
    group.add_argument(
        "--inject-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for probabilistic (p=) fault rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_find = sub.add_parser(
        "find", help="search for the optimal UOV", parents=[obs_flags]
    )
    p_find.add_argument(
        "--stencil",
        required=True,
        type=_parse_vectors,
        help='e.g. "1,0;0,1;1,1"',
    )
    p_find.add_argument(
        "--bounds",
        default=None,
        type=_parse_vectors,
        help='ISG vertices, e.g. "1,1;1,6;10,9;10,4"',
    )
    p_find.add_argument("--max-nodes", type=int, default=None)
    p_find.set_defaults(func=_cmd_find)

    p_map = sub.add_parser(
        "map", help="print an OV's storage mapping", parents=[obs_flags]
    )
    p_map.add_argument("--ov", required=True, help='e.g. "2,0"')
    p_map.add_argument("--box", required=True, help='e.g. "1,0:16,63"')
    p_map.set_defaults(func=_cmd_map)

    p_gen = sub.add_parser(
        "codegen", help="emit a version's source", parents=[obs_flags]
    )
    p_gen.add_argument("code", help="stencil5 | psm | simple2d | jacobi")
    p_gen.add_argument("version", help="e.g. ov-tiled")
    p_gen.add_argument(
        "--sizes", required=True, type=_parse_sizes, help='e.g. "T=8,L=64"'
    )
    p_gen.add_argument("--lang", choices=("python", "c"), default="python")
    p_gen.add_argument("--unroll", action="store_true")
    p_gen.set_defaults(func=_cmd_codegen)

    # Directive overrides shared by compile and run.
    spec_flags = argparse.ArgumentParser(add_help=False)
    sgroup = spec_flags.add_argument_group("spec directives")
    sgroup.add_argument(
        "--sizes",
        default=None,
        type=_parse_sizes,
        help='size bindings, e.g. "T=8,L=64"',
    )
    sgroup.add_argument(
        "--mapping", default=None, help="override the spec's mapping"
    )
    sgroup.add_argument(
        "--schedule", default=None, help="override the spec's schedule"
    )
    sgroup.add_argument(
        "--tile", default=None, help='override tile sizes, e.g. "8,64"'
    )
    sgroup.add_argument(
        "--uov", default=None, help='override the UOV, e.g. "2,0"'
    )
    sgroup.add_argument("--seed", type=int, default=None)
    sgroup.add_argument(
        "--engine",
        choices=("interpreter", "vectorized", "native"),
        default="interpreter",
        help="execution engine for the execute stage (native compiles the "
        "generated C and degrades to vectorized when no compiler exists)",
    )
    sgroup.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist stage artifacts to DIR (default: in-memory only)",
    )
    sgroup.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore any artifact cache",
    )
    bgroup = spec_flags.add_argument_group("uov-search budget (DESIGN.md §12)")
    bgroup.add_argument(
        "--search-max-nodes",
        type=int,
        default=None,
        metavar="N",
        help="node budget for the uov-search stage (exhaustion degrades "
        "gracefully to the best incumbent, at worst the trivial ov0)",
    )
    bgroup.add_argument(
        "--search-wall-ms",
        type=float,
        default=None,
        metavar="MS",
        help="wall-time budget for the uov-search stage",
    )
    bgroup.add_argument(
        "--search-memory-mb",
        type=float,
        default=None,
        metavar="MB",
        help="process peak-RSS watermark budget for the uov-search stage",
    )

    p_compile = sub.add_parser(
        "compile",
        help="push a JSON stencil spec through the pipeline",
        parents=[obs_flags, spec_flags],
    )
    p_compile.add_argument("spec", help="spec JSON file or registered code name")
    p_compile.add_argument(
        "--lint", action="store_true", help="run the lint stage"
    )
    p_compile.add_argument(
        "--execute",
        action="store_true",
        help="run and verify against the natural/lex reference",
    )
    p_compile.add_argument(
        "--codegen", action="store_true", help="run the codegen stage"
    )
    p_compile.add_argument(
        "--emit",
        action="store_true",
        help="print the generated python source (implies --codegen)",
    )
    p_compile.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    p_compile.add_argument(
        "--fail-on",
        choices=("error", "warning"),
        default="error",
        help="lowest lint severity that makes the exit code 1",
    )
    p_compile.add_argument(
        "--fuzz",
        type=int,
        default=0,
        metavar="N",
        help="lint-stage differential fuzz budget (default 0: off)",
    )
    p_compile.set_defaults(func=_cmd_compile)

    p_run = sub.add_parser(
        "run",
        help="execute a code or spec through the pipeline and verify it",
        parents=[obs_flags, spec_flags],
    )
    p_run.add_argument("spec", help="spec JSON file or registered code name")
    p_run.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser(
        "list",
        help="print the plugin registries",
        parents=[obs_flags],
    )
    p_list.add_argument(
        "kind",
        nargs="?",
        default=None,
        help="codes | mappings | schedules | input-rules | combine-hooks "
        "| passes (default: all)",
    )
    p_list.set_defaults(func=_cmd_list)

    p_common = sub.add_parser(
        "common",
        help="find a UOV shared by several loops",
        parents=[obs_flags],
    )
    p_common.add_argument(
        "--stencils",
        required=True,
        type=_parse_stencils,
        help='stencils separated by "|", e.g. "1,0;1,1 | 1,0"',
    )
    p_common.add_argument("--max-norm2", type=int, default=400)
    p_common.set_defaults(func=_cmd_common)

    p_lint = sub.add_parser(
        "lint",
        help="static storage-safety lint over the benchmark corpus",
        parents=[obs_flags],
    )
    p_lint.add_argument(
        "--codes",
        default=None,
        help="comma-separated subset of codes (default: all registered)",
    )
    p_lint.add_argument(
        "--passes",
        default=None,
        help="comma-separated pass names (default: all default passes)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    p_lint.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the JSON findings artifact to FILE",
    )
    p_lint.add_argument(
        "--fail-on",
        choices=("error", "warning"),
        default="error",
        help="lowest severity that makes the exit code 1 (default error)",
    )
    p_lint.add_argument(
        "--fuzz",
        type=int,
        default=0,
        metavar="N",
        help="differentially fuzz each static verdict against N random "
        "legal schedules (default 0: off)",
    )
    p_lint.add_argument("--seed", type=int, default=0)
    p_lint.add_argument(
        "--symbolic",
        action="store_true",
        help="also run the size-parametric symbolic certifier "
        "(uov-symbolic-certificate pass): OV verdicts proved for ALL "
        "box sizes, cross-checked against the enumerative certifier",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_certify = sub.add_parser(
        "certify",
        help="size-parametric UOV certification of a stencil, code, or spec",
        parents=[obs_flags],
    )
    p_certify.add_argument(
        "--stencil",
        default=None,
        type=_parse_vectors,
        help='dependence vectors "1,0;0,1;1,1" (requires --ov)',
    )
    p_certify.add_argument(
        "--code",
        default=None,
        help="a registered benchmark code (default OV: its initial UOV)",
    )
    p_certify.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="a stencil spec JSON file (default OV: its 'uov' directive "
        "or the initial UOV)",
    )
    p_certify.add_argument(
        "--ov",
        default=None,
        help='candidate occupancy vector "1,1"',
    )
    p_certify.add_argument(
        "--sizes",
        default=None,
        type=_parse_sizes,
        help='sizes "T=5,L=9" to cross-check the affine bounds model at '
        "(--code only)",
    )
    p_certify.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    p_certify.set_defaults(func=_cmd_certify)

    p_codes = sub.add_parser(
        "lint-codes",
        help="render the generated lint finding-code catalogue",
        parents=[obs_flags],
    )
    p_codes.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the markdown to FILE instead of stdout",
    )
    p_codes.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless the on-disk catalogue matches the registry",
    )
    p_codes.add_argument(
        "--path",
        default="docs/LINT_CODES.md",
        help="catalogue path for --check (default docs/LINT_CODES.md)",
    )
    p_codes.set_defaults(func=_cmd_lint_codes)

    from repro.experiments import report

    p_exp = report.add_arguments(
        sub.add_parser(
            "experiments",
            help="run the paper's evaluation",
            parents=[obs_flags],
        )
    )
    p_exp.set_defaults(func=lambda args: report.run(args, p_exp.error))

    p_ts = sub.add_parser(
        "trace-summary",
        help="render a JSONL trace as an ASCII span tree",
        parents=[obs_flags],
    )
    p_ts.add_argument("file", help="trace file written by --trace")
    p_ts.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="how many spans to rank by self time (default 10)",
    )
    p_ts.set_defaults(func=_cmd_trace_summary)

    p_stats = sub.add_parser(
        "stats",
        help="aggregate a persistent run ledger (engine comparison, "
        "top-k slowest, cache hit rates)",
        parents=[obs_flags],
    )
    p_stats.add_argument(
        "file",
        nargs="?",
        default=None,
        help="ledger JSONL written by --ledger/REPRO_LEDGER "
        "(default: $REPRO_LEDGER)",
    )
    p_stats.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="K",
        help="how many slowest executions to list (default 5)",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_serve = sub.add_parser(
        "serve",
        help="run the fault-tolerant compilation/experiment daemon "
        "(HTTP/JSON; DESIGN.md §17)",
        parents=[obs_flags],
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8750,
        help="bind port (default 8750; 0 picks a free port)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="crash-only worker subprocesses (default 2)",
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="shared artifact store (dir or *.sqlite); also backs "
        "GET /artifact/<key> (default: no persistence)",
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=60.0,
        metavar="S",
        help="per-request worker deadline in seconds; an overdue worker "
        "is killed and respawned (default 60, 0 disables)",
    )
    p_serve.add_argument(
        "--rate",
        type=float,
        default=50.0,
        metavar="R",
        help="sustained admission rate, requests/s (default 50)",
    )
    p_serve.add_argument(
        "--burst",
        type=int,
        default=100,
        metavar="N",
        help="admission token-bucket burst (default 100)",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="admitted requests alive at once before shedding 429s "
        "(default 64)",
    )
    p_serve.add_argument(
        "--memory-mb",
        type=float,
        default=None,
        metavar="MB",
        help="peak-RSS watermark; past it every request sheds (default off)",
    )
    p_serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help="consecutive failures that open a circuit breaker (default 3)",
    )
    p_serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds an open breaker waits before a half-open probe "
        "(default 30)",
    )
    p_serve.add_argument(
        "--crash-retries",
        type=int,
        default=2,
        metavar="N",
        help="times a crashed/overdue job is retried on a fresh worker "
        "before the request fails (default 2)",
    )
    p_serve.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="S",
        help="SIGTERM drain grace: seconds to let in-flight requests "
        "finish (default 10)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    from repro.store.cli import add_store_parser

    add_store_parser(sub, parents=[obs_flags])

    args = parser.parse_args(argv)
    if args.inject:
        from repro.resilience import FaultPlan, install_plan

        try:
            plan = FaultPlan.from_spec(args.inject, seed=args.inject_seed)
        except ValueError as exc:
            parser.error(f"--inject: {exc}")
        install_plan(plan)
        plan.arm_env()  # worker processes inherit the plan
    if args.trace or args.log_level:
        obs.configure(
            trace_path=args.trace,
            log_level=args.log_level,
            program=f"repro-uov {args.command}",
        )
    was_profiling = obs.profiling()
    if args.profile:
        # Arm kernel-level profiling too: the native engine compiles its
        # instrumented variant and reports real kernel time.
        obs.set_profiling(True)
    # Opens the run ledger when --ledger or REPRO_LEDGER names one;
    # otherwise ledger_record stays a no-op.
    obs.configure_ledger(args.ledger)
    try:
        status = args.func(args)
        # Buffered output meets a closed pipe here, not at exit.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Output piped into head/less and truncated: not an error.  Point
        # stdout at devnull so the interpreter's exit flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        if args.profile:
            # Disarm, or every later native run in this process would
            # compile and time the instrumented kernel.
            obs.set_profiling(was_profiling)
            print("-- metrics --", file=sys.stderr)
            print(obs.render_profile(), file=sys.stderr)
        if args.trace:
            obs.shutdown()  # also closes the ledger
        else:
            obs.shutdown_ledger()


if __name__ == "__main__":
    sys.exit(main())
