"""Run every experiment and write EXPERIMENTS.md.

``python -m repro.experiments.report [--mode full|quick] [--out PATH]``
is ``repro-uov experiments`` under its module name: it regenerates the
paper-vs-measured record for all tables and figures, and takes every
flag of that subcommand, the observability flags included.
``--jobs N`` simulates points on N worker processes; ``--cache-dir``
points the content-addressed result cache somewhere else (default
``.sim-cache/``), and ``--no-cache`` disables it — a warm cache re-runs
a figure with zero fresh simulations, and a killed run re-run on the
same cache simulates only what it had not finished.  ``--trace FILE``
records a structured JSONL trace of the whole run (render it with
``repro-uov trace-summary FILE``), and the written report always ends
with a "Telemetry" appendix: per-figure simulation counts, the cache hit
rate, the slowest simulations, and the vectorization-fallback tally.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.experiments import ALL_EXPERIMENTS

if TYPE_CHECKING:
    from repro.experiments.harness import ExperimentResult, SimulationRunner

# The harness (and the simulator behind it) is imported where it is
# used: ``repro-uov`` declares its ``experiments`` flags from this module
# at startup, and every other subcommand must not pay for the import.

__all__ = [
    "add_arguments",
    "main",
    "run",
    "run_all",
    "write_report",
    "telemetry_appendix",
    "memory_behavior_appendix",
]

DEFAULT_CACHE_DIR = ".sim-cache"

_HEADER = """# EXPERIMENTS — paper vs. measured

Generated by `python -m repro.experiments.report --mode {mode}`
(run time {elapsed:.0f}s).  Each section reproduces one table or figure of
*Schedule-Independent Storage Mapping for Loops* (ASPLOS 1998); "Claims"
are the paper's qualitative statements evaluated against fresh numbers
from this repository's simulator and analyses.  Absolute cycle counts are
simulated (see DESIGN.md, substitutions); the reproduced content is the
*shape*: storage formulas, who wins, where the knees and cliffs fall.

Overall: **{passed}/{total} claims hold.**

"""


def run_all(mode: str = "quick", progress=print) -> list[ExperimentResult]:
    """Every experiment's result, each tagged with its runner telemetry."""
    from repro.experiments.harness import get_runner

    runner = get_runner()
    results = []
    for name in ALL_EXPERIMENTS:
        module = importlib.import_module(f"repro.experiments.{name}")
        t0 = time.time()
        if progress:
            progress(f"-- running {name} ({mode}) ...")
        sims0, hits0 = runner.simulated, runner.cache_hits
        with obs.span(f"experiment.{name}", mode=mode):
            result = module.run(mode)
        result.telemetry = {
            "simulated": runner.simulated - sims0,
            "cache_hits": runner.cache_hits - hits0,
            "elapsed_s": time.time() - t0,
        }
        if progress:
            status = "ok" if result.ok else "CLAIM FAILURES"
            progress(
                f"   {name}: {status} "
                f"({sum(c.holds for c in result.claims)}/"
                f"{len(result.claims)} claims, "
                f"{result.telemetry['elapsed_s']:.1f}s, "
                f"{result.telemetry['simulated']} simulated, "
                f"{result.telemetry['cache_hits']} cache hits)"
            )
        obs.ledger_record(
            "experiment",
            experiment=name,
            mode=mode,
            ok=result.ok,
            claims_passed=sum(c.holds for c in result.claims),
            claims_total=len(result.claims),
            wall_s=round(result.telemetry["elapsed_s"], 3),
            simulated=result.telemetry["simulated"],
            cache_hits=result.telemetry["cache_hits"],
        )
        results.append(result)
    return results


def _pct(hits: int, total: int) -> str:
    if total == 0:
        return "n/a"
    value = 100.0 * hits / total
    return f"{value:.0f}%" if value in (0.0, 100.0) else f"{value:.1f}%"


def telemetry_appendix(
    results: list[ExperimentResult],
    runner: SimulationRunner | None = None,
    trace_path: str | None = None,
) -> str:
    """The "Telemetry" section: what the instrumentation layer saw."""
    from repro.experiments.harness import ascii_table

    out = [
        "## Telemetry",
        "",
        "Instrumentation appendix (DESIGN.md §8): per-figure simulation",
        "counts from the process-wide `SimulationRunner`, plus the obs",
        "metrics registry's engine counters for this run.",
        "",
    ]
    rows = [["experiment", "sims", "cache hits", "hit rate", "wall s"]]
    for r in results:
        t = r.telemetry
        if not t:
            continue
        total = t["simulated"] + t["cache_hits"]
        rows.append(
            [
                r.experiment,
                str(t["simulated"]),
                str(t["cache_hits"]),
                _pct(t["cache_hits"], total),
                f"{t['elapsed_s']:.1f}",
            ]
        )
    out.append(ascii_table(rows))
    out.append("")

    if runner is not None:
        t = runner.telemetry()
        out.append(
            f"- simulation cache hit rate: "
            f"**{_pct(t['cache_hits'], t['tasks'])}** "
            f"({t['cache_hits']} hits / {t['tasks']} tasks, "
            f"{t['simulated']} simulated)"
        )
        workers = t["workers"]
        out.append(
            f"- simulation wall time: {t['sim_wall_s']:.1f}s across "
            f"{max(1, len(workers))} worker process(es)"
        )
        for entry in t["slowest"]:
            out.append(
                f"- slowest: `{entry['task']}` {entry['wall_s']:.2f}s"
            )
    counters = obs.get_metrics().snapshot()["counters"]
    resilience = [
        f"retries {counters.get('resilience.retries', 0)}",
        f"quarantines {counters.get('resilience.quarantines', 0)}",
        f"corrupt cache entries {counters.get('resilience.cache.corrupt', 0)}",
    ]
    out.append(f"- resilience (DESIGN.md §12): {', '.join(resilience)}")
    # Searches, the native engine and the simulator all degrade through
    # record_degradation; its per-reason counters say which happened.
    prefix = "resilience.degradations."
    by_reason = [
        f"{name[len(prefix):]} {value}"
        for name, value in sorted(counters.items())
        if name.startswith(prefix) and value
    ]
    out.append(f"- degradations by reason: {', '.join(by_reason) or 'none'}")
    if runner is not None:
        for record in runner.telemetry()["quarantined"]:
            out.append(
                f"  - quarantined: `{record['identity']}` "
                f"[{record['error']}] after {record['attempts']} attempt(s)"
            )
    out.append(
        f"- vectorization fallbacks: "
        f"{counters.get('vectorized.fallbacks', 0)}"
    )
    out.append(
        f"- simulations run in-process or in workers: "
        f"{counters.get('simulate.runs', 0)} "
        f"(parent-process registry view): "
        f"{counters.get('simulate.hierarchy.kernel', 0)} on the C hierarchy "
        f"kernel, {counters.get('simulate.hierarchy.python', 0)} on the "
        f"Python hierarchy"
    )
    if trace_path:
        out.append(
            f"- structured trace: `{trace_path}` "
            f"(render with `repro-uov trace-summary`)"
        )
    out.append("")
    return "\n".join(out)


#: stencil5 versions contrasted by the memory-behavior appendix: the
#: trivial (full-array) mapping vs. the paper's schedule-independent UOV
#: mapping vs. the schedule-specialized minimum.
_MB_VERSIONS = ("natural", "ov", "storage-optimized")

_MB_SIZES = {"quick": {"T": 16, "L": 64}, "full": {"T": 32, "L": 128}}


def memory_behavior_appendix(mode: str = "quick") -> str:
    """The "Memory behavior" section: measured reuse-distance profiles.

    Runs the streaming stack-distance profiler (:mod:`repro.obs.reuse`)
    over stencil5's exact line-address traces and contrasts the trivial
    mapping with the paper's UOV mapping: the storage-mapped version
    needs a far smaller cache to hit its compulsory floor — the same
    story the cache-simulation figures tell, but measured directly from
    the reuse distances, valid for *any* cache size at once.
    """
    from repro.codes import get_versions
    from repro.experiments.harness import ascii_table
    from repro.obs.reuse import profile_version

    line_bytes = 32
    sizes = _MB_SIZES.get(mode, _MB_SIZES["quick"])
    versions = get_versions("stencil5")
    profiles = {
        key: profile_version(versions[key], sizes, line_bytes=line_bytes)
        for key in _MB_VERSIONS
        if key in versions
    }
    out = [
        "## Memory behavior (reuse-distance profile)",
        "",
        f"Streaming Mattson stack-distance profile of `stencil5` at "
        f"sizes {sizes} (line {line_bytes}B, collapsed trace; see "
        f"DESIGN.md §14).  `knee` is the smallest fully-associative LRU "
        f"cache whose miss ratio reaches the compulsory floor — the "
        f"measured counterpart of the analytic model's `reuse_bytes`.",
        "",
    ]
    cache_sizes = [256, 1024, 4096, 16384]
    rows = [
        ["version", "distinct lines", "knee"]
        + [f"miss@{c}B" for c in cache_sizes]
    ]
    for key, profile in profiles.items():
        p = profile.profiler
        rows.append(
            [
                key,
                str(p.distinct_lines),
                f"{p.knee_bytes(line_bytes)}B",
            ]
            + [
                f"{ratio:.3f}"
                for _, _, ratio in profile.miss_ratio_table(cache_sizes)
            ]
        )
    out.append(ascii_table(rows))
    out.append("")
    for key, profile in profiles.items():
        buckets = profile.profiler.log2_buckets()
        rendered = ", ".join(f"{k}: {n}" for k, n in buckets.items())
        out.append(f"- `{key}` reuse-distance buckets (lines): {rendered}")
    out.append("")
    out.append(
        "Claims: the UOV mapping shrinks the touched-line footprint "
        "(and with it the compulsory-miss floor) by the storage ratio "
        "while keeping the same reuse distances as the natural "
        "mapping, and the schedule-specialized `storage-optimized` "
        "mapping reaches its floor with the smallest cache of all — "
        "schedule-independent storage buys most of the locality "
        "without committing to a schedule."
    )
    out.append("")
    return "\n".join(out)


def write_report(
    results: list[ExperimentResult],
    path: str,
    mode: str,
    elapsed: float,
    runner: SimulationRunner | None = None,
    trace_path: str | None = None,
) -> None:
    total = sum(len(r.claims) for r in results)
    passed = sum(sum(c.holds for c in r.claims) for r in results)
    with open(path, "w") as fh:
        fh.write(
            _HEADER.format(
                mode=mode, elapsed=elapsed, passed=passed, total=total
            )
        )
        for r in results:
            fh.write(r.render())
            fh.write("\n")
        fh.write(memory_behavior_appendix(mode))
        fh.write("\n")
        fh.write(telemetry_appendix(results, runner, trace_path))


def add_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Declare the report's run flags on ``parser`` (the
    ``repro-uov experiments`` subcommand) and return it."""
    parser.add_argument("--mode", choices=("quick", "full"), default="quick")
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="simulation worker processes (default 1: in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"simulation result cache directory (default {DEFAULT_CACHE_DIR}"
        "; a *.sqlite path selects the shared sqlite store backend)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the simulation result cache",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-simulation timeout in seconds (terminates the worker)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retries per failed simulation before quarantining it",
    )
    return parser


def main(argv=None) -> int:
    """``python -m repro.experiments.report``: ``repro-uov experiments``
    with the same flags, tracer and ledger."""
    from repro.cli import main as cli_main

    args = sys.argv[1:] if argv is None else argv
    return cli_main(["experiments", *args])


def run(args: argparse.Namespace, error: Callable[[str], None]) -> int:
    """Run the report for the parsed ``repro-uov experiments`` ``args``;
    the CLI owns the tracer and the ledger.  ``error`` reports a usage
    error and does not return (``ArgumentParser.error``)."""
    from repro.experiments.harness import (
        SimulationRunner,
        interruption_guard,
        set_runner,
    )
    from repro.store import OPEN_ERRORS

    try:
        runner = SimulationRunner(
            jobs=args.jobs,
            cache_dir=None if args.no_cache else args.cache_dir,
            timeout_s=args.timeout,
            retry=args.retries,
        )
    except OPEN_ERRORS as exc:
        error(f"unusable --cache-dir {args.cache_dir!r}: {exc}")
    except ValueError as exc:
        error(str(exc))
    set_runner(runner)
    t0 = time.time()
    try:
        # SIGINT/SIGTERM mid-run: close the store and write a final
        # ledger record before dying.
        with interruption_guard(runner), obs.span(
            "report.run_all", mode=args.mode
        ):
            results = run_all(args.mode)
        write_report(
            results,
            args.out,
            args.mode,
            time.time() - t0,
            runner=runner,
            trace_path=args.trace,
        )
    finally:
        runner.close()
    total = sum(len(r.claims) for r in results)
    passed = sum(sum(c.holds for c in r.claims) for r in results)
    extras = (
        f", {len(runner.quarantined)} quarantined" if runner.quarantined else ""
    )
    print(
        f"wrote {args.out}: {passed}/{total} claims hold "
        f"({runner.simulated} simulated, {runner.cache_hits} cache hits"
        f"{extras})"
    )
    return 0 if passed == total else 1


if __name__ == "__main__":
    sys.exit(main())
