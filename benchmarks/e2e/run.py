"""End-to-end benchmark: three workloads, their metrics, and a comparator.

Usage (from the repository root; needs only the python3 that runs the
repository's tests):

    python3 benchmarks/e2e/run.py --seed 1998 --out results.json
        Every workload, each in a fresh process: an end-to-end pass
        (no program tracing) then a per-layer pass.  Prints every metric
        with its unit, checks outputs, writes JSON; exits 1 if any
        output was wrong.  ``--repeat N`` runs everything N times.

    python3 benchmarks/e2e/run.py --workload sim-points --seed 7 \\
        --seconds 20 --trace 0
        One workload, one pass.  The last stdout line is one JSON object
        with keys correct/attempted/failed/metrics: the end-to-end
        metrics of BENCHMARK.json with ``--trace 0``, its per-layer
        metrics with ``--trace 1``.

    python3 benchmarks/e2e/run.py compare A.json B.json
        For each (end-to-end metric, workload): "within bound", "worse"
        or "unresolved", from BENCHMARK.json's bounds and the spread
        between the runs in each file.  Exits 1 on "worse".

Workloads and metrics are described in README.md.  Everything a run
writes goes under ``.bench_build/e2e/`` in the checkout and is removed
when the run ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import compile_specs
import serve_paced
import sim_points
from common import HERE, ROOT, Context

#: In BENCHMARK.json's order.
WORKLOADS = {
    "compile-specs": compile_specs,
    "sim-points": sim_points,
    "serve-paced": serve_paced,
}
BENCHMARK = ROOT / "BENCHMARK.json"
GOLDEN = HERE / "golden.json"
WORK = ROOT / ".bench_build" / "e2e"


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


def _require_checkout() -> None:
    """Exit 2 unless the program the benchmark measures is present."""
    missing = [
        p for p in (ROOT / "src" / "repro", ROOT / "examples" / "specs")
        if not p.is_dir()
    ]
    if missing:
        print(f"run.py: not a repository checkout: missing "
              f"{', '.join(str(p.relative_to(ROOT)) for p in missing)}",
              file=sys.stderr)
        sys.exit(2)


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any process it waited for
    (workload children, their workers and compilers)."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 use_golden: bool = True) -> dict:
    """One pass of one workload: the contract's result object, plus the
    checked ``outputs`` (make_golden.py runs with ``use_golden=False``)."""
    bench = load_benchmark()
    golden = json.loads(GOLDEN.read_text())[name] if use_golden else None
    work = WORK / f"{name}-{seed}-{'trace' if trace else 'e2e'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ctx = Context(seed, seconds, trace, work, golden)
        outcome = WORKLOADS[name].run(ctx)
    except Exception:
        _show_logs(work)
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        declared = bench["per_layer"]
        unknown = set(outcome.layers) - {m["name"] for m in declared}
        if unknown:
            raise RuntimeError(f"undeclared per-layer metrics {sorted(unknown)}")
        # A layer this workload does not exercise reads 0 (never a time:
        # per-layer metrics are rates, shares, ratios and counts).
        values = {m["name"]: outcome.layers.get(m["name"], 0) for m in declared}
    else:
        declared = bench["end_to_end"]
        values = {**outcome.e2e, "peak_rss_mb": _peak_rss_mb()}
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    for note in outcome.notes:
        print(f"  {note}")
    for metric, v in metrics.items():
        if not trace or v["value"]:
            print(f"  {metric:<52s} {v['value']:>14.6g} {v['unit']}")
    print(f"  failed_ratio {outcome.failed}/{outcome.attempted}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "outputs": outcome.outputs,
    }


def _show_logs(work: Path) -> None:
    """The tail of every log a failed run's processes wrote (the work
    directory is removed right after)."""
    for log in sorted(work.glob("*.log")):
        lines = log.read_text(errors="replace").splitlines()[-20:]
        if lines:
            print(f"--- {log.name}", *lines, sep="\n", file=sys.stderr)


def _exit_on_sigterm(signum, frame) -> None:
    # As an exception, so that every process a workload started is
    # stopped and its work directory removed on the way out.
    raise SystemExit(128 + signum)


def _single(args) -> int:
    _require_checkout()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except Exception:  # noqa: BLE001 - report, then exit without a result
        traceback.print_exc()
        return 1
    result.pop("outputs")
    print(json.dumps(result), flush=True)
    return 0


def _run_all(args) -> int:
    _require_checkout()
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    runs, ok = [], True
    for repeat in range(args.repeat):
        run: dict = {}
        for name in WORKLOADS:
            for trace in (0, 1):
                print(f"== {name} trace={trace} seed={args.seed} "
                      f"(run {repeat + 1}/{args.repeat})", flush=True)
                result = _spawn_single(name, args.seed, seconds, trace)
                if result is None:
                    ok = False
                    continue
                ok &= result["correct"]
                entry = run.setdefault(name, {"attempted": 0, "failed": 0})
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["e2e" if trace == 0 else "layers"] = {
                    k: v["value"] for k, v in result["metrics"].items()
                }
        runs.append(run)
    _print_table(bench, runs)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": seconds, "runs": runs}, indent=1
        ) + "\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


def _spawn_single(name: str, seed: int, seconds: float, trace: int):
    argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = None
    for line in proc.stdout:
        print(line, end="", flush=True)
        if line.strip():
            last = line
    if proc.wait() != 0 or last is None:
        print(f"!! {name} trace={trace} exited {proc.returncode}", flush=True)
        return None
    return json.loads(last)


def _print_table(bench: dict, runs: list) -> None:
    names = [n for n in WORKLOADS if any(n in run for run in runs)]
    print(f"\n{'metric (median over runs)':<26s}"
          + "".join(f"{n:>16s}" for n in names))
    for metric in bench["end_to_end"]:
        row = f"{metric['name'] + ' [' + metric['unit'] + ']':<26s}"
        for name in names:
            values = [r[name]["e2e"][metric["name"]] for r in runs
                      if "e2e" in r.get(name, {})]
            row += f"{statistics.median(values):>16.5g}" if values else " " * 16
        print(row)
    row = f"{'failed_ratio':<26s}"
    for name in names:
        attempted = sum(r[name]["attempted"] for r in runs if name in r)
        failed = sum(r[name]["failed"] for r in runs if name in r)
        row += f"{f'{failed}/{attempted}':>16s}"
    print(row)


# -- compare --------------------------------------------------------------


def spread(values: list) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    range from four runs up, the full range below that."""
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(mid)
    return (max(values) - min(values)) / abs(mid)


def verdict(base: list, new: list, bound: float, better: str) -> tuple:
    """("within bound" | "worse" | "unresolved", relative worsening)."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (statistics.median(new) - statistics.median(base)) / abs(
        statistics.median(base)
    )
    if max(spread(base), spread(new)) > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "within bound", worsening
        return "unresolved", worsening
    return ("worse" if worsening > bound else "within bound"), worsening


def compare(path_a: str, path_b: str) -> int:
    bench = load_benchmark()
    a = json.loads(Path(path_a).read_text())["runs"]
    b = json.loads(Path(path_b).read_text())["runs"]
    worse = 0
    print(f"{'workload':<15s} {'metric':<12s} {'A':>12s} {'B':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for name in WORKLOADS:
        for metric in bench["end_to_end"]:
            key = metric["name"]
            base = [r[name]["e2e"][key] for r in a if "e2e" in r.get(name, {})]
            new = [r[name]["e2e"][key] for r in b if "e2e" in r.get(name, {})]
            if not base or not new:
                continue
            what, change = verdict(base, new, metric["bound"], metric["better"])
            worse += what == "worse"
            print(f"{name:<15s} {key:<12s} {statistics.median(base):>12.5g} "
                  f"{statistics.median(new):>12.5g} {change:>+8.1%} "
                  f"{metric['bound']:>6.0%}  {what}")
    print("\nper-layer (no bound; medians, for attribution):")
    for name in WORKLOADS:
        for metric in bench["per_layer"]:
            key = metric["name"]
            base = [r[name]["layers"][key] for r in a
                    if "layers" in r.get(name, {})]
            new = [r[name]["layers"][key] for r in b
                   if "layers" in r.get(name, {})]
            if base and new and (any(base) or any(new)):
                print(f"  {name:<15s} {key:<56s} "
                      f"{statistics.median(base):>12.5g} "
                      f"{statistics.median(new):>12.5g} {metric['unit']}")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.new)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    if args.workload:
        return _single(args)
    return _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
