"""compile-specs: the pipeline over every registered code and example spec.

Why: ``repro compile`` is the second command users run, and it exercises
every pipeline stage (parse, dependence, uov-search, mapping-select,
schedule-select, lint, execute, codegen), the three execution engines,
the C toolchain and the artifact store.  It runs no simulation, so a
simulator change should leave this workload flat.

One sweep is ``compile_spec(lint=True, codegen=True)`` over the four
registered codes and ``examples/specs/{heat7,relax3}.json`` at their
spec sizes on the interpreter, vectorized and native engines, plus
stencil5 at T=L=512 without lint on the vectorized and native engines
(the interpreter takes 4.5 s there, and the dynamic lint checks do not
scale to that size): 20 calls.  The seed feeds every call's inputs.

- cold: the first sweep of each of the run's children, each on a fresh
  store and a fresh native ``.so`` cache; the median over children.
- warm: in each child, one untimed sweep, then timed sweeps for its share
  of ``--seconds`` and at least 200 calls (1000 or more per run), pooled
  over the children.  Every call opens a new ``ArtifactCache`` on the
  store directory, as a fresh ``repro compile`` would, so warm calls are
  store reads.

Times are reference seconds (``common.HostClock``), taken per call.

Correct means: no ``StageError``; every execute stage verified against
the natural/lexicographic reference; one ``outputs_sha256`` per spec
across the engines, equal to golden.json for seeds it covers, and
unchanged between the cold and warm passes.
"""

from __future__ import annotations

import time
from pathlib import Path
from statistics import median

from common import (
    ROOT,
    Context,
    SPAWNS,
    HostClock,
    Outcome,
    child_args,
    emit,
    percentile,
    ready,
    spawn_children,
)

MODULE = Path(__file__).resolve()
CODES = ("simple2d", "stencil5", "psm", "jacobi")
EXAMPLE_SPECS = ("heat7", "relax3")
ENGINES = ("interpreter", "vectorized", "native")
#: (label, code, sizes, engines): compiled without lint.
LARGE = ("stencil5@512", "stencil5", {"T": 512, "L": 512},
         ("vectorized", "native"))
STAGES = ("parse", "dependence", "uov-search", "mapping-select",
          "schedule-select", "lint", "execute", "codegen")
SPEC_LABELS = (*CODES, *EXAMPLE_SPECS, LARGE[0])
#: Per child: at least 1000 latency samples per run of SPAWNS children.
MIN_WARM_CALLS = 200


# -- child side (imports repro) -------------------------------------------


def _build_calls(root: Path):
    """(label, spec, sizes, lint, engines) for each spec of one sweep."""
    from repro.codes import get_spec
    from repro.frontend import StencilSpec

    calls = [(name, get_spec(name), None, True, ENGINES) for name in CODES]
    calls += [
        (name, StencilSpec.load(root / "examples" / "specs" / f"{name}.json"),
         None, True, ENGINES)
        for name in EXAMPLE_SPECS
    ]
    label, code, sizes, engines = LARGE
    calls.append((label, get_spec(code), sizes, False, engines))
    return calls


def _one(call, engine: str, seed: int, store: Path) -> dict:
    from repro.pipeline import ArtifactCache, compile_spec

    label, spec, sizes, lint, _ = call
    cache = ArtifactCache(store)
    try:
        result = compile_spec(spec, sizes=sizes, seed=seed, lint=lint,
                              codegen=True, cache=cache, engine=engine)
    except Exception as exc:  # noqa: BLE001 - counted as a failed call
        return {"label": label, "engine": engine,
                "error": f"{type(exc).__name__}: {exc}"}
    execute = result.artifact("execute")
    return {
        "label": label,
        "engine": engine,
        "sha": execute.outputs_sha256,
        "verified": execute.verified,
        "hits": cache.hits,
        "misses": cache.misses,
        "stages": {r.name: r.wall_s for r in result.records},
    }


def _sweep(calls, seed: int, store: Path, clock: HostClock) -> list[dict]:
    """One sweep; each row carries its call's ``span`` and ``wall_s``."""
    rows = []
    for call in calls:
        for engine in call[4]:
            row, start, end = clock.timed(_one, call, engine, seed, store)
            row["span"] = (start, end)
            row["wall_s"] = end - start
            rows.append(row)
    return rows


def _warm(calls, seed: int, store: Path, clock: HostClock, seconds: float,
          reference: dict) -> dict:
    """Timed warm sweeps.  Calls are folded into running totals as they
    finish, so the benchmark keeps no per-call objects alive while it
    measures; only each call's span is kept, to be scaled at the end."""
    warm = {"failures": [], "hits": 0, "misses": 0, "wall_s": 0.0,
            "stages": dict.fromkeys(STAGES, 0.0)}
    sweeps: list[list] = []
    t0 = time.perf_counter()
    while (sum(map(len, sweeps)) < MIN_WARM_CALLS
           or time.perf_counter() - t0 < seconds):
        rows = _sweep(calls, seed, store, clock)
        sweeps.append([row["span"] for row in rows])
        for row in rows:
            warm["wall_s"] += row["wall_s"]
            if "error" in row or not row["verified"] or (
                    row["sha"] != reference[row["label"]]):
                warm["failures"].append(
                    f"{row['label']} on {row['engine']}: "
                    f"{row.get('error') or row['sha']}"
                )
                continue
            warm["hits"] += row["hits"]
            warm["misses"] += row["misses"]
            for stage, wall in row["stages"].items():
                warm["stages"][stage] += wall
    clock.calibrate()
    warm["latencies"] = [clock.seconds(*span) for spans in sweeps
                         for span in spans]
    warm["sweeps"] = [sum(clock.seconds(*span) for span in spans)
                      for spans in sweeps]
    return warm


def child_main(argv=None) -> None:
    import warnings

    args = child_args(argv)
    calls = _build_calls(ROOT)
    if args.obs_trace:
        from repro import obs

        obs.configure(trace_path=args.obs_trace, program="bench.e2e")
    # Engines that fall back to the interpreter say so once per code;
    # the fallback is expected here and its record is in the artifact.
    warnings.simplefilter("ignore")
    ready()
    clock = HostClock()
    store = args.work / "store"
    cold = _sweep(calls, args.seed, store, clock)
    clock.calibrate()
    for row in cold:
        row["s"] = clock.seconds(*row.pop("span"))
    _sweep(calls, args.seed, store, clock)  # untimed: settle lazy state
    reference = {row["label"]: row.get("sha") for row in cold}
    warm = _warm(calls, args.seed, store, clock, args.seconds, reference)
    if args.obs_trace:
        obs.shutdown()
    emit({"cold": cold, "cold_s": sum(row["s"] for row in cold),
          "warm": warm})


# -- orchestrator side (standard library only) ----------------------------


def _check(out: Outcome, data: dict, golden, seed: int) -> dict:
    """Check every call of one child's run; the hash per spec label.

    Cold calls are checked here: verified, one hash per spec across the
    engines, equal to golden where the seed has one.  Warm calls were
    compared with the cold hashes by the child as they finished.
    """
    reference: dict = {}
    want = golden.get(str(seed)) if golden else None
    for row in data["cold"]:
        what = f"{row['label']} on {row['engine']}"
        if "error" in row:
            out.check(False, f"{what}: {row['error']}")
            continue
        expected = reference.setdefault(row["label"], row["sha"])
        if want is not None:
            expected = want[row["label"]]
        out.check(
            row["verified"] and row["sha"] == expected,
            f"{what}: outputs_sha256 {row['sha']} (verified "
            f"{row['verified']}) != expected {expected}",
        )
    warm = data["warm"]
    out.tally(len(warm["latencies"]), len(warm["failures"]),
              f"warm calls: {warm['failures'][:3]}")
    return reference


def _children(ctx: Context, spawns: int, obs_trace: bool = False):
    args = ["--obs-trace", str(ctx.work / "trace.jsonl")] if obs_trace else []
    ctx.work.mkdir(exist_ok=True)
    return spawn_children(MODULE, args, ctx, spawns)


def run(ctx: Context) -> Outcome:
    out = Outcome()
    if not ctx.trace:
        setups, results = _children(ctx, SPAWNS)
        for data in results:
            out.outputs = _check(out, data, ctx.golden, ctx.seed)
        sweeps = [s for data in results for s in data["warm"]["sweeps"]]
        latencies = [x for data in results for x in data["warm"]["latencies"]]
        out.e2e = {
            "setup_s": median(setups),
            "cold_s": median(data["cold_s"] for data in results),
            "warm_s": median(sweeps),
            "p50_ms": 1e3 * percentile(latencies, 50),
            "p90_ms": 1e3 * percentile(latencies, 90),
        }
        hits = sum(data["warm"]["hits"] for data in results)
        misses = sum(data["warm"]["misses"] for data in results)
        out.notes.append(
            f"{len(results)} children: cold sweep each; {len(latencies)} "
            f"warm calls (latency samples) in {len(sweeps)} sweeps; warm "
            f"store hits {hits}, misses {misses}"
        )
        return out

    # The per-layer pass runs one child with program tracing off and one
    # with it on, each for half the time.
    halves = [
        Context(ctx.seed, ctx.seconds / 2, True, ctx.work / name, ctx.golden)
        for name in ("plain", "traced")
    ]
    _, (plain,) = _children(halves[0], spawns=1)
    _, (traced,) = _children(halves[1], spawns=1, obs_trace=True)
    out.outputs = _check(out, plain, ctx.golden, ctx.seed)
    _check(out, traced, ctx.golden, ctx.seed)
    _layers(out, plain)
    out.layers["obs.trace_overhead_pct.cold"] = 100.0 * (
        traced["cold_s"] / plain["cold_s"] - 1.0
    )
    out.layers["obs.trace_overhead_pct.warm"] = 100.0 * (
        median(traced["warm"]["sweeps"]) / median(plain["warm"]["sweeps"])
        - 1.0
    )
    return out


def _layers(out: Outcome, data: dict) -> None:
    """Stage shares of the pass's wall time: ratios of host seconds, so
    they need no scaling."""
    cold, warm = data["cold"], data["warm"]
    cold_wall = sum(row["wall_s"] for row in cold)
    for stage in STAGES:
        spent = sum(row.get("stages", {}).get(stage, 0.0) for row in cold)
        out.layers[f"pipeline.{stage}.cold_pct"] = 100.0 * spent / cold_wall
        out.layers[f"pipeline.{stage}.warm_pct"] = (
            100.0 * warm["stages"][stage] / warm["wall_s"]
        )
    for engine in ENGINES:
        spent = sum(
            row.get("stages", {}).get("execute", 0.0)
            for row in cold if row["engine"] == engine
        )
        out.layers[f"pipeline.execute.{engine}.cold_pct"] = (
            100.0 * spent / cold_wall
        )
    out.layers["store.hit_ratio.warm"] = (
        warm["hits"] / max(1, warm["hits"] + warm["misses"])
    )


if __name__ == "__main__":
    child_main()
