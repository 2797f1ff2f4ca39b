"""sim-points: six fixed points through ``repro.execution.simulator.simulate``.

Why these points: simulation is the end-to-end hot path of the figure
report (about 94% of a cold quick report), and its time splits between
trace generation (``execution.trace.line_trace``) and the cache
hierarchy (``machine.hierarchy.MemoryHierarchy``) in proportions that
depend on the point:

- ``psm-ovtiled-n144-ppro`` and ``s5-naturaltiled-L8192-ppro`` take the
  scalar trace walk, so trace generation is about half their time;
- the batched-trace stencil5 points (natural, ov-interleaved, ov) and the
  jacobi point spend most of their time in the hierarchy;
- ``s5-natural-L32768-ppro`` pages (its 4 MiB of storage exceeds the
  3 MiB memory cap, so it pays writebacks), ``jacobi-ov-L8192-ultra2``
  runs the direct-mapped L1, and ``s5-ov-L2048-alpha-p2`` takes the
  ``passes > 1`` path.

A round of the six takes about 2 s.  Machines are the figure modules'
machines, ``scaled(32)`` with memory capped at 3 MiB; the values are
pinned here rather than imported so that a change to a figure module
does not silently change the benchmark.  The seed feeds PSM's strings
(the other codes' traces do not depend on it).

The end-to-end pass times, in each of the run's fresh children, the
first round (cold) and then warm rounds for the child's share of
``--seconds`` (at least two), each point in reference seconds
(``common.HostClock``).  Warm rounds are pooled over the children.  The per-layer pass runs each
point once more through ``simulate`` and once decomposed: the trace
materialised by ``line_trace``, then fed to
``MemoryHierarchy.run_line_trace``.  Both must give identical
``AccessStats``.
"""

from __future__ import annotations

import time
from pathlib import Path
from statistics import median

from common import (
    SPAWNS,
    Context,
    HostClock,
    Outcome,
    child_args,
    emit,
    percentile,
    ready,
    spawn_children,
)

MODULE = Path(__file__).resolve()
SCALE = 32
MEMORY_CAP = 3 * 1024 * 1024
S5_TILE = {"tile_h": 16, "tile_w": 32}
#: Per child: the p90 of a run's warm rounds is then not its slowest.
MIN_WARM_ROUNDS = 2

#: (name, code, version, sizes, machine, passes)
POINTS = (
    ("psm-ovtiled-n144-ppro", "psm", "ov-tiled",
     {"n0": 144, "n1": 144, "tile_h": 48, "tile_w": 48}, "pentium-pro", 1),
    ("s5-naturaltiled-L8192-ppro", "stencil5", "natural-tiled",
     {"T": 4, "L": 8192, **S5_TILE}, "pentium-pro", 1),
    ("s5-natural-L32768-ppro", "stencil5", "natural",
     {"T": 8, "L": 32768, **S5_TILE}, "pentium-pro", 1),
    ("s5-ovinterleaved-L8192-alpha", "stencil5", "ov-interleaved",
     {"T": 8, "L": 8192, **S5_TILE}, "alpha-21164", 1),
    ("s5-ov-L2048-alpha-p2", "stencil5", "ov",
     {"T": 12, "L": 2048, **S5_TILE}, "alpha-21164", 2),
    ("jacobi-ov-L8192-ultra2", "jacobi", "ov",
     {"T": 8, "L": 8192}, "ultra-2", 1),
)
POINT_NAMES = tuple(p[0] for p in POINTS)


# -- child side (imports repro) -------------------------------------------


def _build_points():
    from repro.codes import get_versions
    from repro.machine import MACHINES

    machines = {}
    for m in MACHINES:
        scaled = m.scaled(SCALE)
        machines[m.name] = scaled.with_memory(
            min(MEMORY_CAP, scaled.memory_bytes)
        )
    return [
        (name, get_versions(code)[key], sizes, machines[machine], passes)
        for name, code, key, sizes, machine, passes in POINTS
    ]


def _simulate_round(points, seed: int, clock: HostClock) -> list[dict]:
    from dataclasses import asdict

    from repro.execution.simulator import simulate

    out = []
    for name, version, sizes, machine, passes in points:
        result, start, end = clock.timed(
            simulate, version, sizes, machine, seed=seed, passes=passes
        )
        out.append({"point": name, "span": (start, end),
                    "stats": asdict(result.stats)})
    return out


def _decomposed(point, seed: int, clock: HostClock) -> dict:
    """One point as trace generation, then hierarchy, timed apart."""
    from dataclasses import asdict

    from repro.execution.trace import line_trace

    name, version, sizes, machine, passes = point
    clock.tick()
    t0 = time.perf_counter()
    lines = list(line_trace(version, sizes, machine.l1.line_bytes, seed=seed))
    t1 = time.perf_counter()
    clock.tick()
    hierarchy = machine.build_hierarchy()
    t2 = time.perf_counter()
    for _ in range(passes - 1):
        hierarchy.run_line_trace(lines)
    before = hierarchy.stall_cycles
    hierarchy.run_line_trace(lines)
    t3 = time.perf_counter()
    stats = asdict(hierarchy.stats())
    # Like simulate(): only the last pass's stalls count, and the trace
    # is generated once per pass.
    stats["stall_cycles"] -= before
    return {"trace": (t0, t1), "hier": (t2, t3), "passes": passes,
            "stats": stats}


def child_main(argv=None) -> None:
    args = child_args(argv)
    points = _build_points()
    ready()
    clock = HostClock()
    rounds = [_simulate_round(points, args.seed, clock)]
    if args.trace:
        # Attribute a warm round, as the end-to-end warm_s measures.
        rows = _simulate_round(points, args.seed, clock)
        for row, point in zip(rows, points):
            row["decomposed"] = _decomposed(point, args.seed, clock)
        rounds.append(rows)
    else:
        t0 = time.perf_counter()
        while (len(rounds) <= MIN_WARM_ROUNDS
               or time.perf_counter() - t0 < args.seconds):
            rounds.append(_simulate_round(points, args.seed, clock))
    clock.calibrate()
    for row in (row for rnd in rounds for row in rnd):
        row["s"] = clock.seconds(*row.pop("span"))
        parts = row.get("decomposed")
        if parts:
            parts["trace_s"] = clock.seconds(*parts.pop("trace")) * parts[
                "passes"]
            parts["hier_s"] = clock.seconds(*parts.pop("hier"))
    emit({"rounds": rounds})


# -- orchestrator side (standard library only) ----------------------------


def expected_stats(golden, seed: int, point: str) -> dict:
    """Golden stats for ``seed``; for another seed, the fields on which
    every golden seed agrees (all of them for the seed-free codes)."""
    if golden is None:
        return {}
    if str(seed) in golden:
        return golden[str(seed)][point]
    per_seed = [by_point[point] for by_point in golden.values()]
    return {
        k: v for k, v in per_seed[0].items()
        if all(other[k] == v for other in per_seed)
    }


def _check(out: Outcome, rounds: list, golden, seed: int) -> None:
    for i, rnd in enumerate(rounds):
        for row in rnd:
            name = row["point"]
            want = expected_stats(golden, seed, name)
            got = row["stats"]
            # The decomposed run (per-layer pass) must agree with simulate.
            parts = row.get("decomposed", {"stats": got})["stats"]
            out.check(
                all(got[k] == v for k, v in want.items())
                and got == rounds[0][POINT_NAMES.index(name)]["stats"]
                and parts == got,
                f"{name} round {i}: AccessStats {got} (decomposed "
                f"{parts}) != expected {want}",
            )


def _round_s(rnd: list) -> float:
    return sum(row["s"] for row in rnd)


def run(ctx: Context) -> Outcome:
    out = Outcome()
    setups, results = spawn_children(MODULE, [], ctx,
                                     spawns=1 if ctx.trace else SPAWNS)
    for data in results:
        _check(out, data["rounds"], ctx.golden, ctx.seed)
    first = results[0]["rounds"]
    out.outputs = {row["point"]: row["stats"] for row in first[0]}
    if ctx.trace:
        _layers(out, first[1])
        return out
    warm = [rnd for data in results for rnd in data["rounds"][1:]]
    # A round of the six points is the operation timed for p50/p90; the
    # per-point median over warm rounds makes warm_s robust to one slow
    # round.
    round_s = [_round_s(rnd) for rnd in warm]
    out.e2e = {
        "setup_s": median(setups),
        "cold_s": median(_round_s(data["rounds"][0]) for data in results),
        "warm_s": sum(
            median([rnd[i]["s"] for rnd in warm]) for i in range(len(POINTS))
        ),
        "p50_ms": 1e3 * percentile(round_s, 50),
        "p90_ms": 1e3 * percentile(round_s, 90),
    }
    accesses = sum(row["stats"]["accesses"] for row in first[0])
    out.notes.append(
        f"{len(results)} children: cold round each; {len(warm)} warm rounds of "
        f"{len(POINTS)} points (p50/p90 over {len(round_s)} round "
        f"latencies); {accesses / out.e2e['warm_s']:.0f} simulated accesses "
        "per reference second"
    )
    return out


def _layers(out: Outcome, rows: list[dict]) -> None:
    totals = {"trace": 0.0, "hier": 0.0, "sim": 0.0, "accesses": 0}
    for row in rows:
        name, parts = row["point"], row["decomposed"]
        accesses = row["stats"]["accesses"]
        out.layers[f"execution.trace.accesses_per_s.{name}"] = (
            accesses / parts["trace_s"]
        )
        out.layers[f"machine.hierarchy.accesses_per_s.{name}"] = (
            accesses / parts["hier_s"]
        )
        out.layers[f"execution.simulate.accesses_per_s.{name}"] = (
            accesses / row["s"]
        )
        totals["trace"] += parts["trace_s"]
        totals["hier"] += parts["hier_s"]
        totals["sim"] += row["s"]
        totals["accesses"] += accesses
        out.notes.append(
            f"{name}: simulate {row['s']:.3f}s = trace "
            f"{parts['trace_s']:.3f}s + hierarchy {parts['hier_s']:.3f}s "
            f"+ rest, {accesses} accesses"
        )
    n = totals["accesses"]
    out.layers["execution.trace.accesses_per_s"] = n / totals["trace"]
    out.layers["machine.hierarchy.accesses_per_s"] = n / totals["hier"]
    out.layers["execution.simulate.accesses_per_s"] = n / totals["sim"]


if __name__ == "__main__":
    child_main()
