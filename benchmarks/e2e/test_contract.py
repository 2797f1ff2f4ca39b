"""The benchmark's contract, checked in seconds without running a workload.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_contract.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import threading
import time
from statistics import median

import common
import compile_specs
import pytest
import run
import serve_paced
import sim_points

HERE = Path(__file__).resolve().parent

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
GOLDEN_SEEDS = ("1998", "2026")
STATS_FIELDS = {"accesses", "l1_misses", "l2_misses", "tlb_misses",
                "page_faults", "writebacks", "stall_cycles"}


@pytest.fixture(scope="module")
def bench():
    return run.load_benchmark()


@pytest.fixture(scope="module")
def golden():
    return json.loads(run.GOLDEN.read_text())


@pytest.fixture(scope="module")
def layer_targets():
    return json.loads((HERE / "layers.json").read_text())


def test_benchmark_json_shape(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert bench["paths"] == ["benchmarks/e2e"]
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    assert len(json.dumps(bench)) <= 64 * 1024


def test_metric_names_and_units(bench):
    e2e, layers = bench["end_to_end"], bench["per_layer"]
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in layers:
        assert set(m) == {"name", "unit", "better"}
    for m in e2e + layers:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_per_layer_metrics_are_never_times(bench):
    # Every workload prints every per-layer metric, and one that does not
    # exercise a layer prints 0 for it; a time that reads 0 on every run
    # would look fabricated.
    for m in bench["per_layer"]:
        assert m["unit"] not in ("s", "ms", "us", "ns"), m["name"]


def test_every_layer_metric_names_its_target(bench, layer_targets):
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = set(run.WORKLOADS)
    assert set(layer_targets) == {m["name"] for m in bench["per_layer"]}
    for name, targets in layer_targets.items():
        if not targets:
            # Only the tracing-overhead budget moves no end-to-end metric.
            assert name.startswith("obs.trace_overhead_pct."), name
        for metric, workload in targets:
            assert metric in e2e and workload in workloads, (name, metric)


def test_golden_covers_every_point_and_spec(golden):
    for seed in GOLDEN_SEEDS:
        points = golden["sim-points"][seed]
        assert set(points) == set(sim_points.POINT_NAMES)
        for stats in points.values():
            assert set(stats) == STATS_FIELDS
        hashes = golden["compile-specs"][seed]
        assert set(hashes) == set(compile_specs.SPEC_LABELS)
        serve = golden["serve-paced"][seed]
        assert set(serve["compile"]) == {
            *serve_paced.COMPILE_CODES, *serve_paced.EXAMPLE_SPECS
        }
        # A compile through the daemon computes what compile_spec does.
        for label, digest in serve["compile"].items():
            assert digest == hashes[label]
        assert set(serve["experiment"]) == {
            e[0] for e in serve_paced.EXPERIMENTS
        }


def test_seed_free_points_match_across_golden_seeds(golden):
    # Only PSM reads seeded inputs, so every other point's golden stats
    # hold for every seed, not just the two recorded ones.
    a, b = (golden["sim-points"][s] for s in GOLDEN_SEEDS)
    for name in sim_points.POINT_NAMES:
        if not name.startswith("psm"):
            assert a[name] == b[name], name
            assert sim_points.expected_stats(
                golden["sim-points"], 12345, name) == a[name]


def test_host_clock_scales_by_calibrations_near_the_interval():
    ref = common.REFERENCE_S
    clock = common.HostClock(window=0.5)
    clock._times[:] = [0.0, 1.0, 10.0, 10.1]
    clock._refs[:] = [ref, ref, 2 * ref, 2 * ref]
    # Host at reference speed around [0.2, 0.8]; half speed around 10.
    assert clock.seconds(0.2, 0.8) == pytest.approx(0.6)
    assert clock.seconds(9.9, 10.3) == pytest.approx(0.2)
    # No calibration within the window: the nearest one on each side.
    assert clock.scale(5.0, 5.1) == pytest.approx(ref / median([ref, 2 * ref]))


def test_host_clock_reads_wall_time_on_a_steady_host():
    clock = common.HostClock(period=0.0)
    clock.calibrate()
    _, start, end = clock.timed(common.reference_work)
    clock.calibrate()
    # Timing the calibration loop itself gives about one REFERENCE_S,
    # whatever the host's speed.
    assert clock.seconds(start, end) == pytest.approx(common.REFERENCE_S,
                                                      rel=0.5)


def test_gate_never_overlaps_calibration_and_requests():
    gate = serve_paced.Gate()
    state = {"requests": 0, "calibrating": 0, "overlaps": 0, "calibrations": 0}
    lock = threading.Lock()
    deadline = time.perf_counter() + 0.3

    def enter(key, other):
        with lock:
            state[key] += 1
            state["overlaps"] += state[other] > 0

    def leave(key):
        with lock:
            state[key] -= 1

    def requester():
        while time.perf_counter() < deadline:
            with gate.request():
                enter("requests", "calibrating")
                time.sleep(0.001)
                leave("requests")

    def calibrator():
        while time.perf_counter() < deadline:
            with gate.exclusive():
                enter("calibrating", "requests")
                state["calibrations"] += 1
                time.sleep(0.002)
                leave("calibrating")

    threads = [threading.Thread(target=requester) for _ in range(4)]
    threads.append(threading.Thread(target=calibrator))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert state["overlaps"] == 0
    # A pending calibration holds new requests back, so it is not starved.
    assert state["calibrations"] > 5


@pytest.mark.parametrize("base,new,bound,better,want", [
    ([10.0, 10.1, 9.9], [10.3, 10.2, 10.4], 0.10, "lower", "within bound"),
    ([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], 0.10, "lower", "worse"),
    ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], 0.10, "higher", "worse"),
    ([10.0, 14.0, 7.0], [10.0, 11.0, 12.0], 0.10, "lower", "unresolved"),
    ([10.0, 14.0, 7.0], [5.0, 5.5, 6.0], 0.10, "lower", "within bound"),
])
def test_compare_verdicts(base, new, bound, better, want):
    assert run.verdict(base, new, bound, better)[0] == want


def test_refuses_to_run_without_the_program(tmp_path, bench):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files, a run exits nonzero without printing a result."""
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    for path in bench["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *bench["command"][1:], "--workload", "sim-points",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
