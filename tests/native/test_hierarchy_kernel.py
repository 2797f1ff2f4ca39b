"""The C hierarchy kernel against its oracle, the Python MemoryHierarchy.

Every counter of :class:`~repro.machine.hierarchy.AccessStats` (plus
minor faults) must be equal after the same accesses: for every code ×
version on full, scaled and memory-starved machines over two passes,
and on synthetic traces aimed at one mechanism each.  Without a
toolchain, ``simulate`` must return the same numbers from the oracle and
say so with a ``no-toolchain`` degradation.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.codegen import build as build_mod
from repro.codegen.build import compile_so, discover_toolchain, reset_toolchain_cache
from repro.codes import get_versions
from repro.execution import simulator as simulator_mod
from repro.execution.simulator import simulate
from repro.execution.trace import line_blocks, line_trace
from repro.machine import ALPHA_21164, PENTIUM_PRO, ULTRA_2
from repro.machine.cache import Cache
from repro.machine.hierarchy import MemoryHierarchy
from repro.machine.hierarchy_kernel import (
    KERNEL_SOURCE,
    KernelHierarchy,
    KernelUnavailable,
    UnsupportedTrace,
    load_kernel,
    reset_kernel_cache,
)
from repro.machine.tlb import TLB

from tests.native.conftest import requires_cc

#: Small enough for the oracle, large enough that natural storage spans
#: several pages (so the starved machines refault and write back).
SIZES = {
    "simple2d": {"n": 36, "m": 60},
    "stencil5": {"T": 5, "L": 480},
    "psm": {"n0": 30, "n1": 60, "tile_h": 8, "tile_w": 8},
    "jacobi": {"T": 5, "L": 480},
}
CASES = [
    (code, key) for code in SIZES for key in get_versions(code)
]


def _machines():
    """Each machine full, scaled, and scaled with four pages of memory."""
    for machine in (PENTIUM_PRO, ULTRA_2, ALPHA_21164):
        starved = machine.scaled(64)
        yield machine
        yield machine.scaled(32)
        yield starved.with_memory(4 * starved.page_bytes)


def _counters(h) -> tuple:
    return h.stats(), h.minor_faults


@pytest.fixture
def kernel_lib():
    if discover_toolchain() is None:
        pytest.skip("no C toolchain on PATH (or REPRO_CC=none)")
    return load_kernel()


@pytest.fixture
def no_toolchain():
    """A world without a C compiler (restored and re-probed after)."""
    old = os.environ.get(build_mod.CC_ENV)
    os.environ[build_mod.CC_ENV] = "none"
    reset_toolchain_cache()
    yield
    if old is None:
        os.environ.pop(build_mod.CC_ENV, None)
    else:
        os.environ[build_mod.CC_ENV] = old
    reset_toolchain_cache()


def _counter(name: str) -> int:
    return obs.get_metrics().counter(name).value


def _both(lib, make_args):
    """A fresh oracle and a kernel twin, from one argument factory."""
    oracle = MemoryHierarchy(**make_args())
    return oracle, KernelHierarchy(lib, MemoryHierarchy(**make_args()))


def _oracle_stats(version, sizes, machine, seed=0, passes=1):
    """What ``simulate`` must report: the scalar-walk trace through the
    Python hierarchy, counting only the last pass's stalls."""
    oracle = machine.build_hierarchy()
    trace = list(line_trace(version, sizes, 32, seed=seed, batched=False))
    for _ in range(passes - 1):
        oracle.run_line_trace(trace)
    before = oracle.stall_cycles
    oracle.run_line_trace(trace)
    return replace(oracle.stats(), stall_cycles=oracle.stall_cycles - before)


def _feed_both(oracle, kernel, lines) -> None:
    for line in lines:
        oracle.access_line(int(line))
    kernel.feed(np.asarray(lines, dtype=np.int64))


def _tiny(l1_ways=0, l2_ways=0, tlb_entries=4, pages=4):
    """A hierarchy factory: 8-line L1, 32-line L2, 4 KiB pages."""

    def args():
        return dict(
            l1=Cache("L1", 256, 32, l1_ways),
            l2=Cache("L2", 1024, 32, l2_ways),
            tlb=TLB("TLB", tlb_entries, 4096),
            memory_bytes=pages * 4096,
            l2_stall=7,
            memory_stall=36,
            tlb_stall=25,
            fault_stall=2_000_000,
            minor_fault_stall=600,
        )

    return args


@requires_cc
class TestDifferential:
    @pytest.mark.parametrize("code_name,key", CASES)
    def test_every_version_on_every_machine(self, kernel_lib, code_name, key):
        version = get_versions(code_name)[key]
        sizes = SIZES[code_name]
        blocks = list(line_blocks(version, sizes, 32, seed=3))
        lines = np.concatenate(blocks).tolist()
        for machine in _machines():
            oracle = machine.build_hierarchy()
            kernel = KernelHierarchy(kernel_lib, machine.build_hierarchy())
            for done in (1, 2):
                for line in lines:
                    oracle.access_line(line)
                for block in blocks:
                    kernel.feed(block)
                assert _counters(kernel) == _counters(oracle), (
                    machine.name, done
                )

    def test_simulate_matches_the_oracle_with_passes(self):
        version = get_versions("stencil5")["ov"]
        sizes = SIZES["stencil5"]
        machine = ALPHA_21164.scaled(64)
        got = simulate(version, sizes, machine, passes=2)
        assert got.stats == _oracle_stats(version, sizes, machine, passes=2)


@requires_cc
class TestSynthetic:
    def test_fully_associative_caches(self, kernel_lib):
        # Mostly a hot set that fits the L2, sometimes any of 12 pages.
        rng = np.random.default_rng(7)
        wide = rng.integers(0, 1536, size=3000)
        lines = np.where(rng.random(3000) < 0.7, wide % 40, wide)
        oracle, kernel = _both(kernel_lib, _tiny(l1_ways=0, l2_ways=0))
        assert oracle.l1.num_sets == oracle.l2.num_sets == 1
        _feed_both(oracle, kernel, lines)
        assert _counters(kernel) == _counters(oracle)
        assert oracle.page_faults > 0

    def test_set_associative_non_power_of_two_sets(self, kernel_lib):
        def args():
            return dict(_tiny()(), l1=Cache("L1", 96 * 4, 32, 4),
                        l2=Cache("L2", 96 * 12, 32, 12))

        oracle, kernel = _both(kernel_lib, args)
        assert oracle.l1.num_sets == 3
        lines = np.random.default_rng(1).integers(0, 2000, size=4000)
        _feed_both(oracle, kernel, lines)
        assert _counters(kernel) == _counters(oracle)

    def test_tlb_thrash(self, kernel_lib):
        # A cyclic sweep over one more page than the TLB holds misses
        # the LRU TLB on every access.
        oracle, kernel = _both(kernel_lib, _tiny(tlb_entries=4, pages=64))
        lines = [page * 128 for page in range(5)] * 20
        _feed_both(oracle, kernel, lines)
        assert _counters(kernel) == _counters(oracle)
        assert kernel.stats().tlb_misses == len(lines)

    def test_refault_after_eviction(self, kernel_lib):
        oracle, kernel = _both(kernel_lib, _tiny(pages=4))
        # Five fresh pages through four frames, then the first again.
        lines = [page * 128 for page in range(5)] + [1]
        _feed_both(oracle, kernel, lines)
        stats = kernel.stats()
        assert _counters(kernel) == _counters(oracle)
        assert kernel.minor_faults == 5
        assert (stats.page_faults, stats.writebacks) == (1, 2)

    def test_empty_and_one_element_blocks(self, kernel_lib):
        oracle, kernel = _both(kernel_lib, _tiny())
        kernel.feed(np.empty(0, dtype=np.int64))
        assert _counters(kernel) == _counters(oracle)
        _feed_both(oracle, kernel, [42])
        kernel.feed(np.empty(0, dtype=np.int64))
        _feed_both(oracle, kernel, [42])
        assert _counters(kernel) == _counters(oracle)
        assert kernel.stats().accesses == 2

    def test_block_size_never_matters(self, kernel_lib):
        version = get_versions("psm")["ov-tiled"]
        lines = np.concatenate(
            list(line_blocks(version, SIZES["psm"], 32, seed=5))
        )
        machine = PENTIUM_PRO.scaled(64)
        results = []
        for size in (1, 97, lines.size):
            kernel = KernelHierarchy(kernel_lib, machine.build_hierarchy())
            for start in range(0, lines.size, size):
                kernel.feed(lines[start : start + size])
            results.append(_counters(kernel))
        assert results[0] == results[1] == results[2]

    def test_negative_line_is_refused_with_state_untouched(self, kernel_lib):
        oracle, kernel = _both(kernel_lib, _tiny())
        _feed_both(oracle, kernel, [3, 700, 3])
        before = _counters(kernel)
        with pytest.raises(UnsupportedTrace):
            kernel.feed(np.array([5, -1, 6], dtype=np.int64))
        assert _counters(kernel) == before

    def test_simulate_falls_back_on_a_negative_line(self, monkeypatch):
        trace = [np.array([4, 9000, 4], dtype=np.int64),
                 np.array([-300, 4, -1], dtype=np.int64)]
        monkeypatch.setattr(simulator_mod, "line_blocks",
                            lambda *args, **kwargs: iter(trace))
        machine = PENTIUM_PRO.scaled(64)
        before = _counter("resilience.degradations.unsupported-trace")
        got = simulate(get_versions("stencil5")["ov"], SIZES["stencil5"],
                       machine)
        oracle = machine.build_hierarchy()
        oracle.run_line_trace(np.concatenate(trace).tolist())
        assert got.stats == oracle.stats()
        after = _counter("resilience.degradations.unsupported-trace")
        assert after == before + 1


class TestFallbackLadder:
    def test_no_toolchain_gives_identical_stats(self, no_toolchain):
        version = get_versions("psm")["ov"]
        sizes = SIZES["psm"]
        machine = ULTRA_2.scaled(64)
        degraded = _counter("resilience.degradations.no-toolchain")
        python_runs = _counter("simulate.hierarchy.python")
        with pytest.raises(KernelUnavailable, match="no-toolchain"):
            load_kernel()
        got = simulate(version, sizes, machine, seed=4, passes=2)
        assert _counter("resilience.degradations.no-toolchain") == degraded + 1
        assert _counter("simulate.hierarchy.python") == python_runs + 1
        assert got.stats == _oracle_stats(
            version, sizes, machine, seed=4, passes=2
        )

    @requires_cc
    def test_kernel_and_fallback_agree(self, no_toolchain):
        version = get_versions("jacobi")["ov-tiled"]
        sizes = SIZES["jacobi"]
        machine = ALPHA_21164.scaled(64).with_memory(4 * 8192)
        degraded = simulate(version, sizes, machine, passes=2)
        os.environ.pop(build_mod.CC_ENV)
        reset_toolchain_cache()
        assert simulate(version, sizes, machine, passes=2) == degraded

    @requires_cc
    def test_with_a_toolchain_nothing_degrades(self):
        degradations = _counter("resilience.degradations")
        kernel_runs = _counter("simulate.hierarchy.kernel")
        simulate(get_versions("simple2d")["ov"], SIZES["simple2d"],
                 PENTIUM_PRO.scaled(64))
        assert _counter("resilience.degradations") == degradations
        assert _counter("simulate.hierarchy.kernel") == kernel_runs + 1

    @requires_cc
    def test_compile_failure_degrades(self, monkeypatch):
        version = get_versions("stencil5")["natural"]
        machine = PENTIUM_PRO.scaled(64)
        reference = simulate(version, SIZES["stencil5"], machine)

        def broken(*args, **kwargs):
            raise build_mod.CompileError("synthetic compiler explosion")

        monkeypatch.setattr(build_mod, "compile_so", broken)
        reset_kernel_cache()
        try:
            before = _counter("resilience.degradations.compile-failed")
            with pytest.raises(KernelUnavailable, match="compile-failed"):
                load_kernel()
            result = simulate(version, SIZES["stencil5"], machine)
            after = _counter("resilience.degradations.compile-failed")
        finally:
            reset_kernel_cache()
        assert after == before + 1
        assert result == reference

    @requires_cc
    def test_corrupt_so_is_quarantined_and_rebuilt(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "so"
        monkeypatch.setenv(build_mod.SO_CACHE_ENV, str(cache))
        # Compile without loading: dlopen caches loaded paths per process.
        so_path = compile_so(KERNEL_SOURCE, label="hierarchy-kernel")
        so_path.write_bytes(b"this is not a shared object")
        reset_kernel_cache()
        try:
            lib = load_kernel()
        finally:
            reset_kernel_cache()
        assert [p.name for p in (cache / ".corrupt").iterdir()] == [
            so_path.name
        ]
        assert so_path.exists()
        oracle, kernel = _both(lib, _tiny())
        _feed_both(oracle, kernel, [1, 2, 900, 1])
        assert _counters(kernel) == _counters(oracle)
