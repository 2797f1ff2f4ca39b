"""Trace-driven simulation: the cycles-per-iteration measurement.

``simulate`` plays one version's address trace through a machine's memory
hierarchy and combines the stall cycles with the instruction cost model:

    cycles/iter = compute(flops, addressing, branches, issue)
                + stalls(L1/L2/TLB/paging) / iterations

which is the quantity on the y-axis of every performance figure in the
paper (Figures 7–14).

The trace arrives as int64 blocks (:func:`~repro.execution.trace.
line_blocks`) and plays through the C hierarchy kernel
(:mod:`repro.machine.hierarchy_kernel`).  When no kernel can be built or
loaded, a :class:`~repro.resilience.budget.Degradation` is recorded and
the Python :class:`~repro.machine.hierarchy.MemoryHierarchy` (the
kernel's oracle) runs instead; results are exact either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Mapping

from repro import obs
from repro.codes.base import CodeVersion
from repro.execution.trace import line_blocks
from repro.machine.configs import MachineConfig
from repro.machine.cost import IterationCost
from repro.machine.hierarchy import AccessStats
from repro.machine.hierarchy_kernel import (
    KernelHierarchy,
    KernelUnavailable,
    UnsupportedTrace,
    load_kernel,
)
from repro.resilience.budget import Degradation, record_degradation

__all__ = ["SimResult", "simulate"]


@dataclass(frozen=True)
class SimResult:
    """One point of a performance figure."""

    version_key: str
    machine: str
    sizes: dict
    iterations: int
    cycles_per_iteration: float
    compute_cycles: float
    stall_cycles_per_iteration: float
    stats: AccessStats
    storage_elements: int

    def __str__(self) -> str:
        return (
            f"{self.version_key:>28s} on {self.machine:<16s} "
            f"{self.cycles_per_iteration:8.2f} cyc/iter "
            f"(compute {self.compute_cycles:.2f}, "
            f"stall {self.stall_cycles_per_iteration:.2f})"
        )


def simulate(
    version: CodeVersion,
    sizes: Mapping[str, int],
    machine: MachineConfig,
    seed: int = 0,
    passes: int = 1,
) -> SimResult:
    """Cycles per iteration of one version on one machine.

    ``passes > 1`` replays the trace and reports only the *last* pass's
    stalls: the steady-state measurement the paper's in-cache overhead
    figures (7 and 8) need, where compulsory misses on a problem that fits
    in cache would otherwise dominate a single short run.
    """
    code = version.code
    iterations = code.iteration_count(sizes)
    if iterations <= 0:
        raise ValueError("empty iteration space")
    if passes < 1:
        raise ValueError("at least one simulation pass is required")

    with obs.span(
        "simulate",
        version=version.key,
        machine=machine.name,
        sizes=dict(sizes),
        passes=passes,
    ) as sp:
        oracle = machine.build_hierarchy()
        ran, played = "kernel", None
        kernel = _kernel_for(oracle)
        if kernel is not None:
            try:
                played = _play(kernel, kernel.feed, version, sizes, machine,
                               seed, passes)
            except UnsupportedTrace as exc:
                _degrade("unsupported-trace", str(exc))
        if played is None:
            ran = "python"
            played = _play(oracle, _python_feed(oracle), version, sizes,
                           machine, seed, passes)
        stats, trace_s, hierarchy_s = played
        sp.set(
            iterations=iterations,
            accesses=stats.accesses,
            hierarchy=ran,
            trace_s=round(trace_s, 6),
            hierarchy_s=round(hierarchy_s, 6),
        )

    metrics = obs.get_metrics()
    metrics.counter("simulate.runs").inc()
    metrics.counter(f"simulate.hierarchy.{ran}").inc()
    metrics.counter("simulate.iterations").inc(iterations)
    stats.record(metrics, prefix="machine")

    ctx = code.make_context(sizes, seed)
    bounds = code.bounds(sizes)
    q0 = tuple(lo for lo, _ in bounds)
    loads = len(code.source_distances) + len(code.extra_read_offsets(q0, ctx))
    compute: IterationCost = machine.cost.iteration_cost(
        flops=code.flops,
        int_ops=code.int_ops,
        branches=code.branches,
        loads=loads,
        stores=1,
        address_ops=version.address_ops(sizes),
    )
    stall_per_iter = stats.stall_cycles / iterations
    compute_total = compute.total
    if version.tiled:
        compute_total += machine.cost.tile_overhead_cycles
    return SimResult(
        version_key=version.key,
        machine=machine.name,
        sizes=dict(sizes),
        iterations=iterations,
        cycles_per_iteration=compute_total + stall_per_iter,
        compute_cycles=compute_total,
        stall_cycles_per_iteration=stall_per_iter,
        stats=stats,
        storage_elements=version.storage(sizes),
    )


def _degrade(reason: str, detail: str) -> None:
    record_degradation(
        "execution.simulate",
        Degradation(reason=reason, detail=detail, fallback="python-hierarchy"),
    )


def _kernel_for(oracle) -> KernelHierarchy | None:
    """A kernel twin of ``oracle``, or None (degradation recorded)."""
    try:
        return KernelHierarchy(load_kernel(), oracle)
    except KernelUnavailable as exc:
        _degrade(exc.reason, exc.detail)
        return None


def _python_feed(hierarchy):
    access = hierarchy.access_line

    def feed(block) -> None:
        for line in block.tolist():
            access(line)

    return feed


def _play(hierarchy, feed, version, sizes, machine, seed, passes):
    """Feed ``passes`` traces through ``hierarchy``, block by block.

    Returns ``(stats, trace_s, hierarchy_s)``: only the last pass's
    stalls count, and the wall time splits into making blocks and
    feeding them.
    """
    trace_s = hierarchy_s = 0.0
    before = 0
    for done in range(passes):
        if done == passes - 1:
            before = hierarchy.stall_cycles
        t0 = time.perf_counter()
        for block in line_blocks(
            version, sizes, machine.l1.line_bytes, seed=seed
        ):
            t1 = time.perf_counter()
            feed(block)
            t2 = time.perf_counter()
            trace_s += t1 - t0
            hierarchy_s += t2 - t1
            t0 = t2
        trace_s += time.perf_counter() - t0
    stats = hierarchy.stats()
    stats = replace(stats, stall_cycles=stats.stall_cycles - before)
    return stats, trace_s, hierarchy_s
