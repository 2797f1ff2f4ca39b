"""Machine configurations: the paper's three platforms, full and scaled.

Parameters approximate the published microarchitectures:

- **Pentium Pro, 200 MHz** — 8 KB 2-way L1D, 256 KB 4-way L2, 64-entry
  TLB, ~60 ns memory; aggressive out-of-order core (wide effective issue,
  cheap mispredicted branches thanks to a good predictor — relatively:
  its deep pipeline still pays more per branch than it pays per ALU op).
- **Sun Ultra 2, 200 MHz** — 16 KB direct-mapped L1D, 1 MB L2, in-order
  4-issue UltraSPARC-II: data-dependent compare/branch ladders stall the
  pipeline, which the paper conjectures dominates PSM.
- **DEC Alpha 21164, 500 MHz** — 8 KB direct-mapped L1D, and (collapsing
  the 96 KB on-chip S-cache with the multi-megabyte off-chip board cache
  every 21164 shipped with) a 2 MB direct-mapped L2; in-order quad issue;
  memory stalls are many cycles at 500 MHz.

``scaled(factor)`` divides cache capacities, TLB reach, and main-memory
size by ``factor`` while keeping line size, page size, latencies, and the
cost model fixed.  Because every capacity shrinks together, the *order* of
the knees (L1, L2, TLB, paging) and the relative behaviour of the code
versions are preserved while exact simulation becomes affordable at
problem sizes an exact trace simulator can sweep.  The experiment harness
uses ``scaled(64)`` by default and records the factor next to every
result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.machine.cache import Cache
from repro.machine.cost import CostModel
from repro.machine.hierarchy import MemoryHierarchy
from repro.machine.tlb import TLB

__all__ = [
    "CacheGeometry",
    "MachineConfig",
    "PENTIUM_PRO",
    "ULTRA_2",
    "ALPHA_21164",
    "MACHINES",
]


@dataclass(frozen=True)
class CacheGeometry:
    size_bytes: int
    line_bytes: int
    associativity: int  # 0 = fully associative

    def build(self, name: str) -> Cache:
        return Cache(name, self.size_bytes, self.line_bytes, self.associativity)

    def shrunk(self, factor: int) -> "CacheGeometry":
        new_size = max(self.line_bytes * max(1, self.associativity), self.size_bytes // factor)
        return replace(self, size_bytes=new_size)


@dataclass(frozen=True)
class MachineConfig:
    """Everything the simulator needs to know about one machine."""

    name: str
    clock_mhz: int
    l1: CacheGeometry
    l2: CacheGeometry
    tlb_entries: int
    page_bytes: int
    memory_bytes: int
    l2_stall: int
    memory_stall: int
    tlb_stall: int
    fault_stall: int
    minor_fault_stall: int
    cost: CostModel
    scale_factor: int = 1

    def build_hierarchy(self) -> MemoryHierarchy:
        return MemoryHierarchy(
            l1=self.l1.build(f"{self.name}/L1"),
            l2=self.l2.build(f"{self.name}/L2"),
            tlb=TLB(f"{self.name}/TLB", self.tlb_entries, self.page_bytes),
            memory_bytes=self.memory_bytes,
            l2_stall=self.l2_stall,
            memory_stall=self.memory_stall,
            tlb_stall=self.tlb_stall,
            fault_stall=self.fault_stall,
            minor_fault_stall=self.minor_fault_stall,
        )

    def with_memory(self, memory_bytes: int) -> "MachineConfig":
        """The same machine with a different physical-memory size.

        The scaling experiments cap all three machines' memory at one
        value so each paging cliff lands inside the simulated sweep (the
        paper's figures simply extend each machine's x-axis until the
        real memory runs out; a trace simulator sweeps a fixed range
        instead)."""
        if memory_bytes < self.page_bytes * 4:
            raise ValueError("memory must hold at least a few pages")
        return replace(
            self,
            name=f"{self.name}/m{memory_bytes // (1024 * 1024)}M",
            memory_bytes=memory_bytes,
        )

    def scaled(self, factor: int) -> "MachineConfig":
        """Shrink every capacity by ``factor`` (latencies unchanged)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        if factor == 1:
            return self
        return replace(
            self,
            name=f"{self.name}/s{factor}",
            l1=self.l1.shrunk(factor),
            l2=self.l2.shrunk(factor),
            # TLB reach shrinks more gently than the caches: a handful of
            # entries would make every access a TLB miss and bury the cache
            # knees the experiments are after.
            tlb_entries=max(8, int(self.tlb_entries // factor**0.5)),
            memory_bytes=max(self.page_bytes * 4, self.memory_bytes // factor),
            scale_factor=self.scale_factor * factor,
        )


PENTIUM_PRO = MachineConfig(
    name="pentium-pro",
    clock_mhz=200,
    l1=CacheGeometry(8 * 1024, 32, 2),
    l2=CacheGeometry(256 * 1024, 32, 4),
    tlb_entries=64,
    page_bytes=4096,
    memory_bytes=64 * 1024 * 1024,
    l2_stall=7,
    memory_stall=36,  # ~180 ns at 200 MHz
    tlb_stall=25,
    fault_stall=2_000_000,  # ~10 ms at 200 MHz
    minor_fault_stall=600,  # zero-fill on first touch
    cost=CostModel(
        flop_cycles=2.0,
        int_op_cycles=1.0,
        add_cycles=1.0,
        mul_cycles=4.0,
        mod_cycles=25.0,
        load_issue_cycles=1.0,
        store_issue_cycles=1.0,
        branch_cycles=5.0,  # deep pipeline, but OoO + strong predictor
        base_iteration_cycles=4.0,
        issue_width=2.0,  # effective, out-of-order
        tile_overhead_cycles=1.5,
    ),
)

ULTRA_2 = MachineConfig(
    name="ultra-2",
    clock_mhz=200,
    l1=CacheGeometry(16 * 1024, 32, 1),
    l2=CacheGeometry(1024 * 1024, 32, 1),
    tlb_entries=64,
    page_bytes=8192,
    memory_bytes=256 * 1024 * 1024,
    l2_stall=7,
    memory_stall=40,  # ~200 ns at 200 MHz
    tlb_stall=30,
    fault_stall=2_000_000,
    minor_fault_stall=700,
    cost=CostModel(
        flop_cycles=1.5,
        int_op_cycles=1.0,
        add_cycles=1.0,
        mul_cycles=5.0,
        mod_cycles=30.0,
        load_issue_cycles=1.0,
        store_issue_cycles=1.0,
        branch_cycles=18.0,  # in-order: compare/branch ladders stall
        base_iteration_cycles=3.0,
        issue_width=2.0,  # effective, in-order 4-issue
        tile_overhead_cycles=4.0,
    ),
)

ALPHA_21164 = MachineConfig(
    name="alpha-21164",
    clock_mhz=500,
    l1=CacheGeometry(8 * 1024, 32, 1),
    l2=CacheGeometry(2 * 1024 * 1024, 32, 1),  # on-chip S-cache + Bcache
    tlb_entries=64,
    page_bytes=8192,
    memory_bytes=512 * 1024 * 1024,
    l2_stall=14,  # off-chip board cache
    memory_stall=90,  # ~180 ns at 500 MHz
    tlb_stall=40,
    fault_stall=5_000_000,
    minor_fault_stall=1500,
    cost=CostModel(
        flop_cycles=1.0,
        int_op_cycles=1.0,
        add_cycles=1.0,
        mul_cycles=4.0,
        mod_cycles=35.0,
        load_issue_cycles=1.0,
        store_issue_cycles=1.0,
        branch_cycles=14.0,  # in-order quad issue, branch-stall bound
        base_iteration_cycles=2.0,
        issue_width=2.5,
        tile_overhead_cycles=4.0,
    ),
)

#: The paper's three machines, in presentation order.
MACHINES: tuple[MachineConfig, ...] = (PENTIUM_PRO, ULTRA_2, ALPHA_21164)
