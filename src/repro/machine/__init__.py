"""Memory-hierarchy and instruction-cost simulation.

The paper measures cycles per iteration on three 1998 machines (Pentium
Pro, Ultra 2, Alpha 21164).  We reproduce the measurement as

    cycles/iter = compute cycles (ALU + address arithmetic + branches)
                + memory stall cycles (cache / TLB / paging simulation)

with per-machine parameters in :mod:`repro.machine.configs`.  Absolute
numbers are approximations of 1998 hardware; the paper's claims are about
*shapes* — which version degrades at which problem size and who wins after
tiling — and those are determined by the cache capacities, the paging
cliff, and the branch-cost/memory-cost balance modelled here.

- :mod:`repro.machine.cache` — set-associative LRU cache.
- :mod:`repro.machine.tlb` — fully-associative LRU TLB.
- :mod:`repro.machine.hierarchy` — L1/L2/TLB/memory with a paging last
  level (the "falls out of memory" cliff).
- :mod:`repro.machine.hierarchy_kernel` — the same hierarchy in C, fed
  int64 blocks of line numbers; ``hierarchy`` is its oracle.
- :mod:`repro.machine.cost` — instruction cost model.
- :mod:`repro.machine.configs` — the three machines, full-size and scaled.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "Cache",
    "Stream",
    "predict_streaming_stalls",
    "TLB",
    "MemoryHierarchy",
    "AccessStats",
    "CostModel",
    "IterationCost",
    "MachineConfig",
    "PENTIUM_PRO",
    "ULTRA_2",
    "ALPHA_21164",
    "MACHINES",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.machine.analytic": ("Stream", "predict_streaming_stalls"),
        "repro.machine.cache": ("Cache",),
        "repro.machine.configs": (
            "ALPHA_21164",
            "MACHINES",
            "MachineConfig",
            "PENTIUM_PRO",
            "ULTRA_2",
        ),
        "repro.machine.cost": ("CostModel", "IterationCost"),
        "repro.machine.hierarchy": ("AccessStats", "MemoryHierarchy"),
        "repro.machine.tlb": ("TLB",),
    },
)
