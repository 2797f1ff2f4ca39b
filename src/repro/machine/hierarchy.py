"""The full memory hierarchy: L1, L2, TLB, main memory with paging.

``access(byte_address)`` returns the *stall* cycles the access costs beyond
the pipelined L1 hit (whose cost belongs to the compute side of the model):

- L1 hit: 0
- L1 miss, L2 hit: ``l2_stall``
- L2 miss: ``memory_stall`` — plus, if the page is not resident in the
  fixed-capacity page store: ``minor_fault_stall`` the first time a page
  is ever touched (allocation / zero-fill, cheap), or ``fault_stall``
  when a previously-resident page was evicted and must come back from
  disk.  Whenever bringing a page in evicts another page, the eviction
  additionally pays ``writeback_stall`` (dirty pages must be written to
  disk first — all pages of our temporaries are written).  This pair is
  the "falls out of memory" cliff of Section 5.2: a working set that
  exceeds memory thrashes on refetches, and even a pure *streaming*
  allocation larger than memory (the natural versions) pays a disk write
  per fresh page.
- TLB miss adds ``tlb_stall`` on top of whatever else happened.

This class is the *oracle*: flat, dictionary-based Python, exact LRU at
every level, no sampling.  :func:`repro.execution.simulator.simulate`
normally runs its C twin, :mod:`repro.machine.hierarchy_kernel`, which
must match it counter for counter; this class runs there only when the
kernel cannot be built or refuses a trace (and it is what tests, the
reuse profiler and the benchmark's per-layer pass drive directly).  Experiments still use the
*scaled* machine configs (caches, TLB reach, and memory shrunk together
so the knees appear at simulation-sized problems — see
:mod:`repro.machine.configs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.machine.cache import Cache
from repro.machine.tlb import TLB

__all__ = ["MemoryHierarchy", "AccessStats"]


@dataclass
class AccessStats:
    """Aggregate counters after a simulation run."""

    accesses: int = 0
    l1_misses: int = 0
    l2_misses: int = 0
    tlb_misses: int = 0
    page_faults: int = 0
    writebacks: int = 0
    stall_cycles: int = 0

    def record(self, metrics, prefix: str = "machine") -> None:
        """Fold these counters into an obs metrics registry.

        Every simulation (and the experiment harness, for results that
        came back from worker processes or the cache) publishes its
        :class:`AccessStats` through the same registry, so ``--profile``
        shows the aggregate memory-system behaviour of a whole run.
        """
        for name, value in (
            ("accesses", self.accesses),
            ("l1_misses", self.l1_misses),
            ("l2_misses", self.l2_misses),
            ("tlb_misses", self.tlb_misses),
            ("page_faults", self.page_faults),
            ("writebacks", self.writebacks),
            ("stall_cycles", self.stall_cycles),
        ):
            metrics.counter(f"{prefix}.{name}").inc(value)


class MemoryHierarchy:
    """L1 + L2 + TLB + paged main memory."""

    def __init__(
        self,
        l1: Cache,
        l2: Cache,
        tlb: TLB,
        memory_bytes: int,
        l2_stall: int,
        memory_stall: int,
        tlb_stall: int,
        fault_stall: int,
        minor_fault_stall: int = 0,
        writeback_stall: int | None = None,
    ):
        if l2.line_bytes != l1.line_bytes:
            raise ValueError(
                "mixed line sizes between levels are not supported"
            )
        self.l1 = l1
        self.l2 = l2
        self.tlb = tlb
        self.line_bytes = l1.line_bytes
        self.page_bytes = tlb.page_bytes
        if self.page_bytes % self.line_bytes:
            raise ValueError("page size must be a multiple of the line size")
        self._lines_per_page = self.page_bytes // self.line_bytes
        self.memory_pages = max(1, memory_bytes // self.page_bytes)
        self.l2_stall = l2_stall
        self.memory_stall = memory_stall
        self.tlb_stall = tlb_stall
        self.fault_stall = fault_stall
        self.minor_fault_stall = minor_fault_stall
        self.writeback_stall = (
            fault_stall // 2 if writeback_stall is None else writeback_stall
        )
        self._resident_pages: dict[int, None] = {}
        self._ever_touched: set[int] = set()
        self.page_faults = 0
        self.minor_faults = 0
        self.writebacks = 0
        self.stall_cycles = 0

    def reset(self) -> None:
        self.l1.reset()
        self.l2.reset()
        self.tlb.reset()
        self._resident_pages.clear()
        self._ever_touched.clear()
        self.page_faults = 0
        self.minor_faults = 0
        self.writebacks = 0
        self.stall_cycles = 0

    def access(self, byte_address: int) -> int:
        """Stall cycles for one access (see module docstring)."""
        line = byte_address // self.line_bytes
        return self.access_line(line)

    def access_line(self, line: int) -> int:
        """Stall cycles for a line-granular access."""
        stall = 0
        page = line // self._lines_per_page
        if not self.tlb.access(page):
            stall += self.tlb_stall
        if not self.l1.access(line):
            if self.l2.access(line):
                stall += self.l2_stall
            else:
                stall += self.memory_stall
                resident = self._resident_pages
                if page in resident:
                    del resident[page]
                    resident[page] = None
                else:
                    if page in self._ever_touched:
                        # The page was evicted under memory pressure and
                        # must come back from disk: the scaling cliff.
                        self.page_faults += 1
                        stall += self.fault_stall
                    else:
                        # First touch: allocation / zero-fill, cheap.
                        self._ever_touched.add(page)
                        self.minor_faults += 1
                        stall += self.minor_fault_stall
                    if len(resident) >= self.memory_pages:
                        resident.pop(next(iter(resident)))
                        self.writebacks += 1
                        stall += self.writeback_stall
                    resident[page] = None
        self.stall_cycles += stall
        return stall

    def run_line_trace(self, lines: Iterable[int]) -> AccessStats:
        """Feed a whole line-address trace; returns aggregate stats."""
        n = 0
        for line in lines:
            self.access_line(line)
            n += 1
        return self.stats(accesses=n)

    def stats(self, accesses: int | None = None) -> AccessStats:
        return AccessStats(
            accesses=self.l1.accesses if accesses is None else accesses,
            l1_misses=self.l1.misses,
            l2_misses=self.l2.misses,
            tlb_misses=self.tlb.misses,
            page_faults=self.page_faults,
            writebacks=self.writebacks,
            stall_cycles=self.stall_cycles,
        )

    def __repr__(self) -> str:
        return (
            f"MemoryHierarchy(l1={self.l1!r}, l2={self.l2!r}, "
            f"tlb={self.tlb!r}, memory={self.memory_pages} pages)"
        )
