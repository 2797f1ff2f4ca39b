"""The memory hierarchy in C: ``MemoryHierarchy.access_line``, per block.

:func:`repro.execution.simulator.simulate` plays int64 blocks of line
numbers (:func:`repro.execution.trace.line_blocks`) through a small C
kernel instead of calling the Python hierarchy once per access.  The
kernel keeps the same state and the same counters as
:class:`~repro.machine.hierarchy.MemoryHierarchy`, which stays as its
oracle and as the path on machines without a compiler:

- set-associative true-LRU L1 and L2 (each set's keys most recent
  first, moved to the front in one pass that stops at the hit; the
  shipped machines have at most 4 ways and 64 TLB entries);
- a fully-associative LRU TLB over page numbers;
- the resident-page LRU with its first-touch (minor fault), refault and
  writeback stalls, in page-indexed arrays that grow on demand.

The C source is only that hot loop.  :class:`KernelHierarchy` owns every
byte it touches: the set keys and fills and the page arrays are NumPy
arrays, the counters live in a ctypes mirror of the C struct (its size
checked against the kernel's ``hier_size`` at load), Python grows the
page arrays, and a block the kernel cannot play is refused before any C
runs.  The kernel allocates nothing and includes no ``stdlib.h``.

The contract is exactness: after the same accesses, :meth:`
KernelHierarchy.stats` equals the oracle's ``stats()`` field for field,
``minor_faults`` equals its ``minor_faults``, and every set, the TLB
and the resident-page list hold the oracle's keys in the oracle's order
(``tests/native/test_hierarchy_kernel.py`` checks every code × version
on full, scaled and memory-starved machines).  State persists across
blocks.  Stall sums are int64.  A block holding a negative line number
(C's ``/`` and ``%`` truncate where Python's floor) or a page number of
:data:`MAX_PAGES` or more is refused with :class:`UnsupportedTrace` and
the state untouched, and the caller falls back to the oracle.

The C source lives in this ``.py`` file on purpose: the engine
fingerprint (:mod:`repro.store.fingerprint`) hashes ``*.py`` only, so a
kernel edit invalidates cached simulation results.  It is compiled on
first use, never at import, through :mod:`repro.codegen.build`
(toolchain discovery, fingerprint, self-healing ``.so`` cache), and the
loaded library is memoised per process and per toolchain fingerprint.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.machine.hierarchy import AccessStats, MemoryHierarchy

__all__ = [
    "KERNEL_SOURCE",
    "MAX_PAGES",
    "KernelHierarchy",
    "UnsupportedTrace",
    "load_kernel",
    "reset_kernel_cache",
]

KERNEL_SOURCE = r"""
#include <stdint.h>

enum { UNTOUCHED = 0, RESIDENT = 1, EVICTED = 2 };

/* `sets` sets of at most `ways` keys each, most recent first. */
typedef struct {
    int64_t sets, ways, mask; /* mask = sets - 1 if sets is a power of 2 */
    int64_t *keys;            /* sets * ways */
    int64_t *fill;            /* keys in use, per set */
    int64_t misses;
} lru_t;

typedef struct {
    lru_t l1, l2, tlb;
    int64_t lines_per_page, page_shift; /* page_shift = -1 unless 2^k */
    int64_t memory_pages;
    int64_t l2_stall, memory_stall, tlb_stall;
    int64_t fault_stall, minor_fault_stall, writeback_stall;
    int64_t accesses, page_faults, minor_faults, writebacks, stall_cycles;
    /* Resident pages: a list through prev/next, most recent at head. */
    int64_t *prev, *next;
    unsigned char *state;
    int64_t head, tail, resident;
} hier_t;

int64_t hier_size(void) { return sizeof(hier_t); }

/* Touch `key`; 1 on a hit.  One pass, most recent first: `key` goes in
   front and each key it passes moves one slot down, up to the hit's
   slot.  On a miss the last key carried fills the free slot, or drops
   out of a full set as its least recent key. */
static inline int lru_access(lru_t *c, int64_t key) {
    int64_t set = c->mask >= 0 ? (key & c->mask) : key % c->sets;
    int64_t *k = c->keys + set * c->ways;
    int64_t n = c->fill[set], i, carry = key, seen;
    for (i = 0; i < n; i++) {
        seen = k[i];
        k[i] = carry;
        if (seen == key) return 1;
        carry = seen;
    }
    c->misses++;
    if (n < c->ways) {
        k[n] = carry;
        c->fill[set] = n + 1;
    }
    return 0;
}

static void page_unlink(hier_t *h, int64_t p) {
    int64_t a = h->prev[p], b = h->next[p];
    if (a >= 0) h->next[a] = b; else h->head = b;
    if (b >= 0) h->prev[b] = a; else h->tail = a;
}

static void page_push(hier_t *h, int64_t p) {
    h->prev[p] = -1;
    h->next[p] = h->head;
    if (h->head >= 0) h->prev[h->head] = p; else h->tail = p;
    h->head = p;
}

/* Stall of bringing `page` in after an L2 miss (the memory stall
   itself is the caller's). */
static int64_t page_in(hier_t *h, int64_t page) {
    int64_t stall;
    if (h->state[page] == RESIDENT) {
        if (h->head != page) {
            page_unlink(h, page);
            page_push(h, page);
        }
        return 0;
    }
    if (h->state[page] == EVICTED) {
        h->page_faults++;
        stall = h->fault_stall;
    } else {
        h->minor_faults++;
        stall = h->minor_fault_stall;
    }
    if (h->resident >= h->memory_pages) {
        int64_t victim = h->tail;
        page_unlink(h, victim);
        h->state[victim] = EVICTED;
        h->resident--;
        h->writebacks++;
        stall += h->writeback_stall;
    }
    page_push(h, page);
    h->state[page] = RESIDENT;
    h->resident++;
    return stall;
}

/* Play n lines: each non-negative, its page inside the page arrays. */
void hier_feed(hier_t *h, const int64_t *lines, int64_t n) {
    int64_t i, line, page, stall;
    for (i = 0; i < n; i++) {
        line = lines[i];
        page = h->page_shift >= 0 ? line >> h->page_shift
                                  : line / h->lines_per_page;
        stall = 0;
        h->accesses++;
        if (!lru_access(&h->tlb, page)) stall += h->tlb_stall;
        if (!lru_access(&h->l1, line)) {
            if (lru_access(&h->l2, line))
                stall += h->l2_stall;
            else
                stall += h->memory_stall + page_in(h, page);
        }
        h->stall_cycles += stall;
    }
}
"""

#: Page numbers the page arrays grow to hold (``1 << 26`` pages is 1.1
#: GiB of arrays); a block reaching beyond is refused.
MAX_PAGES = 1 << 26

#: Page arrays start at this many pages and double from there.
_FIRST_PAGES = 1024


class UnsupportedTrace(ValueError):
    """A block the kernel refuses (negative line, or a page number too
    large for its page arrays); the oracle handles any trace."""


class _Lru(ctypes.Structure):
    _fields_ = [
        ("sets", ctypes.c_int64),
        ("ways", ctypes.c_int64),
        ("mask", ctypes.c_int64),
        ("keys", ctypes.c_void_p),
        ("fill", ctypes.c_void_p),
        ("misses", ctypes.c_int64),
    ]


class _State(ctypes.Structure):
    """The C ``hier_t``, field for field."""

    _fields_ = [
        ("l1", _Lru),
        ("l2", _Lru),
        ("tlb", _Lru),
        *(
            (name, ctypes.c_int64)
            for name in (
                "lines_per_page", "page_shift", "memory_pages",
                "l2_stall", "memory_stall", "tlb_stall",
                "fault_stall", "minor_fault_stall", "writeback_stall",
                "accesses", "page_faults", "minor_faults", "writebacks",
                "stall_cycles",
            )
        ),
        ("prev", ctypes.c_void_p),
        ("next", ctypes.c_void_p),
        ("state", ctypes.c_void_p),
        ("head", ctypes.c_int64),
        ("tail", ctypes.c_int64),
        ("resident", ctypes.c_int64),
    ]


#: Toolchain fingerprint → loaded library, or the failure to replay.
_LOADED: dict[str, object] = {}


def reset_kernel_cache() -> None:
    """Forget every loaded (or failed) kernel (tests move the cache)."""
    _LOADED.clear()


def load_kernel() -> ctypes.CDLL:
    """The compiled kernel for the current toolchain.

    Compiles on first use into the shared ``.so`` cache through
    :func:`repro.codegen.build.load_library` (an object that fails to
    load is quarantined and rebuilt once).  Raises
    :class:`~repro.codegen.build.NativeUnavailable`; success and failure
    are both memoised per toolchain fingerprint, so flipping
    ``REPRO_CC`` (and resetting the toolchain probe) is seen at once and
    a failed compile is not retried on every simulation.
    """
    from repro.codegen.build import (
        NativeUnavailable,
        discover_toolchain,
        load_library,
    )

    toolchain = discover_toolchain()
    key = toolchain.fingerprint if toolchain is not None else "none"
    if key not in _LOADED:
        try:
            _LOADED[key] = load_library(
                KERNEL_SOURCE, _bind, label="hierarchy-kernel"
            )
        except NativeUnavailable as exc:
            _LOADED[key] = exc
    found = _LOADED[key]
    if isinstance(found, NativeUnavailable):
        raise found
    return found  # type: ignore[return-value]


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Set the kernel's signatures; a struct the mirror does not match
    fails the load (``load-failed``), as a missing symbol would."""
    from repro.codegen.build import NativeUnavailable

    lib.hier_size.restype = ctypes.c_int64
    lib.hier_size.argtypes = []
    lib.hier_feed.restype = None
    lib.hier_feed.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
    if lib.hier_size() != ctypes.sizeof(_State):
        raise NativeUnavailable(
            "load-failed",
            f"hierarchy kernel: hier_t is {lib.hier_size()} bytes, its "
            f"ctypes mirror {ctypes.sizeof(_State)}",
        )
    return lib


class KernelHierarchy:
    """The state and counters of ``hierarchy``, played by the C kernel.

    Starts empty, like the fresh ``hierarchy`` it copies its geometry
    and stalls from (which it never touches).  :meth:`feed` plays a
    block of line numbers; :meth:`stats`, :attr:`stall_cycles` and
    :attr:`minor_faults` then read as the oracle's would after the
    same accesses.  The state is NumPy arrays this object owns: per
    level ``(sets, ways)`` keys, most recent first, and per-set fills;
    per page ``prev``/``next`` links and a state byte.
    """

    def __init__(self, lib: ctypes.CDLL, hierarchy: MemoryHierarchy):
        self._hier_feed = lib.hier_feed
        s = self._state = _State()
        self._address = ctypes.addressof(s)
        self._keys: dict[str, np.ndarray] = {}
        self._fill: dict[str, np.ndarray] = {}
        for name, sets, ways in (
            ("l1", hierarchy.l1.num_sets, hierarchy.l1.associativity),
            ("l2", hierarchy.l2.num_sets, hierarchy.l2.associativity),
            ("tlb", 1, hierarchy.tlb.entries),
        ):
            keys = self._keys[name] = np.zeros((sets, ways), dtype=np.int64)
            fill = self._fill[name] = np.zeros(sets, dtype=np.int64)
            level = getattr(s, name)
            level.sets, level.ways = sets, ways
            level.mask = sets - 1 if sets & (sets - 1) == 0 else -1
            level.keys, level.fill = keys.ctypes.data, fill.ctypes.data
        per_page = hierarchy.page_bytes // hierarchy.line_bytes
        self._lines_per_page = per_page
        s.lines_per_page = per_page
        s.page_shift = (
            per_page.bit_length() - 1 if per_page & (per_page - 1) == 0 else -1
        )
        s.memory_pages = hierarchy.memory_pages
        s.l2_stall = hierarchy.l2_stall
        s.memory_stall = hierarchy.memory_stall
        s.tlb_stall = hierarchy.tlb_stall
        s.fault_stall = hierarchy.fault_stall
        s.minor_fault_stall = hierarchy.minor_fault_stall
        s.writeback_stall = hierarchy.writeback_stall
        s.head = s.tail = -1
        self._prev = np.empty(0, dtype=np.int64)
        self._next = np.empty(0, dtype=np.int64)
        self._page_state = np.empty(0, dtype=np.uint8)

    def feed(self, lines: np.ndarray) -> None:
        """Play one block of line numbers through the hierarchy."""
        block = np.ascontiguousarray(lines, dtype=np.int64)
        if block.size:
            if block.min() < 0:
                raise UnsupportedTrace("negative line number in the trace")
            top = int(block.max()) // self._lines_per_page
            if top >= self._page_state.size:
                self._grow_pages(top)
        self._hier_feed(self._address, block.ctypes.data, block.size)

    def _grow_pages(self, page: int) -> None:
        """Page arrays that hold ``page``, doubled from the current size;
        raises :class:`UnsupportedTrace` with the state untouched."""
        if page >= MAX_PAGES:
            raise UnsupportedTrace(
                f"page {page} beyond the kernel's {MAX_PAGES} page arrays"
            )
        pages = max(self._page_state.size, _FIRST_PAGES)
        while pages <= page:
            pages *= 2
        try:
            prev = np.empty(pages, dtype=np.int64)
            next_ = np.empty(pages, dtype=np.int64)
            state = np.zeros(pages, dtype=np.uint8)  # 0 is UNTOUCHED
        except MemoryError as exc:
            raise UnsupportedTrace(
                f"out of memory for {pages} pages of page arrays"
            ) from exc
        old = self._page_state.size
        prev[:old], next_[:old], state[:old] = (
            self._prev, self._next, self._page_state
        )
        self._prev, self._next, self._page_state = prev, next_, state
        s = self._state
        s.prev, s.next = prev.ctypes.data, next_.ctypes.data
        s.state = state.ctypes.data

    def stats(self) -> AccessStats:
        s = self._state
        return AccessStats(
            accesses=s.accesses,
            l1_misses=s.l1.misses,
            l2_misses=s.l2.misses,
            tlb_misses=s.tlb.misses,
            page_faults=s.page_faults,
            writebacks=s.writebacks,
            stall_cycles=s.stall_cycles,
        )

    @property
    def stall_cycles(self) -> int:
        return self._state.stall_cycles

    @property
    def minor_faults(self) -> int:
        return self._state.minor_faults
