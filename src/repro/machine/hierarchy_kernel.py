"""The memory hierarchy in C: ``MemoryHierarchy.access_line``, per block.

:func:`repro.execution.simulator.simulate` plays int64 blocks of line
numbers (:func:`repro.execution.trace.line_blocks`) through a small C
kernel instead of calling the Python hierarchy once per access.  The
kernel keeps the same state and the same counters as
:class:`~repro.machine.hierarchy.MemoryHierarchy`, which stays as its
oracle and as the path on machines without a compiler:

- set-associative true-LRU L1 and L2 (each set's keys most recent
  first, so a lookup scans at most the associativity; the shipped
  machines have at most 4 ways and 64 TLB entries);
- a fully-associative LRU TLB over page numbers;
- the resident-page LRU with its first-touch (minor fault), refault and
  writeback stalls, in page-indexed arrays that grow on demand.

The contract is exactness: after the same accesses, :meth:`
KernelHierarchy.stats` equals the oracle's ``stats()`` field for field,
and ``minor_faults`` equals its ``minor_faults``
(``tests/native/test_hierarchy_kernel.py`` checks every code × version
on full, scaled and memory-starved machines).  State persists across
blocks.  Stall sums are int64.  The kernel refuses a block holding a
negative line number (C's ``/`` and ``%`` truncate where Python's
floor), leaving its state untouched, and the caller falls back to the
oracle.

The C source lives in this ``.py`` file on purpose: the engine
fingerprint (:mod:`repro.store.fingerprint`) hashes ``*.py`` only, so a
kernel edit invalidates cached simulation results.  It is compiled on
first use, never at import, through :mod:`repro.codegen.build`
(toolchain discovery, fingerprint, self-healing ``.so`` cache), and the
loaded library is memoised per process and per toolchain fingerprint.
"""

from __future__ import annotations

import ctypes
import weakref

import numpy as np

from repro.machine.hierarchy import AccessStats, MemoryHierarchy

__all__ = [
    "KERNEL_SOURCE",
    "KernelHierarchy",
    "UnsupportedTrace",
    "load_kernel",
    "reset_kernel_cache",
]

KERNEL_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Largest page number the page arrays grow to; beyond it the kernel
   refuses the block and the caller uses the Python hierarchy. */
#define MAX_PAGES ((int64_t)1 << 26)

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
    int64_t pages; /* length of prev, next and state */
    int64_t *prev, *next;
    unsigned char *state;
    int64_t head, tail, resident;
} hier_t;

static int lru_init(lru_t *c, int64_t sets, int64_t ways) {
    c->sets = sets;
    c->ways = ways;
    c->mask = (sets & (sets - 1)) == 0 ? sets - 1 : -1;
    c->misses = 0;
    c->keys = malloc((size_t)(sets * ways) * sizeof(int64_t));
    c->fill = calloc((size_t)sets, sizeof(int64_t));
    return c->keys != NULL && c->fill != NULL;
}

/* Touch `key`; 1 on a hit.  A miss inserts it as most recent, dropping
   the least recent key of a full set. */
static inline int lru_access(lru_t *c, int64_t key) {
    int64_t set = c->mask >= 0 ? (key & c->mask) : key % c->sets;
    int64_t *k = c->keys + set * c->ways;
    int64_t n = c->fill[set], i = 0;
    int hit;
    while (i < n && k[i] != key) i++;
    hit = i < n;
    if (!hit) {
        c->misses++;
        if (n < c->ways)
            c->fill[set] = n + 1;
        else
            i = n - 1;
    }
    for (; i > 0; i--) k[i] = k[i - 1];
    k[0] = key;
    return hit;
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

static inline void access_line(hier_t *h, int64_t line) {
    int64_t page = h->page_shift >= 0 ? line >> h->page_shift
                                      : line / h->lines_per_page;
    int64_t stall = 0;
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

/* Grow the page arrays to hold `page`; 0 on success. */
static int reserve_pages(hier_t *h, int64_t page) {
    int64_t want = h->pages ? h->pages : 1024;
    int64_t *prev, *next;
    unsigned char *state;
    if (page < h->pages) return 0;
    if (page >= MAX_PAGES) return -1;
    while (want <= page) want *= 2;
    prev = realloc(h->prev, (size_t)want * sizeof(int64_t));
    if (prev == NULL) return -1;
    h->prev = prev;
    next = realloc(h->next, (size_t)want * sizeof(int64_t));
    if (next == NULL) return -1;
    h->next = next;
    state = realloc(h->state, (size_t)want);
    if (state == NULL) return -1;
    h->state = state;
    memset(state + h->pages, UNTOUCHED, (size_t)(want - h->pages));
    h->pages = want;
    return 0;
}

void hier_free(hier_t *h) {
    if (h == NULL) return;
    free(h->l1.keys); free(h->l1.fill);
    free(h->l2.keys); free(h->l2.fill);
    free(h->tlb.keys); free(h->tlb.fill);
    free(h->prev); free(h->next); free(h->state);
    free(h);
}

/* p: l1 sets, l1 ways, l2 sets, l2 ways, tlb entries, lines per page,
   memory pages, then the l2, memory, tlb, fault, minor-fault and
   writeback stalls. */
hier_t *hier_new(const int64_t *p) {
    hier_t *h = calloc(1, sizeof(hier_t));
    int64_t shift = 0;
    if (h == NULL) return NULL;
    if (!lru_init(&h->l1, p[0], p[1]) || !lru_init(&h->l2, p[2], p[3])
        || !lru_init(&h->tlb, 1, p[4])) {
        hier_free(h);
        return NULL;
    }
    h->lines_per_page = p[5];
    while (((int64_t)1 << shift) < p[5]) shift++;
    h->page_shift = ((int64_t)1 << shift) == p[5] ? shift : -1;
    h->memory_pages = p[6];
    h->l2_stall = p[7];
    h->memory_stall = p[8];
    h->tlb_stall = p[9];
    h->fault_stall = p[10];
    h->minor_fault_stall = p[11];
    h->writeback_stall = p[12];
    h->head = h->tail = -1;
    return h;
}

/* Play n lines.  Returns 0, or -1 (a negative line) / -2 (a page
   beyond MAX_PAGES or out of memory) with the state untouched. */
int hier_feed(hier_t *h, const int64_t *lines, int64_t n) {
    int64_t i, top = 0;
    for (i = 0; i < n; i++) {
        if (lines[i] < 0) return -1;
        if (lines[i] > top) top = lines[i];
    }
    if (n > 0 && reserve_pages(h, top / h->lines_per_page) != 0) return -2;
    for (i = 0; i < n; i++) access_line(h, lines[i]);
    return 0;
}

/* accesses, l1/l2/tlb misses, page faults, writebacks, stall cycles,
   minor faults. */
void hier_stats(const hier_t *h, int64_t *out) {
    out[0] = h->accesses;
    out[1] = h->l1.misses;
    out[2] = h->l2.misses;
    out[3] = h->tlb.misses;
    out[4] = h->page_faults;
    out[5] = h->writebacks;
    out[6] = h->stall_cycles;
    out[7] = h->minor_faults;
}
"""


class UnsupportedTrace(ValueError):
    """A block the kernel refuses (negative line, or a page number too
    large for its page arrays); the oracle handles any trace."""


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
    void_p, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.hier_new.restype = void_p
    lib.hier_new.argtypes = [void_p]
    lib.hier_free.restype = None
    lib.hier_free.argtypes = [void_p]
    lib.hier_feed.restype = ctypes.c_int
    lib.hier_feed.argtypes = [void_p, void_p, i64]
    lib.hier_stats.restype = None
    lib.hier_stats.argtypes = [void_p, void_p]
    return lib


class KernelHierarchy:
    """The state and counters of ``hierarchy``, kept by the C kernel.

    Starts empty, like the fresh ``hierarchy`` it copies its geometry
    and stalls from (which it never touches).  :meth:`feed` plays a
    block of line numbers; :meth:`stats`, :attr:`stall_cycles` and
    :attr:`minor_faults` then read as the oracle's would after the
    same accesses.
    """

    def __init__(self, lib: ctypes.CDLL, hierarchy: MemoryHierarchy):
        params = np.array(
            [
                hierarchy.l1.num_sets,
                hierarchy.l1.associativity,
                hierarchy.l2.num_sets,
                hierarchy.l2.associativity,
                hierarchy.tlb.entries,
                hierarchy.page_bytes // hierarchy.line_bytes,
                hierarchy.memory_pages,
                hierarchy.l2_stall,
                hierarchy.memory_stall,
                hierarchy.tlb_stall,
                hierarchy.fault_stall,
                hierarchy.minor_fault_stall,
                hierarchy.writeback_stall,
            ],
            dtype=np.int64,
        )
        handle = lib.hier_new(params.ctypes.data)
        if not handle:
            raise MemoryError("hierarchy kernel: cannot allocate caches")
        self._lib = lib
        self._handle = handle
        weakref.finalize(self, lib.hier_free, handle)

    def feed(self, lines: np.ndarray) -> None:
        """Play one block of line numbers through the hierarchy."""
        block = np.ascontiguousarray(lines, dtype=np.int64)
        status = self._lib.hier_feed(
            self._handle, block.ctypes.data, block.size
        )
        if status == -1:
            raise UnsupportedTrace("negative line number in the trace")
        if status:
            raise UnsupportedTrace(
                "page number beyond the kernel's page arrays, or out of memory"
            )

    def _counters(self) -> np.ndarray:
        out = np.zeros(8, dtype=np.int64)
        self._lib.hier_stats(self._handle, out.ctypes.data)
        return out

    def stats(self) -> AccessStats:
        return AccessStats(*(int(v) for v in self._counters()[:7]))

    @property
    def stall_cycles(self) -> int:
        return int(self._counters()[6])

    @property
    def minor_faults(self) -> int:
        return int(self._counters()[7])
