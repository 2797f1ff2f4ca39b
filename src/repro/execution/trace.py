"""Cache-line address traces for code versions.

Lays out the version's memory objects in a flat byte address space —

    [ temporary-storage buffer | loop-input buffer | tables/strings ]

with each region page-aligned — then walks the schedule emitting, per
iteration: one load per stencil source (from the storage buffer, or from
the input region when the producer is outside the ISG), the code's extra
reads (weight table, string characters), and one store through the
mapping.  Addresses are divided down to line granularity immediately;
``collapse=True`` additionally merges *consecutive identical* lines, which
is exact for every LRU level (a repeated line can neither miss nor change
any LRU order beyond its first access) and shrinks unit-stride stencil
traces several-fold before they reach the simulator.

Two paths produce the same sequence.  The *array path*
(:func:`line_blocks`) builds each block of up to :data:`BLOCK_POINTS`
iteration points from geometry and integer arithmetic alone, and yields
int64 arrays:

- the points come from ``Schedule.order_blocks``, which the shipped
  schedule families compute from their loop and tile geometry (a trace
  needs the order only, not the vectorized engine's dependence-free
  ``batches``);
- every reference's address comes from one decomposition of the storage
  mapping, ``a.q + c + sum_j k_j*((b_j.q + e_j) mod g_j``)
  (:func:`~repro.mapping.expr.affine_mod_form`), evaluated once per
  block — a source at distance ``d`` is the same terms shifted by the
  constants ``a.d`` and ``b_j.d``;
- a producer ``q - d`` can leave the box only through the non-zero
  components of ``d``, so the few rows that read the input region are
  found by index and overwritten from the code's ``input_offsets_batch``
  (both steps through :mod:`repro.execution.gather`, as in the
  vectorized engine).

The *scalar walk* visits one point at a time through ``order`` and the
compiled mapping; it is the oracle the array path is tested against,
and the only path for codes without batch address hooks or mappings
without the decomposed form.  :func:`line_trace` yields Python ints from
either.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

import numpy as np

from repro.codes.base import CodeVersion, Context
from repro.execution.gather import AddressForm, Exits, mapping_form
from repro.mapping.expr import AffineModForm

__all__ = [
    "BLOCK_POINTS",
    "TraceLayout",
    "line_blocks",
    "line_trace",
    "trace_length",
]

ELEMENT_BYTES = 8
_PAGE_ALIGN = 1 << 16

#: Iteration points per array-path block.  Large enough that NumPy's
#: per-call overhead vanishes, small enough that a block's address
#: matrix stays in cache and a simulation's peak memory stays flat.
BLOCK_POINTS = 8192


@dataclass(frozen=True)
class TraceLayout:
    """Base byte addresses of the version's memory regions."""

    storage_base: int
    input_base: int
    table_base: int

    @staticmethod
    def for_version(
        version: CodeVersion, sizes: Mapping[str, int]
    ) -> "TraceLayout":
        storage_bytes = version.mapping(sizes).size * ELEMENT_BYTES
        storage_base = 0
        # Region bases are staggered off the alignment boundary: three
        # heap blocks never share the same cache-set phase in practice,
        # and keeping them boundary-aligned here would make every region
        # collide in set 0 of a direct-mapped cache — a layout artifact,
        # not a property of the codes.
        input_base = _align(storage_base + storage_bytes) + 7 * 32
        # The input region is comfortably bounded by the natural extent of
        # the code's border; a generous page-aligned gap suffices for
        # layout purposes (regions never alias).
        input_bytes = 4 * _PAGE_ALIGN
        table_base = _align(input_base + input_bytes) + 21 * 32
        return TraceLayout(storage_base, input_base, table_base)


def _align(addr: int) -> int:
    return (addr + _PAGE_ALIGN - 1) // _PAGE_ALIGN * _PAGE_ALIGN


def line_trace(
    version: CodeVersion,
    sizes: Mapping[str, int],
    line_bytes: int,
    seed: int = 0,
    collapse: bool = True,
    ctx: Context | None = None,
    batched: Optional[bool] = None,
) -> Iterator[int]:
    """Yield the line-granular address trace of one full run.

    A flattening wrapper over the array path of :func:`line_blocks` when
    the version has one (batch address hooks on the code, the affine-mod
    form on the mapping); the emitted sequence is the scalar walk's
    either way (the trace tests assert it).  ``batched``
    forces the array path on (``True``, raising if unavailable), off
    (``False``, the scalar walk), or picks automatically (``None``).
    """
    if ctx is None:
        ctx = version.code.make_context(sizes, seed)
    if batched is not False:
        form = _array_form(version, sizes, ctx)
        if form is not None:
            for block in _array_blocks(
                version, sizes, line_bytes, collapse, ctx, form
            ):
                yield from block.tolist()
            return
        if batched is True:
            raise ValueError(
                f"no batched trace path for {version} (code "
                f"{version.code.name} has no batch address hooks, or its "
                f"mapping no affine-mod form)"
            )
    yield from _scalar_walk(version, sizes, line_bytes, collapse, ctx)


def line_blocks(
    version: CodeVersion,
    sizes: Mapping[str, int],
    line_bytes: int,
    seed: int = 0,
    collapse: bool = True,
    ctx: Context | None = None,
) -> Iterator[np.ndarray]:
    """The trace of :func:`line_trace`, as consecutive int64 arrays.

    Concatenating the blocks gives exactly ``list(line_trace(...))``;
    collapsing carries the last line over block boundaries.  Codes
    without batch address hooks, and mappings without the affine-mod
    form, get the scalar walk, chunked.
    """
    if ctx is None:
        ctx = version.code.make_context(sizes, seed)
    form = _array_form(version, sizes, ctx)
    if form is not None:
        return _array_blocks(version, sizes, line_bytes, collapse, ctx, form)
    return _chunked(
        _scalar_walk(version, sizes, line_bytes, collapse, ctx)
    )


def _array_form(version, sizes, ctx) -> Optional[AffineModForm]:
    """The mapping's affine-mod form when the array path can trace this
    version, else ``None``: the code must compute a block's input and
    extra-read offsets at once, and the mapping must decompose."""
    code = version.code
    if code.input_offsets_batch is None:
        return None
    q0 = tuple(lo for lo, _ in code.bounds(sizes))
    if (
        code.extra_read_offsets(q0, ctx)
        and code.extra_read_offsets_batch is None
    ):
        return None
    return mapping_form(version.mapping(sizes))


def _chunked(lines: Iterator[int]) -> Iterator[np.ndarray]:
    while True:
        block = np.fromiter(
            itertools.islice(lines, BLOCK_POINTS), dtype=np.int64
        )
        if not block.size:
            return
        yield block


def _scalar_walk(version, sizes, line_bytes, collapse, ctx) -> Iterator[int]:
    """The trace one iteration point at a time: the oracle."""
    code = version.code
    layout = TraceLayout.for_version(version, sizes)
    bounds = code.bounds(sizes)
    mapping_fn = version.mapping(sizes).compiled()
    distances = code.source_distances
    input_offset = code.input_offset
    extra_reads = code.extra_read_offsets
    dim = len(bounds)
    lows = tuple(lo for lo, _ in bounds)
    highs = tuple(hi for _, hi in bounds)
    sbase, ibase, tbase = layout.storage_base, layout.input_base, layout.table_base

    last = -1
    for q in version.schedule(sizes).order(bounds):
        # source loads
        for d in distances:
            p = tuple(q[k] - d[k] for k in range(dim))
            if all(lo <= c <= hi for lo, c, hi in zip(lows, p, highs)):
                addr = sbase + ELEMENT_BYTES * mapping_fn(*p)
            else:
                addr = ibase + ELEMENT_BYTES * input_offset(p, sizes)
            line = addr // line_bytes
            if not collapse or line != last:
                yield line
                last = line
        for offset in extra_reads(q, ctx):
            line = (tbase + ELEMENT_BYTES * offset) // line_bytes
            if not collapse or line != last:
                yield line
                last = line
        # store
        line = (sbase + ELEMENT_BYTES * mapping_fn(*q)) // line_bytes
        if not collapse or line != last:
            yield line
            last = line


def _array_blocks(
    version, sizes, line_bytes, collapse, ctx, form
) -> Iterator[np.ndarray]:
    """Array twin of the scalar walk: same line sequence, block math.

    Builds one ``(points, refs-per-iteration)`` address matrix per block
    — source-load columns, extra-read columns, store column — so that
    row-major flattening reproduces the scalar per-point emission order
    exactly, then collapses consecutive duplicate lines across the whole
    stream (carrying the last line over block boundaries).
    """
    code = version.code
    layout = TraceLayout.for_version(version, sizes)
    bounds = code.bounds(sizes)
    distances = code.source_distances
    lows = tuple(lo for lo, _ in bounds)
    n_extras = len(code.extra_read_offsets(lows, ctx))
    refs = len(distances) + n_extras + 1
    here = (0,) * len(bounds)
    storage = AddressForm(
        form, (*distances, here), ELEMENT_BYTES, layout.storage_base
    )
    ibase, tbase = layout.input_base, layout.table_base

    last = -1
    for points in version.schedule(sizes).order_blocks(bounds, BLOCK_POINTS):
        n = points.shape[0]
        cols = tuple(points[:, k] for k in range(points.shape[1]))
        fill = storage.evaluator(cols)
        leaves = Exits(cols, bounds)
        addrs = np.empty((n, refs), dtype=np.int64)
        for col, d in enumerate(distances):
            fill(d, out=addrs[:, col])
            outside = leaves(d)
            if outside is None:
                continue
            rows = np.flatnonzero(outside)
            if rows.size:
                producers = tuple(c[rows] - dk for c, dk in zip(cols, d))
                addrs[rows, col] = ibase + ELEMENT_BYTES * np.asarray(
                    code.input_offsets_batch(producers, sizes)
                )
        if n_extras:
            offs = np.asarray(code.extra_read_offsets_batch(cols, ctx))
            addrs[:, len(distances) : len(distances) + n_extras] = (
                tbase + ELEMENT_BYTES * offs
            )
        fill(here, out=addrs[:, -1])

        lines = np.floor_divide(addrs, line_bytes, out=addrs).reshape(-1)
        if collapse:
            keep = np.empty(lines.size, dtype=bool)
            keep[0] = lines[0] != last
            np.not_equal(lines[1:], lines[:-1], out=keep[1:])
            lines = np.compress(keep, lines)
            if lines.size:
                last = int(lines[-1])
        yield lines


def trace_length(
    version: CodeVersion, sizes: Mapping[str, int]
) -> int:
    """Accesses per run *before* collapsing (loads + extras + one store)."""
    code = version.code
    ctx = code.make_context(sizes, 0)
    per_iter = len(code.source_distances) + 1
    # Extra reads are uniform per iteration for our codes; sample one point.
    bounds = code.bounds(sizes)
    q0 = tuple(lo for lo, _ in bounds)
    per_iter += len(code.extra_read_offsets(q0, ctx))
    return per_iter * code.iteration_count(sizes)
