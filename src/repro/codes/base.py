"""The Code / CodeVersion abstraction shared by all benchmark codes.

A :class:`Code` is one computation (the 5-point stencil, protein string
matching, ...) with:

- an IR :class:`~repro.ir.program.Program` for the analyses and the code
  generators;
- executable semantics (``combine``, boundary values, auxiliary tables)
  for the interpreter and the address tracer;
- per-iteration instruction costs for the machine model.

A :class:`CodeVersion` is one (storage mapping, schedule) pair over that
computation — "Natural", "OV-Mapped Interleaved Tiled", and so on, the
legend entries of Figures 7–14.  Every version is assembled by
:func:`repro.frontend.synth.build_version` from a registered mapping and
schedule, so its storage is always its mapping's allocated size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.core.stencil import Stencil
from repro.ir.program import Program
from repro.mapping.base import OpCounts, StorageMapping
from repro.schedule.base import Bounds, Schedule
from repro.util.vectors import IntVector

__all__ = ["Code", "CodeVersion", "Context"]

#: Per-run auxiliary state (input arrays, weight tables, strings).
Context = dict


@dataclass(frozen=True)
class Code:
    """One benchmark computation, independent of storage and schedule."""

    name: str
    program: Program
    stencil: Stencil
    #: Source distances in the order ``combine`` expects its values — may
    #: repeat or reorder the stencil's (sorted, deduplicated) vectors.
    source_distances: tuple[IntVector, ...]
    #: ``bounds(sizes)`` — the ISG box for concrete sizes.
    bounds: Callable[[Mapping[str, int]], tuple[tuple[int, int], ...]]
    #: ``make_context(sizes, seed)`` — inputs and tables for one run.
    make_context: Callable[[Mapping[str, int], int], Context]
    #: ``input_value(p, ctx)`` — value read when the producer ``p`` of a
    #: source lies outside the ISG (a loop input).
    input_value: Callable[[Sequence[int], Context], float]
    #: ``input_offset(p, sizes)`` — element offset of that input in the
    #: input buffer, for address tracing.
    input_offset: Callable[[Sequence[int], Mapping[str, int]], int]
    #: ``combine(values, q, ctx)`` — the statement's right-hand side.
    combine: Callable[[Sequence[float], IntVector, Context], float]
    #: ``extra_read_offsets(q, ctx)`` — element offsets (into the table
    #: region) of reads that are not stencil sources: weight tables,
    #: string characters.  Empty for pure stencils.
    extra_read_offsets: Callable[[IntVector, Context], tuple[int, ...]] = (
        lambda q, ctx: ()
    )
    #: ``output_points(sizes)`` — the iterations whose values are live-out;
    #: the cross-version verifier compares exactly these.
    output_points: Callable[
        [Mapping[str, int]], list[IntVector]
    ] = lambda sizes: []
    # --- batched semantics ------------------------------------------------
    # The vectorized engine and the batched address tracer evaluate whole
    # dependence-free wavefronts at once.  Each batched callable is the
    # exact NumPy transliteration of its scalar counterpart above — same
    # values, same floating-point operation order per element, so scalar
    # and batched execution agree bit for bit.  Points arrive as a tuple
    # of per-dimension int64 coordinate arrays.  All four are optional:
    # a code without them simply falls back to scalar execution.
    #: ``combine_batch(values, q, ctx)`` — ``values`` is one float64 array
    #: per source distance, ``q`` a tuple of coordinate arrays; returns
    #: the float64 result array.
    combine_batch: Optional[
        Callable[
            [Sequence[np.ndarray], tuple[np.ndarray, ...], Context],
            np.ndarray,
        ]
    ] = None
    #: ``input_values_batch(p, ctx)`` — out-of-ISG producer values for a
    #: tuple of coordinate arrays ``p``.
    input_values_batch: Optional[
        Callable[[tuple[np.ndarray, ...], Context], np.ndarray]
    ] = None
    #: ``input_offsets_batch(p, sizes)`` — input-buffer element offsets
    #: for a tuple of coordinate arrays ``p`` (the batched tracer's
    #: counterpart of ``input_offset``).
    input_offsets_batch: Optional[
        Callable[[tuple[np.ndarray, ...], Mapping[str, int]], np.ndarray]
    ] = None
    #: ``extra_read_offsets_batch(q, ctx)`` — an ``(n, E)`` array of
    #: table-region offsets, columns in ``extra_read_offsets`` order.
    extra_read_offsets_batch: Optional[
        Callable[[tuple[np.ndarray, ...], Context], np.ndarray]
    ] = None
    # Per-iteration instruction costs for the machine model.
    flops: int = 0
    int_ops: int = 0
    branches: int = 0
    #: Provenance: the :class:`~repro.frontend.spec.StencilSpec` this code
    #: was synthesized from, when it came through the frontend (``None``
    #: for hand-written codes).  Typed loosely to keep ``codes`` free of a
    #: frontend import.
    spec: Optional[object] = None

    def iteration_count(self, sizes: Mapping[str, int]) -> int:
        n = 1
        for lo, hi in self.bounds(sizes):
            n *= hi - lo + 1
        return n


@dataclass(frozen=True)
class CodeVersion:
    """One (mapping, schedule) realisation of a code."""

    key: str
    label: str
    code: Code
    mapping_factory: Callable[[Mapping[str, int]], StorageMapping]
    schedule_factory: Callable[[Mapping[str, int]], Schedule]
    tiled: bool = False
    #: False for mappings whose storage dependences forbid tiling.
    tilable: bool = True
    notes: str = ""

    def mapping(self, sizes: Mapping[str, int]) -> StorageMapping:
        return self.mapping_factory(sizes)

    def schedule(self, sizes: Mapping[str, int]) -> Schedule:
        return self.schedule_factory(sizes)

    def storage(self, sizes: Mapping[str, int]) -> int:
        """Temporary storage in elements: the mapping's allocation."""
        return self.mapping_factory(sizes).size

    def address_ops(
        self, sizes: Mapping[str, int], unrolled: bool = True
    ) -> OpCounts:
        """Address-arithmetic cost of one iteration under this mapping.

        One address computation per source read plus one per store, all
        through the same mapping — matching what generated code would do.
        (Common-subexpression sharing across the reads is deliberately not
        assumed; neither does the paper when counting mapping overhead.)

        ``unrolled=True`` (the default, and what the paper's generated
        code does) applies mod-removal by unrolling / pointer rotation;
        ``unrolled=False`` keeps the raw mods, which the overhead-ablation
        benchmark uses to quantify what unrolling buys.
        """
        mapping = self.mapping_factory(sizes)
        per_ref = (
            mapping.effective_op_cost() if unrolled else mapping.op_cost()
        )
        refs = len(self.code.source_distances) + 1
        return OpCounts(
            adds=per_ref.adds * refs,
            muls=per_ref.muls * refs,
            mods=per_ref.mods * refs,
        )

    def bounds(self, sizes: Mapping[str, int]) -> Bounds:
        return self.code.bounds(sizes)

    def __str__(self) -> str:
        return f"{self.code.name}/{self.key}"
