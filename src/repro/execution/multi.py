"""Executing loops with multiple assignments (Section 3, first paragraph).

*"Our technique focuses on one assignment at a time.  If the loop has
multiple assignments, we would treat each separately, resulting in
disjoint storage for the loop-carried values produced by the different
assignment statements.  We restrict the edges in the ISG to just the
edges that correspond to values produced by the assignment under
consideration (the reduced ISG)."*

This module is that sentence, executable: each assignment gets its own
stencil, its own UOV, and its own disjoint buffer; cross-statement reads
flow through the producing statement's buffer.  The combined loop then
runs under any schedule legal for the union of the dependences with
every buffer's reuse schedule-independent.

The load-bearing subtlety: a statement's storage stencil is the set of
**consumer** distances of the values it produces — *including reads
issued by other statements*.  Section 3's reduced ISG is "the edges that
correspond to values produced by the assignment under consideration",
and a sibling statement's read is such an edge: choosing B's occupancy
vector from B's own reads alone would let B's buffer recycle a value
that A still needs one row later (the test suite demonstrates exactly
that failure before the fix).  Same-iteration consumers (distance zero)
are ordered by body position and constrain nothing; cross-array *carried*
edges additionally constrain the schedule, so legality is checked
against the union of every value dependence in the body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.analysis.dependence import consumer_distances
from repro.core.search import find_optimal_uov
from repro.core.stencil import Stencil
from repro.ir.program import Program
from repro.ir.stmt import Assignment
from repro.mapping.base import StorageMapping
from repro.mapping.ov import OVMapping
from repro.schedule.base import Schedule
from repro.util.polyhedron import Polytope
from repro.util.vectors import IntVector, is_lex_positive, sub

__all__ = ["MultiAssignmentPlan", "plan_storage", "execute_multi"]


@dataclass(frozen=True)
class StatementPlan:
    """Storage decision for one assignment's value stream."""

    statement: Assignment
    stencil: Stencil
    uov: IntVector
    mapping: StorageMapping


@dataclass(frozen=True)
class MultiAssignmentPlan:
    """Disjoint per-assignment storage for a multi-statement loop."""

    program: Program
    statements: tuple[StatementPlan, ...]
    #: every value dependence (own-array and cross-array): what a
    #: schedule must respect.
    union_stencil: Stencil

    @property
    def total_storage(self) -> int:
        return sum(p.mapping.size for p in self.statements)

    def plan_for(self, array: str) -> StatementPlan:
        for p in self.statements:
            if p.statement.target.array == array:
                return p
        raise KeyError(array)


def _cross_array_distances(
    program: Program,
) -> list[IntVector]:
    """Flow distances of reads whose producer is a *different* statement.

    With uniform refs and one writer per array, the producer of a read of
    array ``B`` at offset ``c_r`` is ``q + c_w(B) - c_r`` where ``c_w(B)``
    is B's writer's offset; lexicographically positive differences are
    loop-carried, zero means same-iteration producer-consumer ordering
    (statement order within the body), negative means a pre-loop input.
    """
    indices = program.loop.indices
    writers = {
        stmt.target.array: stmt.target.offset_from(indices)
        for stmt in program.body
    }
    distances = []
    for stmt in program.body:
        for ref in stmt.sources:
            if ref.array == stmt.target.array:
                continue
            if ref.array not in writers:
                continue  # pure input array
            d = sub(writers[ref.array], ref.offset_from(indices))
            if is_lex_positive(d):
                distances.append(d)
    return distances


def plan_storage(
    program: Program,
    sizes: Mapping[str, int],
    mapping_factory: Callable[..., StorageMapping] | None = None,
) -> MultiAssignmentPlan:
    """Choose a UOV and a disjoint buffer per assignment.

    ``mapping_factory(uov, isg)`` defaults to the consecutive OV
    mapping.  Each assignment's UOV comes from *its own* reduced ISG —
    other statements' dependences never inflate its storage, which is
    the disjointness the paper prescribes.
    """
    if mapping_factory is None:
        mapping_factory = lambda uov, isg: OVMapping(
            uov, isg, layout="consecutive"
        )
    isg = Polytope.from_loop_bounds(program.loop.concrete_bounds(sizes))
    indices = program.loop.indices
    plans = []
    all_distances: list[IntVector] = []
    for stmt in program.body:
        # The storage stencil must cover every consumer of this
        # statement's values — including reads by *other* statements
        # (a location freed only against its own statement's reads could
        # be recycled while a sibling statement still needs the value).
        consumers = consumer_distances(program, stmt)
        if not consumers:
            raise ValueError(
                f"assignment {stmt} carries no value dependence; "
                "its values are not loop-carried temporaries"
            )
        stencil = Stencil(consumers)
        uov = find_optimal_uov(stencil).ov
        plans.append(
            StatementPlan(
                statement=stmt,
                stencil=stencil,
                uov=uov,
                mapping=mapping_factory(uov, isg),
            )
        )
        all_distances.extend(consumers)
    all_distances.extend(_cross_array_distances(program))
    return MultiAssignmentPlan(
        program=program,
        statements=tuple(plans),
        union_stencil=Stencil(all_distances),
    )


def execute_multi(
    plan: MultiAssignmentPlan,
    sizes: Mapping[str, int],
    schedule: Schedule,
    input_values: Callable[[str, IntVector], float],
    combines: Mapping[str, Callable[[Sequence[float], IntVector], float]],
    check_legality: bool = True,
) -> dict[str, np.ndarray]:
    """Run the multi-assignment loop; returns each array's buffer.

    ``input_values(array, p)`` supplies out-of-domain reads;
    ``combines[array](values, q)`` is the statement body for the
    statement writing ``array`` (values in source order).
    """
    program = plan.program
    bounds = program.loop.concrete_bounds(sizes)
    if check_legality and not schedule.is_legal_for(
        plan.union_stencil, bounds
    ):
        raise ValueError(
            f"schedule {schedule.name} violates the loop's value "
            f"dependences {list(plan.union_stencil.vectors)}"
        )
    indices = program.loop.indices
    buffers = {
        p.statement.target.array: np.zeros(p.mapping.size)
        for p in plan.statements
    }
    mapping_fns = {
        p.statement.target.array: p.mapping.compiled()
        for p in plan.statements
    }
    writer_offsets = {
        p.statement.target.array: p.statement.target.offset_from(indices)
        for p in plan.statements
    }
    lows = [lo for lo, _ in bounds]
    highs = [hi for _, hi in bounds]

    for q in schedule.order(bounds):
        for p in plan.statements:
            stmt = p.statement
            array = stmt.target.array
            values = []
            for ref in stmt.sources:
                src_array = ref.array
                if src_array in writer_offsets:
                    # producer iteration p satisfies p + c_w == q + c_r
                    producer = tuple(
                        qc + rc - wc
                        for qc, rc, wc in zip(
                            q,
                            ref.offset_from(indices),
                            writer_offsets[src_array],
                        )
                    )
                    if all(
                        lo <= c <= hi
                        for lo, c, hi in zip(lows, producer, highs)
                    ):
                        values.append(
                            buffers[src_array][
                                mapping_fns[src_array](*producer)
                            ]
                        )
                    else:
                        values.append(input_values(src_array, producer))
                else:
                    values.append(input_values(src_array, q))
            buffers[array][mapping_fns[array](*q)] = combines[array](
                values, q
            )
    return buffers
