"""Vectorized wavefront execution: the interpreter at NumPy speed.

:func:`execute_vectorized` computes exactly what
:func:`repro.execution.interpreter.execute` computes — bit for bit, same
storage end-state, same :class:`ExecutionResult` — but evaluates whole
dependence-free *batches* of iteration points as single NumPy fancy-index
operations instead of one Python loop trip per point.

The batches come from :meth:`Schedule.batches`: contiguous runs of the
schedule's own order in which no point depends on another (anti-diagonal
/ row fronts for lexicographic and interchanged orders, the fronts
themselves for wavefront schedules, intra-tile diagonals for tiled
schedules — see :mod:`repro.schedule.batching`).  Storage and the
native engine's halo of loop inputs share one ``[storage | halo]``
buffer (:mod:`repro.execution.gather`).  For each batch the engine

1. evaluates the mapping's affine-mod form once, shifts it by a
   constant per source ``q - d``, re-points the rows whose producer
   leaves the box at its halo slot, and gathers each source with one
   fancy-indexed read,
2. applies the code's ``combine_batch`` — the exact elementwise
   transliteration of its scalar ``combine`` — and
3. scatters the results through the mapping with one fancy-indexed write.

Hoisting a batch's reads above its writes is sound because a mapping
that is legal for the schedule never lets an iteration overwrite a
location a later iteration still reads (Section 4's legality condition);
the equivalence test suite asserts bit-identical agreement with the
scalar interpreter for every code/version/schedule combination.

Schedules that expose no batch structure for a code's stencil, codes
without batched semantics and mappings outside the affine-mod form fall
back to the scalar interpreter with a :class:`VectorizationFallback`
warning, so the engine is always safe to call.  Fallbacks are
*structured* events: the Python warning fires once per ``(code,
schedule)`` pair per process (see :func:`repro.obs.warn_once`), while
every occurrence increments the ``vectorized.fallbacks`` counter and
lands in the trace with the code, schedule, and reason attached — so a
sweep that silently degrades is still visible in ``--profile`` output
and the telemetry appendix.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro import obs
from repro.codes.base import Code, CodeVersion
from repro.execution import gather
from repro.execution.interpreter import ExecutionResult, execute, require_legal
from repro.mapping.expr import AffineModForm

__all__ = ["VectorizationFallback", "execute_vectorized"]


class VectorizationFallback(UserWarning):
    """The vectorized engine fell back to the scalar interpreter."""


def execute_vectorized(
    version: CodeVersion,
    sizes: Mapping[str, int],
    seed: int = 0,
    check_legality: bool = False,
    fallback: bool = True,
) -> ExecutionResult:
    """Run one version to completion, batch-at-a-time.

    Bit-identical to :func:`repro.execution.interpreter.execute` on every
    legal version.  ``fallback=False`` raises ``ValueError`` instead of
    warning and degrading to the scalar interpreter when the version
    cannot be batched (useful in benchmarks that must not silently
    measure the wrong engine).
    """
    code: Code = version.code
    bounds = code.bounds(sizes)
    schedule = version.schedule(sizes)
    mapping = version.mapping(sizes)

    reason = None
    reason_code = None
    if code.combine_batch is None:
        reason = f"code {code.name} has no batched combine"
        reason_code = "no-batched-combine"
    elif (batches := schedule.batches(bounds, code.stencil)) is None:
        reason = (
            f"schedule {schedule.name} has no dependence-free batch "
            f"structure for stencil {list(code.stencil.vectors)}"
        )
        reason_code = "no-batch-structure"
    elif (form := gather.mapping_form(mapping)) is None:
        reason = f"mapping {mapping!r} has no affine-mod address form"
        reason_code = "no-affine-mod-form"
    if reason is not None:
        if not fallback:
            raise ValueError(f"cannot vectorize {version}: {reason}")
        obs.warn_once(
            (code.name, schedule.name),
            f"falling back to the scalar interpreter for {version}: "
            f"{reason}",
            VectorizationFallback,
            event="vectorized.fallback",
            counter="vectorized.fallbacks",
            code=code.name,
            schedule=schedule.name,
            reason=reason_code,
        )
        return execute(version, sizes, seed=seed, check_legality=check_legality)

    ctx = code.make_context(sizes, seed)

    if check_legality:
        require_legal(version, mapping, schedule, bounds)

    # One buffer, [storage | halo]: a source is one gather whether its
    # producer is a stored iteration or a loop input.
    distances = code.source_distances
    size = mapping.size
    ext_lo, ext_hi, strides = gather.halo_geometry(distances, bounds)
    buffer = np.zeros(size + strides[0] * (ext_hi[0] - ext_lo[0] + 1))
    gather.fill_halo(code, bounds, ctx, out=buffer[size:])
    origin = size - sum(s * lo for s, lo in zip(strides, ext_lo))
    inputs = gather.AddressForm(AffineModForm(strides, origin), distances)
    here = (0,) * len(bounds)
    stored = gather.AddressForm(form, (*distances, here))
    combine_batch = code.combine_batch

    # Telemetry accumulates in locals inside the hot loop and reaches the
    # metrics registry once, after it — the disabled-path overhead is a
    # handful of integer adds per *batch*, bounded by the obs benchmark.
    batch_sizes: list[int] = []
    boundary_elements = 0

    with obs.span(
        "execute.vectorized",
        code=code.name,
        schedule=schedule.name,
        sizes=dict(sizes),
    ) as sp:
        for batch in batches:
            n = batch.shape[0]
            batch_sizes.append(n)
            cols = tuple(batch.T)
            at = stored.evaluator(cols)
            exits = gather.Exits(cols, bounds)
            halo_at = None
            offsets = np.empty(n, dtype=np.int64)
            values = []
            for d in distances:
                at(d, out=offsets)
                outside = exits(d)
                if outside is not None:
                    if halo_at is None:
                        halo_at = inputs.evaluator(cols)
                        halo_offsets = np.empty(n, dtype=np.int64)
                    halo_at(d, out=halo_offsets)
                    np.copyto(offsets, halo_offsets, where=outside)
                    boundary_elements += int(np.count_nonzero(outside))
                values.append(buffer[offsets])
            # Within a batch the points are in schedule order, so NumPy's
            # last-wins scatter on (theoretically) duplicate offsets matches
            # the scalar interpreter's sequential writes.
            at(here, out=offsets)
            buffer[offsets] = combine_batch(values, cols, ctx)
        points = sum(batch_sizes)
        gather_elements = points * len(distances) - boundary_elements
        sp.set(
            batches=len(batch_sizes),
            points=points,
            gather_elements=gather_elements,
            boundary_elements=boundary_elements,
        )

    metrics = obs.get_metrics()
    metrics.counter("vectorized.runs").inc()
    metrics.counter("vectorized.batches").inc(len(batch_sizes))
    metrics.counter("vectorized.gather_elements").inc(gather_elements)
    metrics.counter("vectorized.boundary_elements").inc(boundary_elements)
    metrics.counter("vectorized.scatter_elements").inc(points)
    metrics.histogram("vectorized.batch_size").observe_many(batch_sizes)

    # Drop the halo in place; no view of the buffer outlives the loop.
    buffer.resize(size, refcheck=False)
    result = ExecutionResult(
        version, sizes, buffer, mapping.compiled(), bounds, ctx
    )
    result.engine_used = "vectorized"
    return result
