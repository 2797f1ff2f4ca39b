"""Boundary/input rules for spec-synthesized codes.

Reads that fall outside the iteration-space polytope — row 0, guard
cells, score-matrix borders — come from *input regions* rather than the
mapped temporary storage.  A spec names one of the rules registered here
(``{"kind": "padded-line", "pad": 2, "pad_value": 0.25}``) and the rule
supplies the four :class:`~repro.codes.base.Code` callables that realise
it: ``make_context`` (RNG-seeded input buffers), ``input_value`` /
``input_values_batch`` (what an out-of-space read returns) and
``input_offset`` / ``input_offsets_batch`` (its address in the input
region, for the address tracer).

The three built-in rules are exact generalisations of the hand-written
codes' boundary handling — same RNG draw order, same clamping arithmetic
— so re-expressing ``stencil5``/``jacobi``/``simple2d``/``psm`` as specs
keeps every output bit-identical:

- ``padded-line``: a 1-D input line along ``axis`` padded with ``pad``
  constant guard cells on each end (stencil5: pad 2 @ 0.25; jacobi:
  pad 1 @ 0.0).
- ``row-or-constant``: positions below the loop's lower bound on
  ``axis`` read one constant (column 0); others read an initialised
  line (simple2d's row 0), clamped into it at its ends.
- ``zero-borders``: every boundary read returns 0.0, with distinct
  row/column border addresses (PSM's local-alignment borders).

Rule builders raise ``ValueError`` on malformed parameters; the spec
validator converts those into structured diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from repro.util.registry import Registry

__all__ = ["INPUT_RULES", "InputBindings", "build_input_rule"]

#: sizes -> ((lo, hi), ...) integer loop bounds, one pair per index.
BoundsFn = Callable[[Mapping[str, int]], tuple]


@dataclass(frozen=True)
class InputBindings:
    """The executable forms of one input rule, bound to a spec's bounds."""

    kind: str
    make_context: Callable
    input_value: Callable
    input_offset: Callable
    input_values_batch: Optional[Callable]
    input_offsets_batch: Optional[Callable]
    #: Canonical JSON form (for hashing / round-tripping).
    json: Mapping = field(default_factory=dict)


#: Rule name -> builder ``(params, bounds, ndim) -> InputBindings``.
INPUT_RULES: Registry[Callable] = Registry("input rule")


def build_input_rule(rule: Mapping, bounds: BoundsFn, ndim: int) -> InputBindings:
    """Instantiate the input rule named by ``rule['kind']``."""
    if not isinstance(rule, Mapping) or "kind" not in rule:
        raise ValueError(
            f"inputs must be a mapping with a 'kind' key, got {rule!r}"
        )
    builder = INPUT_RULES.get(rule["kind"])  # raises UnknownNameError
    return builder(rule, bounds, ndim)


def _axis_of(params: Mapping, ndim: int) -> int:
    axis = params.get("axis", ndim - 1)
    if not isinstance(axis, int) or not 0 <= axis < ndim:
        raise ValueError(
            f"input rule axis {axis!r} out of range for {ndim} loop indices"
        )
    return axis


@INPUT_RULES.register(
    "padded-line",
    summary="1-D input line along one axis with constant guard cells",
)
def _padded_line(params: Mapping, bounds: BoundsFn, ndim: int) -> InputBindings:
    axis = _axis_of(params, ndim)
    pad = params.get("pad", 1)
    if not isinstance(pad, int) or pad < 1:
        raise ValueError(f"padded-line pad must be a positive int, got {pad!r}")
    value = float(params.get("pad_value", 0.0))

    def make_context(sizes, seed):
        rng = np.random.default_rng(seed)
        lo, hi = bounds(sizes)[axis]
        extent = hi - lo + 1
        # input[:pad] and input[extent+pad:] are constant boundary guard
        # cells; the middle is the initial line contents.
        buf = rng.uniform(0.0, 1.0, size=extent + 2 * pad)
        buf[:pad] = value
        buf[extent + pad:] = value
        return {"input": buf, "input_lo": lo}

    def input_value(p, ctx):
        buf = ctx["input"]
        idx = p[axis] - ctx["input_lo"] + pad
        return float(buf[min(max(idx, 0), len(buf) - 1)])

    def input_offset(p, sizes):
        lo, hi = bounds(sizes)[axis]
        extent = hi - lo + 1
        return min(max(p[axis] - lo + pad, 0), extent + 2 * pad - 1)

    def input_values_batch(p, ctx):
        buf = ctx["input"]
        return buf[np.clip(p[axis] - ctx["input_lo"] + pad, 0, len(buf) - 1)]

    def input_offsets_batch(p, sizes):
        lo, hi = bounds(sizes)[axis]
        extent = hi - lo + 1
        return np.clip(p[axis] - lo + pad, 0, extent + 2 * pad - 1)

    return InputBindings(
        kind="padded-line",
        make_context=make_context,
        input_value=input_value,
        input_offset=input_offset,
        input_values_batch=input_values_batch,
        input_offsets_batch=input_offsets_batch,
        json={"kind": "padded-line", "axis": axis, "pad": pad, "pad_value": value},
    )


@INPUT_RULES.register(
    "row-or-constant",
    summary="initialised line along one axis; below-bound reads one constant",
)
def _row_or_constant(params: Mapping, bounds: BoundsFn, ndim: int) -> InputBindings:
    axis = _axis_of(params, ndim)
    constant = float(params.get("constant", 0.0))

    # Below the lower bound a position reads the constant (offset 0);
    # any other reads row0 at the position clamped into row0, on every
    # path, and its offset is that same cell's index.
    def make_context(sizes, seed):
        rng = np.random.default_rng(seed)
        lo, hi = bounds(sizes)[axis]
        return {"row0": rng.uniform(0.0, 1.0, size=hi + 1), "input_lo": lo}

    def input_value(p, ctx):
        j = p[axis]
        if j < ctx["input_lo"]:
            return constant  # below the bound: one constant in every entry
        row0 = ctx["row0"]
        return float(row0[min(max(j, 0), len(row0) - 1)])

    def input_offset(p, sizes):
        lo, hi = bounds(sizes)[axis]
        j = p[axis]
        return 0 if j < lo else min(max(j, 0), hi)

    def input_values_batch(p, ctx):
        j = p[axis]
        row0 = ctx["row0"]
        lo = ctx["input_lo"]
        return np.where(j < lo, constant, row0[np.clip(j, 0, len(row0) - 1)])

    def input_offsets_batch(p, sizes):
        lo, hi = bounds(sizes)[axis]
        j = p[axis]
        return np.where(j < lo, 0, np.clip(j, 0, hi))

    return InputBindings(
        kind="row-or-constant",
        make_context=make_context,
        input_value=input_value,
        input_offset=input_offset,
        input_values_batch=input_values_batch,
        input_offsets_batch=input_offsets_batch,
        json={"kind": "row-or-constant", "axis": axis, "constant": constant},
    )


@INPUT_RULES.register(
    "zero-borders",
    summary="all boundary reads are 0.0 with distinct row/column addresses (2-D)",
)
def _zero_borders(params: Mapping, bounds: BoundsFn, ndim: int) -> InputBindings:
    if ndim != 2:
        raise ValueError(
            f"zero-borders input rule supports 2-D loops only, got {ndim} indices"
        )

    def make_context(sizes, seed):
        return {}

    def input_value(p, ctx):
        return 0.0

    def input_offset(p, sizes):
        i, j = p
        b = bounds(sizes)
        lo0, hi1 = b[0][0], b[1][1]
        # Distinct input-region addresses for the two borders, as a real
        # code's border row and border column would have.
        if i < lo0:
            return max(0, j)
        return hi1 + 1 + max(0, i)

    def input_values_batch(p, ctx):
        i, j = p
        return np.zeros(len(i), dtype=np.float64)

    def input_offsets_batch(p, sizes):
        i, j = p
        b = bounds(sizes)
        lo0, hi1 = b[0][0], b[1][1]
        return np.where(i < lo0, np.maximum(0, j), hi1 + 1 + np.maximum(0, i))

    return InputBindings(
        kind="zero-borders",
        make_context=make_context,
        input_value=input_value,
        input_offset=input_offset,
        input_values_batch=input_values_batch,
        input_offsets_batch=input_offsets_batch,
        json={"kind": "zero-borders"},
    )
