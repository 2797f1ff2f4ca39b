"""How the fast paths read the source ``q - d`` of a block of points.

Every storage mapping is one affine-mod form (Section 4;
:func:`mapping_form`), so the addresses of all sources of a block are
one evaluation shifted by constants (:class:`AddressForm`).  A producer
outside the ISG box is a loop input: :class:`Exits` names the rows
whose producer is, and the *halo* (:func:`halo_geometry`,
:func:`fill_halo`) holds every loop input in one row-major array over
the smallest box containing every producer.  The array trace, the
vectorized engine and the native engine (through the generated C) all
read through these.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from repro.mapping.expr import AffineModForm, affine_mod_form

__all__ = [
    "AddressForm",
    "Exits",
    "fill_halo",
    "halo_geometry",
    "mapping_form",
]


def mapping_form(mapping) -> Optional[AffineModForm]:
    """The mapping's address expression as an affine-mod form, or
    ``None`` outside it (no shipped family is; a plugin may be)."""
    names = [f"q{k}" for k in range(mapping.dim)]
    try:
        return affine_mod_form(mapping.expression(names), names)
    except ValueError:
        return None


class AddressForm:
    """``base + scale * form(q - d)`` for blocks of points ``q`` and the
    constant distances ``d`` of one code.

    Per block, the affine part and each residue ``(b_j.q + e_j) mod g_j``
    are computed once.  The value at ``q - d`` is then the affine part
    shifted by the constant ``a.d`` plus each residue rotated by the
    constant ``b_j.d mod g_j``; distances with equal rotations share
    one sum.
    """

    def __init__(self, form: AffineModForm, distances, scale=1, base=0):
        self._linear = tuple(scale * a for a in form.linear)
        self._constant = base + scale * form.constant
        self._terms = tuple(
            (scale * t.scale, t.linear, t.offset, t.modulus)
            for t in form.terms
        )
        self._shifts = {
            d: (
                _dot_int(self._linear, d),
                tuple(_dot_int(b, d) % g for _, b, _, g in self._terms),
            )
            for d in distances
        }

    def evaluator(self, cols):
        """``fill(d, out)``: the values at ``q - d`` for the block's
        points ``q`` (coordinate columns ``cols``), written to ``out``."""
        base = _dot(self._linear, cols, self._constant)
        residues = [
            np.remainder(_dot(b, cols, e), g) for _, b, e, g in self._terms
        ]
        sums = {}

        def fill(d, out) -> None:
            shift, rotation = self._shifts[d]
            total = sums.get(rotation)
            if total is None:
                total = base
                for (k, _, _, g), r, s in zip(self._terms, residues, rotation):
                    if s:
                        r = np.remainder(r - s, g)
                    total = total + (r * k if k != 1 else r)
                sums[rotation] = total
            np.subtract(total, shift, out=out)

        return fill


def _dot_int(coeffs, vector) -> int:
    return sum(a * c for a, c in zip(coeffs, vector))


def _dot(coeffs, cols, constant) -> np.ndarray:
    """``coeffs . cols + constant`` as a fresh int64 array."""
    out = None
    for c, col in zip(coeffs, cols):
        if not c:
            continue
        term = col * c if c != 1 else col.copy()
        if out is None:
            out = term
        else:
            out += term
    if out is None:
        return np.full(len(cols[0]), constant, dtype=np.int64)
    out += constant
    return out


class Exits:
    """Which points ``q`` of a block (all inside the box) have their
    producer ``q - d`` outside it.

    Only the non-zero components of ``d`` can carry a producer out, and
    only if the block reaches that face of the box: a component whose
    whole column stays clear of the face needs no comparison.
    """

    def __init__(self, cols, bounds):
        self._faces = [
            (col, lo, hi, int(col.min()), int(col.max()))
            for col, (lo, hi) in zip(cols, bounds)
        ]

    def __call__(self, d) -> Optional[np.ndarray]:
        """The mask, or ``None`` when no producer leaves the box."""
        outside = None
        for (col, lo, hi, least, most), dk in zip(self._faces, d):
            if dk > 0 and least < lo + dk:
                leaves = col < lo + dk
            elif dk < 0 and most > hi + dk:
                leaves = col > hi + dk
            else:
                continue
            outside = leaves if outside is None else outside | leaves
        return outside


def halo_geometry(
    distances: Sequence[Sequence[int]],
    bounds: Sequence[tuple[int, int]],
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Geometry of the boundary-input halo for one (stencil, box) pair.

    Every source read of iteration ``q`` targets the producer
    ``p = q - d``; producers outside the ISG box are *loop inputs*.  The
    halo is the smallest box containing every reachable producer:
    per-axis ``[lo - max(0, max_d), hi + max(0, -min_d)]``.  Returns
    ``(ext_lo, ext_hi, strides)`` where ``strides`` flattens the halo
    box row-major — the same flattening the generated C indexes with and
    :func:`fill_halo` fills.
    """
    axes = list(zip(*distances))
    ext_lo = tuple(lo - max(0, *ds) for (lo, _), ds in zip(bounds, axes))
    ext_hi = tuple(hi - min(0, *ds) for (_, hi), ds in zip(bounds, axes))
    strides = [1] * len(bounds)
    for k in range(len(bounds) - 2, -1, -1):
        strides[k] = strides[k + 1] * (ext_hi[k + 1] - ext_lo[k + 1] + 1)
    return ext_lo, ext_hi, tuple(strides)


def fill_halo(code, bounds, ctx, out=None) -> np.ndarray:
    """The flat row-major halo over :func:`halo_geometry`'s extended box.

    Every position outside the ISG box holds ``input_value`` of that
    producer (through ``input_values_batch`` when the code has it);
    positions inside are never read, and stay zero or as the flat
    buffer ``out``, filled in place, holds them.  The shell is filled
    face by face: on axis ``k``, the slabs below and above the box,
    over the box's range on the axes before ``k`` and the extended
    range on the axes after it — disjoint slabs that cover the shell.
    """
    ext_lo, ext_hi, _ = halo_geometry(code.source_distances, bounds)
    shape = tuple(hi - lo + 1 for lo, hi in zip(ext_lo, ext_hi))
    halo = np.zeros(shape) if out is None else out.reshape(shape)
    extended = list(zip(ext_lo, ext_hi))
    for k, (lo, hi) in enumerate(bounds):
        for side in ((ext_lo[k], lo - 1), (hi + 1, ext_hi[k])):
            if side[0] > side[1]:
                continue
            slab = (*bounds[:k], side, *extended[k + 1 :])
            at = [slice(a - e, b + 1 - e) for (a, b), e in zip(slab, ext_lo)]
            halo[tuple(at)] = _input_block(code, slab, ctx)
    return halo.ravel()


def _input_block(code, slab, ctx) -> np.ndarray:
    """``input_value`` over one box of producers, in the box's shape."""
    shape = tuple(hi - lo + 1 for lo, hi in slab)
    if code.input_values_batch is not None:
        lows = np.array([[lo] for lo, _ in slab], dtype=np.int64)
        points = np.indices(shape, dtype=np.int64).reshape(len(shape), -1)
        values = code.input_values_batch(tuple(points + lows), ctx)
        values = np.asarray(values, dtype=np.float64)
        return values.reshape(shape) if values.ndim else values
    points = itertools.product(*(range(lo, hi + 1) for lo, hi in slab))
    return np.array(
        [code.input_value(p, ctx) for p in points], dtype=np.float64
    ).reshape(shape)
