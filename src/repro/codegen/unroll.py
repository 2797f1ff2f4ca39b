"""Mod-removal by loop unrolling (Section 4.2).

A non-prime OV mapping contains ``(beta . q) mod g``, where ``beta`` is
the mapping's ``class_row`` (the paper's Bezout functional in 2-D).  Along
the inner loop, ``beta . q`` changes by the constant ``beta[inner]`` per
iteration, so the modterm cycles with period ``g / gcd(g, beta[inner])``
(usually ``g``): unrolling the inner loop by that period turns the modterm
into a compile-time constant in each unrolled copy.  The paper: *"In
generating code, we remove the overhead introduced by the mod operations
by applying loop unrolling."*

This module computes the unroll period for a mapping and provides the
per-copy constant offsets the generators substitute.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.mapping.base import StorageMapping
from repro.mapping.ov import OVMapping

__all__ = ["unrollable_modulus", "unroll_offsets"]


def unrollable_modulus(mapping: StorageMapping, inner_axis: int) -> int:
    """Unroll period that removes the mapping's modterm, or 1 if none.

    Supports the OV mappings.  The rolling buffer's mod is *not*
    unrollable this way (its modulus grows with the problem size; the
    hand-written equivalent uses pointer rotation instead) — for it, and
    for mod-free mappings, the function returns 1.
    """
    if not isinstance(mapping, OVMapping) or mapping.gcd <= 1:
        return 1
    g = mapping.gcd
    step = mapping.class_row[inner_axis] % g
    if step == 0:
        # The modterm is constant along the inner loop: hoistable, so an
        # "unroll" factor of 1 already removes it from the loop body.
        return 1
    return g // math.gcd(g, step)


def unroll_offsets(
    mapping: StorageMapping, inner_axis: int, start: Sequence[int]
) -> list[int]:
    """The modterm's value in each unrolled copy, starting at ``start``.

    ``result[k]`` is the class index for the iteration ``start`` displaced
    ``k`` steps along the inner axis — the constant the generator bakes
    into copy ``k``'s address expression.
    """
    period = unrollable_modulus(mapping, inner_axis)
    if not isinstance(mapping, OVMapping) or mapping.gcd <= 1:
        return [0] * period
    g = mapping.gcd
    beta = mapping.class_row
    base = sum(b * c for b, c in zip(beta, start))
    step = beta[inner_axis]
    return [(base + k * step) % g for k in range(period)]
