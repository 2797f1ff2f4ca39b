"""Array padding for OV mappings (the paper's Section 4 aside).

*"Since we are taking complete control of temporary storage allocation,
it would not be difficult to incorporate data layout techniques such as
array padding to improve performance."*

The consecutive layout of a non-prime OV stores its ``g`` storage classes
as ``g`` back-to-back blocks of the projection length ``L``.  When ``L``
elements is a multiple of a direct-mapped cache's way size — the
power-of-two array lengths every benchmark sweeps — corresponding
elements of the classes collide in the same cache set and the inner loop
thrashes (exactly what the Ultra 2 model shows in Figures 9-11, and why
the paper measured the interleaved layout separately).

:class:`PaddedOVMapping` inserts ``pad`` unused elements between the
class blocks, shifting each block's cache-set phase.  All storage-mapping
requirements are preserved (points ``ov`` apart still share a location;
classes still never collide); the cost is ``(g-1) * pad`` wasted elements
and nothing else — the address expression is unchanged in shape, only its
class stride grows.
"""

from __future__ import annotations

from typing import Sequence

from repro.mapping.ov import OVMapping
from repro.util.polyhedron import Polytope

__all__ = ["PaddedOVMapping", "pad_for_cache"]


def pad_for_cache(
    projection_length: int,
    line_bytes: int,
    element_bytes: int = 8,
    cache_bytes: int | None = None,
) -> int:
    """A pad (in elements) that de-phases the class blocks in a cache.

    Without a cache size, returns one line — enough to move consecutive
    blocks into different sets when the unpadded block is line-aligned
    (returns 0 otherwise: unaligned blocks are already de-phased).

    With ``cache_bytes`` (the direct-mapped level the loop thrashes in),
    returns half the cache plus one line: the streams walking the two
    class blocks in lockstep then occupy *disjoint* set ranges, the
    classic padding rule for two-array conflicts.  One line alone only
    shifts the overlap by a single set, which leaves lockstep streams
    wider than a set still colliding.
    """
    elements_per_line = max(1, line_bytes // element_bytes)
    if projection_length % elements_per_line:
        return 0
    if cache_bytes is None:
        return elements_per_line
    return cache_bytes // 2 // element_bytes + elements_per_line


class PaddedOVMapping(OVMapping):
    """Consecutive-layout OV mapping with padded class blocks."""

    def __init__(
        self,
        ov: Sequence[int],
        isg: Polytope,
        pad: int,
    ):
        if pad < 0:
            raise ValueError("padding cannot be negative")
        super().__init__(ov, isg, layout="consecutive")
        self._pad = pad

    @property
    def pad(self) -> int:
        return self._pad

    @property
    def class_stride(self) -> int:
        return self.perpendicular_size + self._pad

    @property
    def size(self) -> int:
        # The final class needs no trailing pad.
        return self._g * self.perpendicular_size + (self._g - 1) * self._pad

    def __repr__(self) -> str:
        return (
            f"PaddedOVMapping(ov={self._ov}, pad={self._pad}, "
            f"size={self.size})"
        )
