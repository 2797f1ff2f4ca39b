"""Array region analysis (Creusillet & Irigoin [11], specialised).

Determines, per array, the regions *written* and *read* by the loop as
index boxes, and classifies elements:

- **imported** — read before (or without) being written inside the loop:
  the loop's inputs;
- **exported** — written and declared live-out: the loop's outputs;
- **temporary** — written but not live-out: the storage the UOV technique
  may remap.

For uniform references over a rectangular nest, the exact region of a
reference is the loop-bounds box shifted by the reference's constant
offset, so boxes are exact here, not approximations.  Imported elements are
computed pointwise within those boxes (the boxes are modest: they are the
ISG shifted by small constants) — precise enough to verify the paper's
set-ups, e.g. that the 5-point stencil imports row 0 and exports row T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.ir.program import Program

__all__ = ["Box", "RegionSummary", "analyse_regions"]


@dataclass(frozen=True)
class Box:
    """An inclusive index box ``lower[k] <= x[k] <= upper[k]``."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise ValueError("box corner dimensionality mismatch")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError(f"empty box {self.lower}..{self.upper}")

    def shifted(self, offset: tuple[int, ...]) -> "Box":
        return Box(
            tuple(lo + o for lo, o in zip(self.lower, offset)),
            tuple(hi + o for hi, o in zip(self.upper, offset)),
        )

    def contains(self, point: tuple[int, ...]) -> bool:
        return all(
            lo <= x <= hi
            for lo, x, hi in zip(self.lower, point, self.upper)
        )

    def union_hull(self, other: "Box") -> "Box":
        return Box(
            tuple(min(a, b) for a, b in zip(self.lower, other.lower)),
            tuple(max(a, b) for a, b in zip(self.upper, other.upper)),
        )

    def count(self) -> int:
        n = 1
        for lo, hi in zip(self.lower, self.upper):
            n *= hi - lo + 1
        return n

    def points(self):
        import itertools

        return itertools.product(
            *[range(lo, hi + 1) for lo, hi in zip(self.lower, self.upper)]
        )


@dataclass(frozen=True)
class RegionSummary:
    """Per-array region classification for one program and size binding."""

    array: str
    written: Box | None
    read: Box | None
    imported: frozenset[tuple[int, ...]]
    live_out: bool

    @property
    def temporary_count(self) -> int:
        """Elements written inside the loop but not live after it."""
        if self.written is None or self.live_out:
            return 0
        return self.written.count()


def analyse_regions(
    program: Program, sizes: Mapping[str, int]
) -> dict[str, RegionSummary]:
    """Region summary of every array under concrete sizes."""
    program.check_sizes(sizes)
    bounds = program.loop.concrete_bounds(sizes)
    domain = Box(
        tuple(lo for lo, _ in bounds), tuple(hi for _, hi in bounds)
    )
    indices = program.loop.indices

    written: dict[str, Box] = {}
    read: dict[str, Box] = {}
    read_offsets: dict[str, list[tuple[int, ...]]] = {}
    write_offsets: dict[str, list[tuple[int, ...]]] = {}

    for stmt in program.body:
        target = stmt.target
        w_off = target.offset_from(indices)
        w_box = domain.shifted(w_off)
        written[target.array] = (
            w_box
            if target.array not in written
            else written[target.array].union_hull(w_box)
        )
        write_offsets.setdefault(target.array, []).append(w_off)
        for ref in stmt.sources:
            r_off = ref.offset_from(indices)
            r_box = domain.shifted(r_off)
            read[ref.array] = (
                r_box
                if ref.array not in read
                else read[ref.array].union_hull(r_box)
            )
            read_offsets.setdefault(ref.array, []).append(r_off)

    summaries: dict[str, RegionSummary] = {}
    for decl in program.arrays:
        name = decl.name
        w_box = written.get(name)
        r_box = read.get(name)
        imported: set[tuple[int, ...]] = set()
        if r_box is not None:
            # An element is imported when some read touches it at an
            # iteration not preceded (lexicographically) by a write of it.
            # With uniform refs and lexicographically positive flow
            # distances this reduces to: the element lies outside the
            # written box, or inside it but its (unique) writing iteration
            # follows the first reading iteration — detected pointwise.
            imported = _imported_elements(
                domain, write_offsets.get(name, []), read_offsets.get(name, [])
            )
        summaries[name] = RegionSummary(
            array=name,
            written=w_box,
            read=r_box,
            imported=frozenset(imported),
            live_out=decl.live_out,
        )
    return summaries


def _imported_elements(domain, write_offsets, read_offsets):
    """Elements read at some iteration before any in-loop write of them."""
    writes: dict[tuple[int, ...], tuple[int, ...]] = {}
    for off in write_offsets:
        for p in domain.points():
            element = tuple(a + b for a, b in zip(p, off))
            prev = writes.get(element)
            if prev is None or p < prev:
                writes[element] = p
    imported: set[tuple[int, ...]] = set()
    for off in read_offsets:
        for p in domain.points():
            element = tuple(a + b for a, b in zip(p, off))
            wp = writes.get(element)
            if wp is None or wp >= p:
                imported.add(element)
    return imported
