#!/usr/bin/env python3
"""Figure 2 rendered: DONE and DEAD sets, and what they mean for storage.

Draws the paper's Figure 2 picture for the reconstructed stencil
``{(1,0), (1,1), (1,-1)}``, then shows the storage mappings the derived
UOVs induce — including the non-prime case's two interleavings (Figure 5
style) — as grids of storage-location numbers you can eyeball.

Run:  python examples/done_dead_sets.py
"""

from repro.core import Stencil, find_optimal_uov
from repro.mapping import OVMapping
from repro.util.polyhedron import Polytope
from repro.viz import render_done_dead, render_mapping, render_stencil


def main() -> None:
    stencil = Stencil([(1, 0), (1, 1), (1, -1)])
    print("the stencil (o = producers of the value * consumes):")
    print(render_stencil(stencil))
    print()

    print("DONE and DEAD sets around q (the paper's Figure 2):")
    print(render_done_dead(stencil, q=(6, 4), bounds=[(0, 7), (0, 8)]))
    print()

    result = find_optimal_uov(stencil)
    print(f"every q-to-D difference is a UOV; the shortest: {result.ov}")
    print()

    isg = Polytope.from_box((0, 0), (5, 7))
    print(f"storage locations under UOV {result.ov} (interleaved):")
    print(render_mapping(OVMapping(result.ov, isg, "interleaved"), [(0, 5), (0, 7)]))
    print()
    print(f"same UOV, consecutive class blocks:")
    print(render_mapping(OVMapping(result.ov, isg, "consecutive"), [(0, 5), (0, 7)]))
    print()
    print(
        "read down any column: the location repeats every 2 rows — points\n"
        f"{result.ov} apart share storage, and nothing closer does."
    )


if __name__ == "__main__":
    main()
