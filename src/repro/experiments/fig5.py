"""Figure 5 — the 5-point stencil's non-prime UOV and its two layouts.

The UOV of the 5-point stencil is ``(2,0)``: it passes through one
interior lattice point, so there are ``gcd = 2`` storage classes along it
(Section 4.2).  The paper gives both storage mappings explicitly:

- interleaved: ``SM(q) = (0,2) . q + (q1 mod 2)``
- consecutive: ``SM(q) = (0,1) . q + (q1 mod 2) * L``

This experiment verifies the paper's formulas verbatim (mapping vector,
modterm, allocation = two rows) and that the branch-and-bound search
produces ``(2,0)`` as the optimal UOV.
"""

from __future__ import annotations

from repro.codes.stencil5 import STENCIL5_DISTANCES, STENCIL5_UOV
from repro.core import Stencil, find_optimal_uov, is_uov
from repro.experiments.harness import ExperimentResult
from repro.mapping import OVMapping
from repro.util.polyhedron import Polytope

TITLE = "Figure 5: non-prime UOV (2,0), interleaved vs consecutive"


def run(mode: str = "quick") -> ExperimentResult:
    t_steps, length = (32, 256) if mode == "full" else (6, 24)
    stencil = Stencil(STENCIL5_DISTANCES)
    isg = Polytope.from_box((1, 0), (t_steps, length - 1))
    inter = OVMapping(STENCIL5_UOV, isg, layout="interleaved")
    consec = OVMapping(STENCIL5_UOV, isg, layout="consecutive")
    result = ExperimentResult("fig5", TITLE, mode)

    result.tables["mappings"] = [
        ["layout", "mapping vector", "expression", "allocated"],
        [
            "interleaved",
            str(inter.mapping_vector),
            inter.expression(["t", "x"]).to_python(),
            str(inter.size),
        ],
        [
            "consecutive",
            str(consec.mapping_vector),
            consec.expression(["t", "x"]).to_python(),
            str(consec.size),
        ],
    ]

    search = find_optimal_uov(stencil)
    result.notes.append(f"search over the 5-point stencil: {search}")

    result.claim(
        "(2,0) is a UOV of the 5-point stencil",
        lambda: is_uov(STENCIL5_UOV, stencil),
    )
    result.claim(
        "the search finds (2,0) as the optimal UOV",
        lambda: search.ov == (2, 0) and search.optimal,
    )
    result.claim(
        "the interleaved mapping vector is (0,2) (paper Figure 5)",
        lambda: inter.mapping_vector == (0, 2),
    )
    result.claim(
        "the interleaved expression is 2*x + t mod 2 (paper Section 4.2)",
        lambda: inter.expression(["t", "x"]).to_python()
        in ("2 * x + t % 2", "2 * x + (t % 2)"),
    )
    result.claim(
        "the consecutive expression is x + (t mod 2)*L",
        lambda: consec.expression(["t", "x"]).to_python()
        == f"x + {length} * (t % 2)"
        or consec.expression(["t", "x"]).to_python()
        == f"x + (t % 2) * {length}",
    )
    result.claim(
        "both layouts allocate exactly two rows (2L)",
        lambda: inter.size == consec.size == 2 * length,
    )
    result.claim(
        "q and q+(2,0) share a location; q and q+(1,0) do not",
        lambda: inter((3, 5)) == inter((5, 5))
        and inter((3, 5)) != inter((4, 5))
        and consec((3, 5)) == consec((5, 5))
        and consec((3, 5)) != consec((4, 5)),
    )
    return result
