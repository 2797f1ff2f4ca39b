"""Algorithm-level benchmarks and ablations.

- cone-membership backends: hand-rolled DFS vs scipy MILP;
- the branch-and-bound search on the paper's stencils and on the
  adversarial NP-completeness instances;
- search-objective ablation (shortest vs known-bounds storage);
- mapping-evaluation throughput: interpreted vs compiled address paths.
"""

import random

import pytest

from repro.core import Stencil, find_optimal_uov
from repro.core.cone import ConeSolver
from repro.core.npcomplete import reduction_from_partition
from repro.mapping import OVMapping
from repro.util.polyhedron import Polytope

FIG2 = Stencil([(1, 0), (1, 1), (1, -1)])
STENCIL5 = Stencil([(1, -2), (1, -1), (1, 0), (1, 1), (1, 2)])
FIG3_ISG = Polytope([(1, 1), (1, 6), (10, 9), (10, 4)])


@pytest.mark.parametrize("backend", ["dfs", "milp"])
def test_cone_backend(benchmark, backend):
    """Ablation: the two integer-feasibility backends on one workload."""
    targets = [
        (t, x) for t in range(0, 7) for x in range(-6, 7)
    ]

    def solve_all():
        solver = ConeSolver(STENCIL5.vectors, backend=backend)
        return sum(solver.solve(t) is not None for t in targets)

    feasible = benchmark(solve_all)
    assert feasible == sum(
        1
        for t in targets
        if ConeSolver(STENCIL5.vectors).solve(t) is not None
    )


@pytest.mark.parametrize(
    "stencil,expected",
    [
        (Stencil([(1, 0), (0, 1), (1, 1)]), (1, 1)),
        (STENCIL5, (2, 0)),
        (FIG2, (2, 0)),
    ],
    ids=["fig1", "stencil5", "fig2"],
)
def test_search_shortest(benchmark, stencil, expected):
    result = benchmark(find_optimal_uov, stencil)
    assert result.ov == expected and result.optimal


def test_search_known_bounds(benchmark):
    """Ablation: the storage objective explores a larger region than the
    shortest-vector objective but stays cheap."""
    result = benchmark(find_optimal_uov, FIG2, FIG3_ISG)
    assert result.ov == (3, 1) and result.storage == 16
    shortest = find_optimal_uov(FIG2)
    assert result.nodes_visited >= shortest.nodes_visited


def test_npc_instance(benchmark):
    """The adversarial reduction instances stay tractable for MILP."""
    rng = random.Random(17)
    values = [rng.randint(1, 25) for _ in range(8)]
    stencil, w = reduction_from_partition(values)

    def solve():
        return ConeSolver(stencil.vectors, backend="milp").solve(w)

    cert = benchmark(solve)
    from repro.core.npcomplete import partition_solvable

    assert (cert is not None) == partition_solvable(values)


def test_mapping_throughput_compiled(benchmark):
    """The compiled address path the simulator uses vs direct calls."""
    isg = Polytope.from_box((1, 0), (64, 1023))
    mapping = OVMapping((2, 0), isg, layout="consecutive")
    f = mapping.compiled()
    points = [(t, x) for t in range(1, 33) for x in range(0, 1024, 8)]

    def run():
        total = 0
        for t, x in points:
            total += f(t, x)
        return total

    total = benchmark(run)
    assert total == sum(mapping(p) for p in points)
