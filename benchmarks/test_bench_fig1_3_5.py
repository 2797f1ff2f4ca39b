"""Figures 1, 3, 5: the worked examples, timed end to end."""

from repro.core import Stencil, find_optimal_uov, storage_for_ov
from repro.experiments.fig3 import FIG2_STENCIL, FIG3_ISG_VERTICES
from repro.mapping import OVMapping
from repro.util.polyhedron import Polytope


def fig1_example():
    stencil = Stencil([(1, 0), (0, 1), (1, 1)])
    search = find_optimal_uov(stencil)
    isg = Polytope.from_box((1, 1), (60, 80))
    mapping = OVMapping(search.ov, isg)
    return search, mapping


def test_fig1_search_and_map(benchmark):
    search, mapping = benchmark(fig1_example)
    assert search.ov == (1, 1)
    assert mapping.size == 60 + 80 - 1
    assert mapping.op_cost().muls == 0


def fig3_both_searches():
    stencil = Stencil(FIG2_STENCIL)
    isg = Polytope(FIG3_ISG_VERTICES)
    return (
        find_optimal_uov(stencil, isg=isg),
        find_optimal_uov(stencil),
        storage_for_ov((3, 0), isg),
    )


def test_fig3_known_bounds(benchmark):
    bounded, shortest, short_ov_storage = benchmark(fig3_both_searches)
    assert bounded.ov == (3, 1) and bounded.storage == 16
    assert short_ov_storage == 27
    assert shortest.objective <= 9


def fig5_mappings():
    stencil = Stencil([(1, -2), (1, -1), (1, 0), (1, 1), (1, 2)])
    search = find_optimal_uov(stencil)
    isg = Polytope.from_box((1, 0), (64, 1023))
    inter = OVMapping(search.ov, isg, layout="interleaved")
    consec = OVMapping(search.ov, isg, layout="consecutive")
    return search, inter, consec


def test_fig5_nonprime_layouts(benchmark):
    search, inter, consec = benchmark(fig5_mappings)
    assert search.ov == (2, 0)
    assert inter.size == consec.size == 2 * 1024
    assert inter.mapping_vector == (0, 2)
    assert consec.mapping_vector == (0, 1)
