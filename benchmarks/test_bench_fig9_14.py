"""Figures 9-14: the scaling experiments, at benchmark-friendly sizes.

The full sweeps live in ``repro.experiments`` (and EXPERIMENTS.md records
their output); here each figure is represented by its *decisive
comparison* at one out-of-cache size per machine, timed and asserted.
"""

import pytest

from repro.execution import simulate

S5_LARGE = {"T": 16, "L": 8192, "tile_h": 16, "tile_w": 32}
PSM_LARGE = {"n0": 384, "n1": 384, "tile_h": 48, "tile_w": 48}


def run_keys(versions, keys, sizes, machine):
    return {
        k: simulate(versions[k], sizes, machine).cycles_per_iteration
        for k in keys
    }


@pytest.mark.parametrize("machine_index", [0, 1, 2],
                         ids=["pentium-pro", "ultra-2", "alpha"])
def test_fig9_11_tiling_wins(
    benchmark, stencil5_versions, scaled_machines, machine_index
):
    machine = scaled_machines[machine_index]
    keys = ("ov", "ov-tiled", "ov-interleaved", "ov-interleaved-tiled")
    cpis = benchmark.pedantic(
        run_keys,
        args=(stencil5_versions, keys, S5_LARGE, machine),
        rounds=2,
        iterations=1,
    )
    best_tiled = min(cpis["ov-tiled"], cpis["ov-interleaved-tiled"])
    best_untiled = min(cpis["ov"], cpis["ov-interleaved"])
    # The paper's central result: tiled OV-mapped wins out of cache.
    assert best_tiled < best_untiled


def test_fig9_11_natural_pages_out(stencil5_versions, scaled_machines):
    """At T*L*8 > memory the natural version's cycles skyrocket and
    tiling does not rescue it (Section 5.2)."""
    machine = scaled_machines[0]
    sizes = {"T": 16, "L": 40960, "tile_h": 16, "tile_w": 32}
    natural = simulate(stencil5_versions["natural"], sizes, machine)
    natural_tiled = simulate(
        stencil5_versions["natural-tiled"], sizes, machine
    )
    ov_tiled = simulate(stencil5_versions["ov-tiled"], sizes, machine)
    assert natural.cycles_per_iteration > 5 * ov_tiled.cycles_per_iteration
    assert (
        natural_tiled.cycles_per_iteration
        > 5 * ov_tiled.cycles_per_iteration
    )
    assert natural.stats.writebacks > 0


def test_fig9_11_ablation_interleaved_associativity(
    stencil5_versions, scaled_machines
):
    """The paper: 'theoretically the interleaved storage will not have
    associativity problems.'  On the direct-mapped Ultra 2 with a
    power-of-two row stride, the consecutive layout thrashes and the
    interleaved one does not."""
    ultra = scaled_machines[1]
    consec = simulate(
        stencil5_versions["ov-tiled"], S5_LARGE, ultra
    ).cycles_per_iteration
    inter = simulate(
        stencil5_versions["ov-interleaved-tiled"], S5_LARGE, ultra
    ).cycles_per_iteration
    assert inter < 0.5 * consec


@pytest.mark.parametrize("machine_index", [0, 1, 2],
                         ids=["pentium-pro", "ultra-2", "alpha"])
def test_fig12_14_psm(benchmark, psm_versions, scaled_machines, machine_index):
    machine = scaled_machines[machine_index]
    keys = ("storage-optimized", "natural", "ov", "ov-tiled")
    cpis = benchmark.pedantic(
        run_keys,
        args=(psm_versions, keys, PSM_LARGE, machine),
        rounds=2,
        iterations=1,
    )
    if machine_index == 0:
        # Pentium Pro: tiled OV-mapped best-or-tied (memory-bound code).
        assert cpis["ov-tiled"] <= 1.05 * min(cpis.values())
    else:
        # In-order machines: branch-bound; tiling moves the needle < 25%.
        assert abs(cpis["ov-tiled"] - cpis["ov"]) <= 0.25 * cpis["ov"]


def test_fig12_14_optimal_uov_extension(psm_versions, scaled_machines):
    """Our searched UOV (1,1) halves storage and never costs performance
    relative to the paper's (2,2)."""
    machine = scaled_machines[0]
    paper = simulate(psm_versions["ov"], PSM_LARGE, machine)
    optimal = simulate(psm_versions["ov-optimal"], PSM_LARGE, machine)
    assert optimal.storage_elements * 2 == paper.storage_elements
    assert (
        optimal.cycles_per_iteration
        <= 1.05 * paper.cycles_per_iteration
    )


def test_ablation_padding_fixes_consecutive_layout(
    stencil5_versions, scaled_machines
):
    """Extension ablation (the paper's array-padding aside, Section 4):
    one cache line of padding between the consecutive layout's class
    blocks removes the direct-mapped thrashing, matching the interleaved
    layout's performance without changing the access pattern."""
    from dataclasses import replace

    from repro.execution import simulate
    from repro.mapping import PaddedOVMapping, pad_for_cache
    from repro.util.polyhedron import Polytope

    ultra = scaled_machines[1]

    def padded_mapping(sizes):
        isg = Polytope.from_box((1, 0), (sizes["T"], sizes["L"] - 1))
        pad = pad_for_cache(
            sizes["L"],
            ultra.l1.line_bytes,
            cache_bytes=ultra.l1.size_bytes,
        )
        return PaddedOVMapping((2, 0), isg, pad=pad)

    base = stencil5_versions["ov-tiled"]
    padded = replace(
        base,
        key="ov-tiled-padded",
        label="OV-Mapped Tiled (padded)",
        mapping_factory=padded_mapping,
    )

    consec = simulate(base, S5_LARGE, ultra).cycles_per_iteration
    fixed = simulate(padded, S5_LARGE, ultra).cycles_per_iteration
    inter = simulate(
        stencil5_versions["ov-interleaved-tiled"], S5_LARGE, ultra
    ).cycles_per_iteration
    assert fixed < 0.5 * consec  # padding kills the thrash
    assert fixed < 1.3 * inter  # and is competitive with interleaving
