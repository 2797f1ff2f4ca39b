"""Tables 1 and 2: storage-requirement computation.

Times the full pipeline behind each table row — stencil extraction, UOV
choice, mapping construction, allocation count — and asserts the paper's
formulas.
"""

from repro.analysis.dependence import extract_stencil
from repro.core import find_optimal_uov
from repro.mapping import OVMapping
from repro.util.polyhedron import Polytope

T_STEPS, LENGTH = 64, 4096
N0, N1 = 512, 640


def table1_rows(versions):
    sizes = {"T": T_STEPS, "L": LENGTH}
    return {
        key: versions[key].mapping(sizes).size
        for key in ("natural", "ov", "ov-interleaved", "storage-optimized")
    }


def test_table1_storage(benchmark, stencil5_versions):
    rows = benchmark(table1_rows, stencil5_versions)
    assert rows["natural"] == T_STEPS * LENGTH
    assert rows["ov"] == 2 * LENGTH
    assert rows["ov-interleaved"] == 2 * LENGTH
    assert rows["storage-optimized"] == LENGTH + 3


def table2_rows(versions):
    sizes = {"n0": N0, "n1": N1}
    return {
        key: versions[key].mapping(sizes).size
        for key in ("natural", "ov", "ov-optimal", "storage-optimized")
    }


def test_table2_storage(benchmark, psm_versions):
    rows = benchmark(table2_rows, psm_versions)
    assert rows["natural"] == N0 * N1
    assert rows["ov"] == 2 * (N0 + N1 - 1)  # paper: 2n0+2n1+1 w/ borders
    assert rows["ov-optimal"] == N0 + N1 - 1
    assert rows["storage-optimized"] == 2 * N0 + 3


def full_pipeline(versions):
    """Stencil extraction -> UOV search -> mapping, as a compiler would."""
    code = versions["ov"].code
    stencil = extract_stencil(code.program)
    result = find_optimal_uov(stencil)
    isg = Polytope.from_loop_bounds(code.bounds({"T": T_STEPS, "L": LENGTH}))
    return OVMapping(result.ov, isg, layout="consecutive")


def test_compile_pipeline(benchmark, stencil5_versions):
    mapping = benchmark(full_pipeline, stencil5_versions)
    assert mapping.ov == (2, 0)
    assert mapping.size == 2 * LENGTH
