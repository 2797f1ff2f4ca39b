"""Address tracing and the trace-driven simulator."""

import dataclasses
import functools
import json
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.codes import get_versions, make_psm, make_stencil5
from repro.execution import simulator as simulator_mod
from repro.execution import trace as trace_mod
from repro.execution.simulator import simulate
from repro.execution.trace import (
    ELEMENT_BYTES,
    TraceLayout,
    line_blocks,
    line_trace,
    trace_length,
)
from repro.machine import PENTIUM_PRO

SPEC_DIR = Path(__file__).resolve().parents[2] / "examples" / "specs"
#: The example specs, traced through every version ``make_versions``
#: derives for them (their tiled versions use the registry's skew).
SPEC_CODES = ("heat7", "relax3")

#: Odd extents, so blocks end mid-row and mid-tile.
ARRAY_SIZES = {
    "simple2d": {"n": 11, "m": 13},
    "stencil5": {"T": 5, "L": 37},
    "psm": {"n0": 9, "n1": 14, "tile_h": 4, "tile_w": 5},
    "jacobi": {"T": 5, "L": 37},
    "heat7": {"T": 5, "L": 29},
    "relax3": {"n": 9, "m": 13},
}


@functools.lru_cache(maxsize=None)
def versions_of(code_name):
    if code_name in SPEC_CODES:
        from repro.frontend import StencilSpec, synthesize_code
        from repro.frontend.synth import make_versions

        spec = StencilSpec.load(SPEC_DIR / f"{code_name}.json")
        return make_versions(synthesize_code(spec))
    return get_versions(code_name)


ALL_VERSIONS = [
    (code, key) for code in ARRAY_SIZES for key in versions_of(code)
]


class TestLayout:
    def test_regions_do_not_overlap(self):
        version = make_psm()["ov"]
        sizes = {"n0": 30, "n1": 30}
        layout = TraceLayout.for_version(version, sizes)
        storage_end = (
            layout.storage_base
            + version.mapping(sizes).size * ELEMENT_BYTES
        )
        assert layout.input_base >= storage_end
        assert layout.table_base > layout.input_base


class TestTrace:
    def test_uncollapsed_length(self):
        version = make_stencil5()["ov"]
        sizes = {"T": 3, "L": 10}
        trace = list(
            line_trace(version, sizes, line_bytes=32, collapse=False)
        )
        assert len(trace) == trace_length(version, sizes)
        # 5 loads + 1 store per iteration, 30 iterations
        assert len(trace) == 6 * 30

    def test_psm_includes_table_reads(self):
        version = make_psm()["natural"]
        sizes = {"n0": 4, "n1": 4}
        assert trace_length(version, sizes) == (3 + 3 + 1) * 16

    def test_collapse_preserves_simulation(self):
        """Collapsing consecutive identical lines is exact for every
        LRU level: same misses, same stalls (only access counts drop)."""
        version = make_stencil5()["ov"]
        sizes = {"T": 4, "L": 32}
        machine = PENTIUM_PRO.scaled(64)

        def run(collapse):
            h = machine.build_hierarchy()
            for line in line_trace(
                version, sizes, machine.l1.line_bytes, collapse=collapse
            ):
                h.access_line(line)
            return h

        full = run(False)
        collapsed = run(True)
        assert full.l1.misses == collapsed.l1.misses
        assert full.l2.misses == collapsed.l2.misses
        assert full.stall_cycles == collapsed.stall_cycles

    def test_trace_is_deterministic(self):
        version = make_psm()["ov"]
        sizes = {"n0": 6, "n1": 6}
        a = list(line_trace(version, sizes, 32, seed=1))
        b = list(line_trace(version, sizes, 32, seed=1))
        assert a == b


class TestArrayPath:
    """The array path (blocks of points through NumPy) against the
    scalar walk, its oracle."""

    @pytest.mark.parametrize("code_name,key", ALL_VERSIONS)
    def test_blocks_equal_the_scalar_walk(self, code_name, key, monkeypatch):
        version = versions_of(code_name)[key]
        sizes = ARRAY_SIZES[code_name]
        # Blocks of 7 points: many boundaries, none aligned to a row.
        monkeypatch.setattr(trace_mod, "BLOCK_POINTS", 7)
        for collapse in (True, False):
            scalar = list(
                line_trace(version, sizes, 32, seed=2, collapse=collapse,
                           batched=False)
            )
            blocks = list(
                line_blocks(version, sizes, 32, seed=2, collapse=collapse)
            )
            assert all(b.dtype == np.int64 for b in blocks)
            assert np.concatenate(blocks).tolist() == scalar
            assert list(
                line_trace(version, sizes, 32, seed=2, collapse=collapse,
                           batched=True)
            ) == scalar

    @pytest.mark.parametrize("code_name,key", ALL_VERSIONS)
    def test_single_point_blocks_equal_the_scalar_walk(
        self, code_name, key, monkeypatch
    ):
        # One point per block: every tile is split down to its points.
        version = versions_of(code_name)[key]
        sizes = ARRAY_SIZES[code_name]
        monkeypatch.setattr(trace_mod, "BLOCK_POINTS", 1)
        for collapse in (True, False):
            blocks = list(
                line_blocks(version, sizes, 32, seed=2, collapse=collapse)
            )
            assert np.concatenate(blocks).tolist() == list(
                line_trace(version, sizes, 32, seed=2, collapse=collapse,
                           batched=False)
            )

    def test_collapse_carries_across_a_block_boundary(self, monkeypatch):
        version = make_stencil5()["ov-interleaved"]
        sizes = {"T": 3, "L": 16}
        monkeypatch.setattr(trace_mod, "BLOCK_POINTS", 1)
        raw = list(line_blocks(version, sizes, 32, collapse=False))
        # Some boundary splits a run of equal lines: one point's store
        # and the next point's first load share a line.
        assert any(a[-1] == b[0] for a, b in zip(raw, raw[1:]))
        collapsed = np.concatenate(
            list(line_blocks(version, sizes, 32, collapse=True))
        )
        assert np.all(collapsed[1:] != collapsed[:-1])
        assert collapsed.tolist() == list(
            line_trace(version, sizes, 32, batched=False)
        )

    def test_codes_without_batch_hooks_get_the_scalar_walk(self):
        version = make_psm()["ov-tiled"]
        stripped = dataclasses.replace(
            version,
            code=dataclasses.replace(
                version.code, extra_read_offsets_batch=None
            ),
        )
        sizes = ARRAY_SIZES["psm"]
        blocks = np.concatenate(list(line_blocks(stripped, sizes, 32)))
        assert blocks.tolist() == list(
            line_trace(version, sizes, 32, batched=False)
        )

    def test_mappings_without_the_affine_mod_form_get_the_scalar_walk(self):
        from repro.mapping.expr import Const, Mod

        class NestedMod:
            """The OV mapping, written with a redundant outer mod."""

            def __init__(self, inner):
                self.inner = inner
                self.dim, self.size = inner.dim, inner.size

            def __call__(self, point):
                return self.inner(point)

            def expression(self, names):
                once = Mod.make(self.inner.expression(names), Const(10**9))
                return Mod.make(once, Const(10**9))

            def compiled(self):
                return self.inner.compiled()

        version = make_stencil5()["ov-tiled"]
        nested = dataclasses.replace(
            version,
            mapping_factory=lambda sizes: NestedMod(version.mapping(sizes)),
        )
        sizes = ARRAY_SIZES["stencil5"]
        expected = list(line_trace(version, sizes, 32, batched=False))
        blocks = np.concatenate(list(line_blocks(nested, sizes, 32)))
        assert blocks.tolist() == expected
        with pytest.raises(ValueError, match="affine-mod form"):
            list(line_trace(nested, sizes, 32, batched=True))


class TestSimulator:
    def test_result_fields(self):
        version = make_stencil5()["ov"]
        sizes = {"T": 4, "L": 64}
        r = simulate(version, sizes, PENTIUM_PRO.scaled(64))
        assert r.iterations == 4 * 64
        assert r.cycles_per_iteration == pytest.approx(
            r.compute_cycles + r.stall_cycles_per_iteration
        )
        assert r.storage_elements == 2 * 64
        assert "cyc/iter" in str(r)

    def test_warm_pass_reduces_stalls(self):
        version = make_stencil5()["ov"]
        sizes = {"T": 4, "L": 32}
        cold = simulate(version, sizes, PENTIUM_PRO, passes=1)
        warm = simulate(version, sizes, PENTIUM_PRO, passes=2)
        assert (
            warm.stall_cycles_per_iteration
            < cold.stall_cycles_per_iteration
        )
        # in-cache problem: steady state is virtually stall-free
        assert warm.stall_cycles_per_iteration < 1.0

    def test_tiled_version_charges_overhead(self):
        versions = make_stencil5()
        sizes = {"T": 4, "L": 32}
        flat = simulate(versions["ov"], sizes, PENTIUM_PRO, passes=2)
        tiled = simulate(versions["ov-tiled"], sizes, PENTIUM_PRO, passes=2)
        assert tiled.compute_cycles == pytest.approx(
            flat.compute_cycles + PENTIUM_PRO.cost.tile_overhead_cycles
        )

    def test_two_passes_build_one_trace(self, monkeypatch):
        """``passes=2`` builds the trace once and replays it, and gives
        what playing the trace twice through the Python hierarchy does."""
        version = make_stencil5()["ov-interleaved-tiled"]
        sizes = {"T": 6, "L": 48, "tile_h": 4, "tile_w": 8}
        machine = PENTIUM_PRO.scaled(64)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return line_blocks(*args, **kwargs)

        monkeypatch.setattr(simulator_mod, "line_blocks", spy)
        result = simulate(version, sizes, machine, seed=5, passes=2)
        assert len(calls) == 1

        lines = list(line_trace(version, sizes, machine.l1.line_bytes,
                                seed=5, batched=False))
        oracle = machine.build_hierarchy()
        oracle.run_line_trace(lines)
        before = oracle.stall_cycles
        oracle.run_line_trace(lines)
        stats = dataclasses.replace(
            oracle.stats(), stall_cycles=oracle.stall_cycles - before
        )
        stall = stats.stall_cycles / result.iterations
        assert result == dataclasses.replace(
            result,
            stats=stats,
            stall_cycles_per_iteration=stall,
            cycles_per_iteration=result.compute_cycles + stall,
        )
        assert result.stats.accesses == 2 * len(lines)

    def test_one_context_per_simulate(self):
        version = make_psm()["ov-tiled"]
        seeds = []

        def make_context(sizes, seed):
            seeds.append(seed)
            return version.code.make_context(sizes, seed)

        spied = dataclasses.replace(
            version,
            code=dataclasses.replace(version.code, make_context=make_context),
        )
        sizes = ARRAY_SIZES["psm"]
        for passes in (1, 2):
            seeds.clear()
            simulate(spied, sizes, PENTIUM_PRO.scaled(64), seed=3,
                     passes=passes)
            assert seeds == [3]

    def test_invalid_passes(self):
        version = make_stencil5()["ov"]
        with pytest.raises(ValueError):
            simulate(version, {"T": 2, "L": 8}, PENTIUM_PRO, passes=0)

    def test_larger_problem_never_cheaper_memory(self):
        """Cycles/iter grows (weakly) with problem size for the untiled
        streaming versions: the knee structure of Figures 9-11."""
        version = make_stencil5()["ov"]
        machine = PENTIUM_PRO.scaled(64)
        cpis = [
            simulate(version, {"T": 8, "L": length}, machine).cycles_per_iteration
            for length in (64, 512, 4096)
        ]
        assert cpis[0] <= cpis[1] * 1.02 <= cpis[2] * 1.05

    def test_span_splits_trace_and_hierarchy_time(self, tmp_path):
        """The ``simulate`` span says which hierarchy ran and how its
        wall time split between making trace blocks and playing them."""
        path = tmp_path / "trace.jsonl"
        obs.reset()
        obs.configure(trace_path=str(path), program="unit")
        try:
            version = make_stencil5()["ov"]
            simulate(version, {"T": 4, "L": 64}, PENTIUM_PRO.scaled(64),
                     passes=2)
        finally:
            obs.shutdown()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        (span,) = [r for r in records
                   if r["type"] == "span" and r["name"] == "simulate"]
        attrs = span["attrs"]
        assert attrs["hierarchy"] in ("kernel", "python")
        assert attrs["trace_s"] > 0 and attrs["hierarchy_s"] > 0
        assert attrs["trace_s"] + attrs["hierarchy_s"] <= span["wall_s"]
        counters = records[-1]["snapshot"]["counters"]
        assert counters[f"simulate.hierarchy.{attrs['hierarchy']}"] == 1
        obs.reset()
