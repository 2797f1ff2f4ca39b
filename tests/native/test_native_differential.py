"""Differential suite: native vs interpreter vs vectorized, bit for bit.

The native tier's whole claim is that compiling the generated C changes
*nothing* about the numbers: same storage end-state, same live-out
values, for every code x mapping x schedule combination, at sizes chosen
to be odd / non-power-of-two so flattened indexing and halo geometry
get no accidental alignment help.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.codes import make_jacobi, make_psm, make_simple2d, make_stencil5
from repro.execution import (
    execute,
    execute_native,
    execute_vectorized,
    verify_versions,
)
from repro.frontend import (
    StencilSpec,
    make_versions,
    spec_version,
    synthesize_code,
)

from tests.native.conftest import requires_cc

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples" / "specs").glob(
        "*.json"
    )
)

#: Odd, non-power-of-two sizes per code.
ODD_SIZES = {
    make_stencil5: {"T": 4, "L": 13},
    make_psm: {"n0": 5, "n1": 7},
    make_simple2d: {"n": 5, "m": 7},
    make_jacobi: {"T": 3, "L": 11},
}


def past_the_high_end(distances, expr):
    """A relax3-shaped spec whose (1, -1) reads past the high end of its
    ``row-or-constant`` input line."""
    return StencilSpec.from_json({
        "name": "past-the-high-end",
        "indices": ["i", "j"],
        "bounds": [[1, "n"], [1, "m"]],
        "distances": distances,
        "combine": {"kind": "expr", "expr": expr},
        "inputs": {"kind": "row-or-constant", "axis": 1, "constant": 0.5},
        "sizes": {"n": 4, "m": 5},
        "mapping": "natural",
        "schedule": "lex",
    })


def version_cases():
    cases = []
    for maker, sizes in ODD_SIZES.items():
        for key, version in maker().items():
            cases.append(
                pytest.param(version, sizes, id=f"{version.code.name}-{key}")
            )
    return cases


def example_cases():
    cases = []
    for path in EXAMPLES:
        spec = StencilSpec.load(path)
        code = synthesize_code(spec)
        for key, version in make_versions(code).items():
            cases.append(
                pytest.param(
                    version, dict(spec.sizes), id=f"{spec.name}-{key}"
                )
            )
    return cases


@requires_cc
class TestNativeDifferential:
    @pytest.mark.parametrize("version,sizes", version_cases())
    def test_native_matches_both_engines(self, version, sizes, so_cache):
        native = execute_native(version, sizes, cache_dir=so_cache)
        assert native.engine_used == "native"
        assert native.degradation is None
        scalar = execute(version, sizes)
        vector = execute_vectorized(version, sizes)
        assert np.array_equal(native.storage, scalar.storage)
        assert np.array_equal(native.storage, vector.storage)
        assert np.array_equal(
            native.output_values(), scalar.output_values()
        )

    @pytest.mark.parametrize("version,sizes", example_cases())
    def test_example_specs_match(self, version, sizes, so_cache):
        native = execute_native(version, sizes, cache_dir=so_cache)
        assert native.engine_used == "native"
        reference = execute(version, sizes)
        assert np.array_equal(native.storage, reference.storage)

    @pytest.mark.parametrize(
        "spec",
        [
            # The vectorized engine falls back to the interpreter here...
            past_the_high_end([[1, 0], [1, -1], [0, 1]],
                              "max(0.3*v0 + 0.3*v1 + 0.4*v2, 0.1)"),
            # ...and gathers in row batches here.
            past_the_high_end([[1, 0], [1, -1]], "0.3*v0 + 0.7*v1"),
        ],
        ids=["relax3-shaped", "row-batched"],
    )
    def test_row_or_constant_past_the_high_end(self, spec, so_cache):
        # Every engine reads the input cell clamped into the line.
        version = spec_version(synthesize_code(spec))
        sizes = dict(spec.sizes)
        native = execute_native(version, sizes, cache_dir=so_cache)
        assert native.engine_used == "native"
        scalar = execute(version, sizes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vector = execute_vectorized(version, sizes)
        assert np.array_equal(native.storage, scalar.storage)
        assert np.array_equal(native.storage, vector.storage)

    def test_seeded_inputs_flow_through_halo(self, so_cache):
        # psm's context (weight table, random strings) is seed-dependent;
        # the halo fill and the hook callback must both see the same ctx.
        version = make_psm()["ov-optimal"]
        sizes = {"n0": 5, "n1": 7}
        for seed in (0, 7):
            native = execute_native(
                version, sizes, seed=seed, cache_dir=so_cache
            )
            scalar = execute(version, sizes, seed=seed)
            assert np.array_equal(native.storage, scalar.storage)

    def test_verify_versions_accepts_native(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SO_CACHE", str(tmp_path))
        compiles = obs.get_metrics().counter("native.compiles")
        before = compiles.value
        family = make_stencil5()
        outputs = verify_versions(
            [family["natural"], family["ov"], family["ov-tiled"]],
            {"T": 4, "L": 13},
            engine="native",
        )
        assert outputs.size > 0
        # The three versions are one batch: one object, one compiler run.
        assert compiles.value - before == 1
