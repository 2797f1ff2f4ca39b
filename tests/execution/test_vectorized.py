"""The vectorized engine is bit-identical to the scalar interpreter.

Every CodeVersion of every benchmark code, plus wavefront-rescheduled
variants (the schedules under which PSM's stencil *does* batch), must
produce ``np.array_equal`` storage and live-out values through
:func:`execute_vectorized` and :func:`execute`.  Versions whose
(code, schedule) pair exposes no batch structure must degrade to the
scalar interpreter with a :class:`VectorizationFallback` warning — and
still agree, trivially.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.codes import MAKERS
from repro.execution import (
    VectorizationFallback,
    execute,
    execute_vectorized,
)
from repro.schedule import WavefrontSchedule

SIZES = {
    "simple2d": {"n": 13, "m": 11},
    "stencil5": {"T": 9, "L": 14},
    "psm": {"n0": 9, "n1": 12, "tile": 4},
    "jacobi": {"T": 8, "L": 11},
}


@pytest.fixture(autouse=True)
def _fresh_warning_dedup():
    """Fallback warnings deduplicate per process; tests want them fresh."""
    from repro import obs

    obs.reset_dedup()
    yield
    obs.reset_dedup()

ALL_VERSIONS = [
    pytest.param(code_name, key, id=f"{code_name}-{key}")
    for code_name, maker in MAKERS.items()
    for key in maker()
]

#: (code, version, wavefront weights) — legal wavefronts for the code's
#: stencil, including the schedules that batch PSM (lex/interchange do
#: not, because its stencil spans both axes).
WAVEFRONT_CASES = [
    pytest.param("stencil5", "ov", (3, 1), id="stencil5-ov-wf31"),
    pytest.param("stencil5", "natural", (3, 1), id="stencil5-natural-wf31"),
    pytest.param("psm", "ov", (1, 1), id="psm-ov-wf11"),
    pytest.param("psm", "ov-optimal", (2, 1), id="psm-ov-optimal-wf21"),
    pytest.param("jacobi", "ov", (2, 1), id="jacobi-ov-wf21"),
]


def _agree(v, sizes):
    reference = execute(v, sizes, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", VectorizationFallback)
        vectorized = execute_vectorized(v, sizes, seed=3)
    assert np.array_equal(reference.storage, vectorized.storage)
    assert np.array_equal(
        reference.output_values(), vectorized.output_values()
    )


@pytest.mark.parametrize("code_name,key", ALL_VERSIONS)
def test_bit_identical_to_interpreter(code_name, key):
    v = MAKERS[code_name]()[key]
    _agree(v, SIZES[code_name])


@pytest.mark.parametrize("code_name,key,weights", WAVEFRONT_CASES)
def test_bit_identical_under_wavefront(code_name, key, weights):
    base = MAKERS[code_name]()[key]
    v = dataclasses.replace(
        base,
        key=f"{key}-wavefront",
        schedule_factory=lambda sizes: WavefrontSchedule(weights),
    )
    # Wavefront fronts are dependence-free by construction, so these runs
    # must take the batched path — no fallback allowed.
    reference = execute(v, SIZES[code_name], seed=3)
    vectorized = execute_vectorized(v, SIZES[code_name], seed=3, fallback=False)
    assert np.array_equal(reference.storage, vectorized.storage)
    assert np.array_equal(
        reference.output_values(), vectorized.output_values()
    )


def test_stencil5_takes_the_batched_path():
    """The flagship perf case must never silently fall back."""
    for key, v in MAKERS["stencil5"]().items():
        execute_vectorized(v, SIZES["stencil5"], fallback=False)


class TestFallback:
    def test_unbatchable_schedule_warns_and_degrades(self):
        # PSM's stencil spans both axes, so lexicographic order has no
        # dependence-free prefix batches.
        v = MAKERS["psm"]()["natural"]
        with pytest.warns(VectorizationFallback, match="scalar interpreter"):
            result = execute_vectorized(v, SIZES["psm"])
        reference = execute(v, SIZES["psm"])
        assert np.array_equal(result.storage, reference.storage)

    def test_fallback_false_raises(self):
        v = MAKERS["psm"]()["natural"]
        with pytest.raises(ValueError, match="cannot vectorize"):
            execute_vectorized(v, SIZES["psm"], fallback=False)

    def test_fallback_warning_deduplicates_but_counts(self):
        # One Python warning per (code, schedule) pair per process; the
        # metrics counter still sees every occurrence.
        from repro import obs

        v = MAKERS["psm"]()["natural"]
        before = obs.get_metrics().counter("vectorized.fallbacks").value
        with pytest.warns(VectorizationFallback):
            execute_vectorized(v, SIZES["psm"])
        with warnings.catch_warnings():
            warnings.simplefilter("error", VectorizationFallback)
            execute_vectorized(v, SIZES["psm"])  # deduplicated: no raise
        after = obs.get_metrics().counter("vectorized.fallbacks").value
        assert after == before + 2

    def test_code_without_batched_combine_warns(self):
        v = MAKERS["stencil5"]()["ov"]
        stripped = dataclasses.replace(
            v, code=dataclasses.replace(v.code, combine_batch=None)
        )
        with pytest.warns(VectorizationFallback, match="no batched combine"):
            result = execute_vectorized(stripped, SIZES["stencil5"])
        reference = execute(v, SIZES["stencil5"])
        assert np.array_equal(result.storage, reference.storage)


class TestBatchedTrace:
    @pytest.mark.parametrize("code_name,key", ALL_VERSIONS)
    def test_same_line_sequence(self, code_name, key):
        from repro.execution import line_trace

        v = MAKERS[code_name]()[key]
        sizes = SIZES[code_name]
        for collapse in (True, False):
            scalar = list(
                line_trace(v, sizes, 32, collapse=collapse, batched=False)
            )
            auto = list(line_trace(v, sizes, 32, collapse=collapse))
            assert scalar == auto

    def test_batched_true_raises_when_unavailable(self):
        # The array path needs the code's batch address hooks (not
        # dependence-free batches): without them only the scalar walk
        # remains.
        from repro.execution import line_trace

        v = MAKERS["psm"]()["natural"]
        stripped = dataclasses.replace(
            v, code=dataclasses.replace(v.code, input_offsets_batch=None)
        )
        with pytest.raises(ValueError, match="no batched trace path"):
            list(line_trace(stripped, SIZES["psm"], 32, batched=True))
        scalar = list(line_trace(v, SIZES["psm"], 32, batched=False))
        assert list(line_trace(stripped, SIZES["psm"], 32)) == scalar

    def test_stencil5_trace_is_batched(self):
        from repro.execution import line_trace

        v = MAKERS["stencil5"]()["ov"]
        batched = list(line_trace(v, SIZES["stencil5"], 32, batched=True))
        scalar = list(line_trace(v, SIZES["stencil5"], 32, batched=False))
        assert batched == scalar


def test_check_legality_rejects_illegal_pairs():
    # A rolling buffer is schedule-dependent: tiling it is illegal, and
    # the vectorized engine's legality gate must say so just like the
    # scalar one does.
    import dataclasses as dc

    from repro.schedule import TiledSchedule

    v = MAKERS["stencil5"]()["storage-optimized"]
    tiled = dc.replace(
        v,
        key="storage-optimized-tiled",
        schedule_factory=lambda sizes: TiledSchedule((4, 4)),
        tiled=True,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", VectorizationFallback)
        with pytest.raises(ValueError, match="illegal"):
            execute_vectorized(tiled, SIZES["stencil5"], check_legality=True)
