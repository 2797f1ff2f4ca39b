"""The benchmark codes: storage formulas, version structure, equivalence."""

import pytest

from repro.analysis.dependence import extract_stencil
from repro.analysis.legality import check_uov_applicability
from repro.codes import (
    get_spec,
    get_versions,
    make_jacobi,
    make_psm,
    make_simple2d,
    make_stencil5,
)
from repro.core import find_optimal_uov, is_uov
from repro.execution import verify_versions
from repro.frontend import make_versions, synthesize_code

CODES = {
    "simple2d": (make_simple2d, {"n": 7, "m": 9}),
    "stencil5": (make_stencil5, {"T": 5, "L": 18}),
    "psm": (make_psm, {"n0": 8, "n1": 10}),
    "jacobi": (make_jacobi, {"T": 5, "L": 14}),
}


@pytest.mark.parametrize("name", CODES)
class TestEveryCode:
    def test_all_versions_equivalent(self, name):
        maker, sizes = CODES[name]
        verify_versions(maker().values(), sizes, seed=2)

    def test_ir_stencil_matches(self, name):
        maker, _ = CODES[name]
        code = next(iter(maker().values())).code
        assert extract_stencil(code.program) == code.stencil

    def test_applicability(self, name):
        maker, sizes = CODES[name]
        code = next(iter(maker().values())).code
        assert check_uov_applicability(code.program, sizes)

    def test_schedules_are_legal(self, name):
        maker, sizes = CODES[name]
        for key, version in maker().items():
            sched = version.schedule(sizes)
            assert sched.is_legal_for(
                version.code.stencil, version.bounds(sizes)
            ), key

    def test_untilable_versions_marked(self, name):
        maker, _ = CODES[name]
        versions = maker()
        assert not versions["storage-optimized"].tilable
        assert all(
            v.tilable for k, v in versions.items() if k != "storage-optimized"
        )


class TestDeclaredUovs:
    def test_stencil5_uov_is_optimal(self):
        code = next(iter(make_stencil5().values())).code
        result = find_optimal_uov(code.stencil)
        assert result.ov == (2, 0) and result.optimal

    def test_jacobi_uov_is_optimal(self):
        code = next(iter(make_jacobi().values())).code
        result = find_optimal_uov(code.stencil)
        assert result.ov == (2, 0)

    def test_simple2d_uov_is_optimal(self):
        code = next(iter(make_simple2d().values())).code
        assert find_optimal_uov(code.stencil).ov == (1, 1)

    def test_psm_paper_uov_is_initial_not_optimal(self):
        from repro.codes.psm import PSM_OPTIMAL_UOV, PSM_PAPER_UOV

        code = next(iter(make_psm().values())).code
        assert code.stencil.initial_uov == PSM_PAPER_UOV
        assert is_uov(PSM_PAPER_UOV, code.stencil)
        assert find_optimal_uov(code.stencil).ov == PSM_OPTIMAL_UOV


class TestPaperStorageNumbers:
    def test_table1(self):
        sizes = {"T": 16, "L": 100}
        v = make_stencil5()
        assert v["natural"].storage(sizes) == 1600
        assert v["ov"].storage(sizes) == 200
        assert v["ov-interleaved"].storage(sizes) == 200
        assert v["storage-optimized"].storage(sizes) == 103

    def test_table2(self):
        sizes = {"n0": 50, "n1": 60}
        v = make_psm()
        assert v["natural"].storage(sizes) == 3000
        assert v["ov"].storage(sizes) == 2 * (50 + 60 - 1)
        assert v["ov-optimal"].storage(sizes) == 109
        assert v["ov-optimal-tiled"].storage(sizes) == 109
        assert v["storage-optimized"].storage(sizes) == 103
        interchanged = v["storage-optimized"].schedule(sizes)
        assert interchanged.name == "interchange(1, 0)"

    def test_fig1(self):
        sizes = {"n": 10, "m": 20}
        v = make_simple2d()
        assert v["natural"].storage(sizes) == 200
        assert v["ov"].storage(sizes) == 29
        assert v["storage-optimized"].storage(sizes) == 22

    def test_jacobi(self):
        """T*L natural, two rows for the UOV (2, 0), L + 2 rolling."""
        sizes = {"T": 12, "L": 70}
        v = make_jacobi()
        assert v["natural"].storage(sizes) == 12 * 70
        assert v["ov"].storage(sizes) == 2 * 70
        assert v["ov-interleaved"].storage(sizes) == 2 * 70
        assert v["storage-optimized"].storage(sizes) == 70 + 2


class TestTileParameterisation:
    def test_tile_sizes_flow_from_size_binding(self):
        version = make_stencil5()["ov-tiled"]
        sched = version.schedule({"T": 8, "L": 32, "tile_h": 2, "tile_w": 5})
        assert sched.tile_sizes == (2, 5)

    def test_default_tiles(self):
        version = make_psm()["ov-tiled"]
        sched = version.schedule({"n0": 8, "n1": 8})
        assert sched.tile_sizes == (48, 48)

    @pytest.mark.parametrize(
        "name,sizes,tile",
        [
            ("simple2d", {"n": 7, "m": 9}, (16, 16)),
            ("stencil5", {"T": 5, "L": 9}, (8, 64)),
            ("jacobi", {"T": 5, "L": 9}, (8, 64)),
            ("psm", {"n0": 5, "n1": 6}, (48, 48)),
            ("stencil5", {"T": 5, "L": 9, "tile": 4}, (4, 4)),
            ("stencil5", {"T": 5, "L": 9, "tile": 4, "tile_w": 6}, (4, 6)),
            ("psm", {"n0": 5, "n1": 6, "tile_h": 3}, (3, 48)),
        ],
    )
    def test_binding_then_spec_then_registry(self, name, sizes, tile):
        for key, version in get_versions(name).items():
            if version.tiled:
                assert version.schedule(sizes).tile_sizes == tile, key


def _signature(version, sizes):
    """What a version runs: mapping expression and size, schedule, tile."""
    mapping = version.mapping(sizes)
    schedule = version.schedule(sizes)
    variables = version.code.program.loop.indices
    return (
        version.label,
        str(mapping.expression(variables)),
        mapping.size,
        schedule.name,
        getattr(schedule, "tile_sizes", None),
        getattr(schedule, "skew", None),
        version.tiled,
        version.tilable,
    )


def _standard_family(name):
    return make_versions(synthesize_code(get_spec(name)))


#: The rows psm states itself: the searched UOV, tiled and untiled, and
#: the interchanged double-column buffer no spec can describe.
PSM_PAPER_ROWS = {"ov-optimal", "ov-optimal-tiled", "storage-optimized"}


class TestOneFamily:
    """The registered families are the pipeline's, built by one builder."""

    BINDINGS = {
        "simple2d": {"n": 11, "m": 13, "tile_h": 3, "tile_w": 5},
        "stencil5": {"T": 7, "L": 40, "tile_h": 4, "tile_w": 8},
        "jacobi": {"T": 7, "L": 40, "tile_h": 4, "tile_w": 8},
        "psm": {"n0": 12, "n1": 15, "tile_h": 4, "tile_w": 5},
    }

    @pytest.mark.parametrize("name", ["simple2d", "stencil5", "jacobi"])
    def test_registered_family_is_the_standard_one(self, name):
        registered = get_versions(name)
        standard = _standard_family(name)
        assert list(registered) == list(standard)
        for sizes in (dict(get_spec(name).sizes), self.BINDINGS[name]):
            for key in registered:
                assert _signature(registered[key], sizes) == _signature(
                    standard[key], sizes
                ), (key, sizes)

    def test_psm_differs_only_by_its_paper_rows(self):
        registered = get_versions("psm")
        standard = _standard_family("psm")
        assert set(registered) == set(standard) | PSM_PAPER_ROWS
        for sizes in (dict(get_spec("psm").sizes), self.BINDINGS["psm"]):
            for key in set(standard) - PSM_PAPER_ROWS:
                assert _signature(registered[key], sizes) == _signature(
                    standard[key], sizes
                ), (key, sizes)
            for key in PSM_PAPER_ROWS & set(standard):
                assert _signature(registered[key], sizes) != _signature(
                    standard[key], sizes
                ), key


class TestFamilyBuiltOnce:
    """``get_versions`` shares one family per process, never one dict."""

    @pytest.mark.parametrize("name", sorted(CODES))
    def test_new_dict_same_versions(self, name):
        first, second = get_versions(name), get_versions(name)
        assert first is not second
        assert list(first) == list(second)
        assert all(first[key] is second[key] for key in first)

    def test_mutating_a_result_leaves_the_next_call_alone(self):
        from repro.codes import get_version

        versions = get_versions("stencil5")
        keys = list(versions)
        ov = versions.pop("ov")
        versions["natural"] = ov
        versions["extra"] = ov
        again = get_versions("stencil5")
        assert list(again) == keys
        assert again["ov"] is ov and again["natural"] is not ov
        assert get_version("stencil5", "natural") is again["natural"]
        with pytest.raises(KeyError, match="unknown version"):
            get_version("stencil5", "extra")
