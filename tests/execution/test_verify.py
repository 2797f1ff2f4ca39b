"""Cross-version verification must both pass good versions and catch bad."""

from dataclasses import replace

import pytest

from repro.codes import make_simple2d, make_stencil5
from repro.execution.verify import VersionMismatch, verify_versions
from repro.mapping import OVMapping
from repro.util.polyhedron import Polytope


class TestVerify:
    def test_all_good_versions_agree(self):
        out = verify_versions(
            make_simple2d().values(), {"n": 6, "m": 7}
        )
        assert out.shape == (7,)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            verify_versions([], {"n": 2, "m": 2})

    def test_broken_mapping_is_caught(self):
        """Swap in a non-universal OV under a tiled schedule: values get
        clobbered and the verifier must name the offender."""
        versions = make_simple2d()
        good = [versions["natural"], versions["ov"]]

        def bad_mapping(sizes):
            isg = Polytope.from_loop_bounds(
                ((1, sizes["n"]), (1, sizes["m"]))
            )
            return OVMapping((1, 0), isg)  # NOT a UOV for this stencil

        bad = replace(
            versions["ov-tiled"],
            key="ov-broken",
            mapping_factory=bad_mapping,
        )
        with pytest.raises(VersionMismatch, match="ov-broken"):
            verify_versions([*good, bad], {"n": 6, "m": 7})

    def test_mismatched_output_shape_caught(self):
        versions = make_stencil5()

        def tiny_outputs(sizes):
            return [(sizes["T"], 0)]

        bad_code = replace(
            versions["ov"].code, output_points=tiny_outputs
        )
        bad = replace(versions["ov"], key="short", code=bad_code)
        with pytest.raises(VersionMismatch, match="short"):
            verify_versions(
                [versions["natural"], bad], {"T": 3, "L": 8}
            )
