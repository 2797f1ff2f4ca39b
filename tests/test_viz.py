"""ASCII renderers."""

import pytest

from repro.core.stencil import Stencil
from repro.mapping import OVMapping, RowMajorMapping
from repro.util.polyhedron import Polytope
from repro.viz import render_done_dead, render_mapping, render_stencil


class TestStencilRendering:
    def test_fig1(self, fig1_stencil):
        art = render_stencil(fig1_stencil)
        assert art.count("o") == 3
        assert art.count("*") == 1

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            render_stencil(Stencil([(1, 0, 0)]))


class TestDoneDeadRendering:
    def test_markers_present(self, fig2_stencil):
        art = render_done_dead(fig2_stencil, (6, 4), [(0, 7), (0, 8)])
        assert art.count("q") >= 1
        assert "#" in art and "D" in art and "." in art

    def test_dead_is_inside_done_region(self, fig1_stencil):
        # every D and # sits at lexicographically earlier rows than q
        art = render_done_dead(fig1_stencil, (4, 4), [(0, 5), (0, 5)])
        rows = art.splitlines()[:6]
        q_row = next(i for i, r in enumerate(rows) if "q" in r)
        for i, row in enumerate(rows):
            if i > q_row:
                assert "D" not in row and "#" not in row

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            render_done_dead(
                Stencil([(1, 0, 0)]), (0, 0, 0), [(0, 1)] * 3
            )


class TestMappingRendering:
    def test_ov_grid_shows_reuse(self):
        isg = Polytope.from_box((0, 0), (5, 7))
        art = render_mapping(
            OVMapping((2, 0), isg, "consecutive"), [(0, 5), (0, 7)]
        )
        lines = art.splitlines()
        assert lines[0] == lines[2] == lines[4]  # period two down columns
        assert lines[1] == lines[3] == lines[5]
        assert lines[0] != lines[1]

    def test_natural_grid_is_sequential(self):
        art = render_mapping(RowMajorMapping((2, 3)), [(0, 1), (0, 2)])
        assert art.split() == [str(k) for k in range(6)]

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            render_mapping(RowMajorMapping((2, 2, 2)), [(0, 1)] * 3)
