"""Padded OV mappings: layout changes, semantics preserved."""

import pytest

from repro.analysis.liveness import is_mapping_legal
from repro.core.stencil import Stencil
from repro.mapping import OVMapping, PaddedOVMapping, pad_for_cache
from repro.schedule import TiledSchedule, required_skew
from repro.util.polyhedron import Polytope


def isg(t=8, length=16):
    return Polytope.from_box((1, 0), (t, length - 1))


class TestSemantics:
    @pytest.mark.parametrize("pad", [0, 1, 4, 7])
    def test_storage_equivalence_preserved(self, pad):
        pm = PaddedOVMapping((2, 0), isg(), pad=pad)
        for t in range(1, 7):
            for x in range(16):
                assert pm((t, x)) == pm((t + 2, x))
                assert pm((t, x)) != pm((t + 1, x))
                assert 0 <= pm((t, x)) < pm.size

    def test_no_cross_class_collisions(self):
        pm = PaddedOVMapping((2, 0), isg(), pad=3)
        seen = {}
        for t in range(1, 9):
            for x in range(16):
                loc = pm((t, x))
                key = (x, t % 2)
                if key in seen:
                    assert seen[key] == loc
                else:
                    assert loc not in seen.values()
                    seen[key] = loc

    def test_size_accounting(self):
        base = OVMapping((2, 0), isg(), layout="consecutive")
        pm = PaddedOVMapping((2, 0), isg(), pad=5)
        assert pm.size == base.size + (pm.gcd - 1) * 5

    def test_negative_pad_rejected(self):
        with pytest.raises(ValueError):
            PaddedOVMapping((2, 0), isg(), pad=-1)

    def test_expression_matches_call(self):
        pm = PaddedOVMapping((2, 0), isg(), pad=4)
        f = pm.compiled()
        for t in range(1, 9):
            for x in range(16):
                assert f(t, x) == pm((t, x))

    def test_class_expression_matches(self):
        pm = PaddedOVMapping((2, 2), isg(), pad=2)
        for t in range(1, 7):
            for x in range(16):
                cls = pm.storage_class((t, x))
                expr = pm.expression_with_class(["t", "x"], cls)
                assert (
                    eval(expr.to_python(), {}, {"t": t, "x": x})
                    == pm((t, x))
                )

    def test_still_universal(self, stencil5):
        pm = PaddedOVMapping((2, 0), isg(), pad=4)
        sched = TiledSchedule((3, 4), skew=required_skew(stencil5))
        assert is_mapping_legal(
            pm, stencil5, sched.order([(1, 8), (0, 15)])
        )


class TestCollisionsAtOddBounds:
    """Non-power-of-two extents (satellite of the race-detector work):
    padding must change addresses, never the collision structure."""

    ODD = Polytope.from_box((1, 0), (7, 10))  # extents 7 x 11

    def test_collision_groups_are_exactly_ov_cosets(self):
        from repro.analysis.races import region_points

        pm = PaddedOVMapping((2, 0), self.ODD, pad=5)
        points = region_points(self.ODD)
        for group in pm.collision_groups(points).values():
            group = sorted(group)
            for a, b in zip(group, group[1:]):
                # Successive sharers differ by exactly the OV.
                assert (b[0] - a[0], b[1] - a[1]) == (2, 0)

    def test_padding_preserves_collision_groups(self):
        from repro.analysis.races import region_points

        base = OVMapping((2, 0), self.ODD, layout="consecutive")
        points = region_points(self.ODD)
        for pad in (1, 3, 9):
            pm = PaddedOVMapping((2, 0), self.ODD, pad=pad)
            assert {
                frozenset(g) for g in pm.collision_groups(points).values()
            } == {
                frozenset(g) for g in base.collision_groups(points).values()
            }

    def test_race_detector_proves_padded_mapping_safe(self, stencil5):
        from repro.analysis.races import find_storage_races

        pm = PaddedOVMapping((2, 0), self.ODD, pad=4)
        assert find_storage_races(pm, stencil5, self.ODD) == []


class TestPadHeuristic:
    def test_line_aligned_blocks_get_one_line(self):
        assert pad_for_cache(1024, 32) == 4  # 4 doubles per 32B line
        assert pad_for_cache(4096, 64) == 8

    def test_line_alignment_is_the_trigger(self):
        # 100 doubles = 25 full lines: aligned, pad.  1023 and 101 are
        # not line-multiples, so consecutive blocks are already de-phased.
        assert pad_for_cache(100, 32) == 4
        assert pad_for_cache(1023, 32) == 0
        assert pad_for_cache(101, 32) == 0

    def test_cache_aware_pad_is_half_cache_plus_line(self):
        # 512-byte direct-mapped L1: 32 doubles (half) + 4 (one line).
        assert pad_for_cache(1024, 32, cache_bytes=512) == 36
        assert pad_for_cache(1023, 32, cache_bytes=512) == 0


class TestPaddingFixesThrashing:
    def test_direct_mapped_conflict_removed(self):
        """The Figures 9-11 Ultra 2 effect in miniature: a direct-mapped
        cache exactly one block large; unpadded classes collide on every
        access, one line of padding de-phases them."""
        from repro.machine.cache import Cache

        length = 64  # elements per class block
        big_isg = Polytope.from_box((1, 0), (8, length - 1))
        unpadded = OVMapping((2, 0), big_isg, layout="consecutive")
        padded = PaddedOVMapping(
            (2, 0), big_isg, pad=pad_for_cache(length, 32)
        )

        def misses(mapping):
            cache = Cache("L1", length * 8, 32, 1)  # one block exactly
            f = mapping.compiled()
            for t in range(2, 8):
                for x in range(length):
                    # read the two producers in the two classes, then write
                    cache.access(f(t - 1, x) * 8 // 32)
                    cache.access(f(t - 2, x) * 8 // 32)
                    cache.access(f(t, x) * 8 // 32)
            return cache.misses

        assert misses(padded) < 0.5 * misses(unpadded)
