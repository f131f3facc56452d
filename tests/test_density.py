from fractions import Fraction

import numpy as np
import pytest

from moranspec import (
    IntervalUnion,
    density_histogram,
    density_verdict,
    make_system,
    support_cover,
    tiling_defects,
    uniformity_check,
)
from moranspec.density import VERDICT_NOT_SPECTRAL, VERDICT_SPARSE, VERDICT_UNIFORM
from conftest import level_atoms


class TestIntervalUnion:
    def test_merge_touching(self):
        u = IntervalUnion.from_intervals([(0, 1), (1, 2), (3, 4)])
        assert u.intervals == ((Fraction(0), Fraction(2)),
                               (Fraction(3), Fraction(4)))

    def test_merge_overlapping_unsorted(self):
        u = IntervalUnion.from_intervals([(2, 3), (0, Fraction(5, 2))])
        assert u.intervals == ((Fraction(0), Fraction(3)),)

    def test_length_and_hull(self):
        u = IntervalUnion.from_intervals([(0, 1), (2, Fraction(7, 2))])
        assert u.total_length == Fraction(5, 2)
        assert u.hull == (Fraction(0), Fraction(7, 2))


class TestSupportCover:
    def test_unit_interval(self, final_system):
        assert support_cover(final_system, 6) == IntervalUnion.from_intervals([(0, 1)])

    def test_nonuniform_full_interval(self, nonuniform_system):
        cover = support_cover(nonuniform_system, 6)
        assert cover.intervals == ((Fraction(0), Fraction(13, 4)),)

    def test_single_binary_level(self, dyadic_system):
        # [0, 1/2] + [1/2, 1] merge into the unit interval
        cover = support_cover(dyadic_system, 1)
        assert cover.intervals == ((Fraction(0), Fraction(1)),)

    def test_refinement(self, final_system, nonuniform_system):
        s_cantor = make_system(cycle=[(4, (0, 2))])
        for s in (final_system, nonuniform_system, s_cantor):
            prev = support_cover(s, 1)
            for level in range(2, 7):
                cur = support_cover(s, level)
                # cur lies inside prev iff adding its intervals leaves prev as it is
                assert IntervalUnion.from_intervals(cur.intervals + prev.intervals) == prev
                assert cur.total_length <= prev.total_length
                prev = cur

    def test_cantor_length_shrinks(self):
        s = make_system(cycle=[(4, (0, 2))])
        lengths = [float(support_cover(s, n).total_length) for n in (1, 4, 8)]
        assert lengths[0] > lengths[1] > lengths[2]
        assert lengths[2] < 0.1


class TestHistogram:
    def test_mass_and_plateaus(self, nonuniform_system):
        hist = density_histogram(nonuniform_system, 12, 1024)
        assert hist.total_mass == pytest.approx(1.0, abs=1e-12)
        w = (float(hist.hull[1]) - float(hist.hull[0])) / 1024
        for lo, hi, value in [(0, 0.5, 4 / 27), (1, 1.5, 8 / 27),
                              (1.5, 2.75, 4 / 9)]:
            i0 = int(np.ceil((lo + 2 * w) / w))
            i1 = int((hi - 2 * w) / w)
            mean = float(hist.density[i0:i1].mean())
            assert mean == pytest.approx(value, rel=0.02)

    def test_unit_density(self, final_system):
        hist = density_histogram(final_system, 10, 512)
        inner = hist.density[10:-10]
        assert float(inner.mean()) == pytest.approx(1.0, rel=0.01)
        assert not hist.sparse_support

    def test_density_integrates_to_one(self, final_system, nonuniform_system):
        # unit-weight systems: the estimate must integrate back to 1
        for s, level in ((final_system, 10), (nonuniform_system, 12)):
            hist = density_histogram(s, level, 1024)
            integral = float(np.sum(hist.density * np.diff(hist.edges)))
            assert integral == pytest.approx(1.0, abs=1e-3)
            assert hist.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_cantor_flagged(self):
        s = make_system(cycle=[(4, (0, 2))])
        hist = density_histogram(s, 10, 1024)
        assert hist.sparse_support
        assert hist.empty_fraction > 0.5

    def test_bad_bins(self, final_system):
        with pytest.raises(ValueError):
            density_histogram(final_system, 3, 0)

    def test_atoms_on_rational_edges(self):
        # Over the hull [0, 25/11] with 4096 bins, the atoms 25/64 and 125/64
        # lie exactly on edges 704 and 3520, whose float values exceed them:
        # bins placed from float positions put each atom one bin low.
        s = make_system(cycle=[(2, (0, 3)), (2, (0, 1)), (3, (0, 4, 2))])
        hist = density_histogram(s, 9, 4096)
        assert hist.hull == (0, Fraction(25, 11))
        assert hist.edges[704] > 25 / 64 and hist.edges[3520] > 125 / 64
        assert hist.counts[703:706].tolist() == [0, 1, 1]
        assert hist.counts[3519:3522].tolist() == [0, 1, 1]
        oracle = [0] * 4096
        for x in level_atoms(s, 9):
            oracle[min(x * 4096 // Fraction(25, 11), 4095)] += 1
        assert hist.counts.tolist() == oracle

    def test_top_edge_in_last_bin(self):
        # a finite system at its last level has tail radius 0: the largest
        # atom is the hull's right end and belongs to the last bin
        s = make_system(preamble=[(2, (0, 1)), (2, (0, 1))])
        hist = density_histogram(s, 2, 3)
        assert hist.hull == (0, Fraction(3, 4))
        assert hist.counts.tolist() == [1, 1, 2]


class TestUniformity:
    def test_nonuniform_false(self, nonuniform_system):
        hist = density_histogram(nonuniform_system, 12, 1024)
        assert not uniformity_check(hist.density, 0.1)
        assert density_verdict(hist) == VERDICT_NOT_SPECTRAL

    def test_uniform_true(self, final_system):
        hist = density_histogram(final_system, 12, 2048)
        assert uniformity_check(hist.density, 0.1)
        assert density_verdict(hist) == VERDICT_UNIFORM

    def test_constant_array(self):
        assert uniformity_check(np.full(64, 3.7), 1e-9)

    def test_no_interior_bin_raises(self, final_system):
        # EDGE_EXCLUDE = 2 bins dropped at each end: 4 bins leave none to judge by
        with pytest.raises(ValueError, match="4 bins leave no interior bin"):
            uniformity_check(density_histogram(final_system, 8, 4).density, 0.1)
        assert uniformity_check(np.ones(5), 0)

    def test_sparse_verdict(self):
        s = make_system(cycle=[(4, (0, 2))])
        hist = density_histogram(s, 10, 1024)
        assert density_verdict(hist) == VERDICT_SPARSE


class TestTiling:
    def test_unit_interval(self):
        u = IntervalUnion.from_intervals([(0, 1)])
        assert tiling_defects(u) == (0, 0)

    def test_long_interval_overcovers(self):
        u = IntervalUnion.from_intervals([(0, Fraction(13, 4))])
        assert tiling_defects(u) == (0, Fraction(9, 4))

    def test_split_tile(self):
        u = IntervalUnion.from_intervals([(0, Fraction(1, 2)),
                                          (Fraction(3, 2), 2)])
        assert tiling_defects(u) == (0, 0)

    def test_gap_undercovers(self):
        u = IntervalUnion.from_intervals([(0, Fraction(1, 2))])
        assert tiling_defects(u) == (Fraction(1, 2), 0)

    def test_translation_invariance(self):
        u = IntervalUnion.from_intervals([(Fraction(-1, 3), Fraction(1, 2)),
                                          (Fraction(3, 2), Fraction(7, 4))])
        for shift in (-3, 1, 7):
            moved = IntervalUnion.from_intervals((lo + shift, hi + shift)
                                                 for lo, hi in u.intervals)
            assert tiling_defects(moved) == tiling_defects(u)
        assert tiling_defects(u) == (0, Fraction(1, 12))

    def test_hull_far_from_origin(self):
        # a window of translates at least the diameter, but not reaching
        # the hull, used to call [5, 6] no tile and [-9/4, -1] a tile
        assert tiling_defects(IntervalUnion.from_intervals([(5, 6)])) == (0, 0)
        u = IntervalUnion.from_intervals([(Fraction(-9, 4), -1)])
        assert tiling_defects(u) == (0, Fraction(1, 4))

    def test_planted_gap_below_sampling(self):
        # 10**4 midpoint probes all miss both defects, each 10**-6 wide
        eps = Fraction(1, 10**6)
        u = IntervalUnion.from_intervals([(0, Fraction(1, 2)),
                                          (Fraction(1, 2) + eps, 1 + eps)])
        assert tiling_defects(u) == (eps, eps)

    def test_empty_union_covers_nothing(self):
        assert tiling_defects(IntervalUnion(())) == (1, 0)

    def test_end_to_end_unit_tile(self, final_system):
        # finite-level orthogonality and the tiling check are the two faces
        # of the same structure for this system
        cover = support_cover(final_system, 8)
        assert tiling_defects(cover) == (0, 0)
