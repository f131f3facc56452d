import itertools

import numpy as np
import pytest

from moranspec import (
    MoranStructureError,
    atoms,
    check_orthogonal,
    digit_star,
    exp_matrix_residual,
    level_spectrum,
    make_system,
    q_sum_finite,
)


class TestDigitStar:
    def test_even(self):
        assert digit_star(4) == (-2, -1, 0, 1)

    def test_single(self):
        assert digit_star(1) == (0,)

    def test_odd(self):
        assert digit_star(5) == (-2, -1, 0, 1, 2)

    def test_always_contains_zero(self):
        for n in range(1, 12):
            star = digit_star(n)
            assert 0 in star and len(star) == n


class TestLevelSpectrum:
    def test_final_level_two(self, final_system):
        pts = level_spectrum(final_system, 2)
        assert pts.points == (-2, -1, 0, 1, 2, 3)

    def test_single_binary_level(self, dyadic_system):
        assert level_spectrum(dyadic_system, 1).points == (0, 1)

    def test_level_zero(self, final_system):
        assert level_spectrum(final_system, 0).points == (0,)

    def test_sigma_flips_two_digit_factor(self, dyadic_system):
        assert level_spectrum(dyadic_system, 1, (-1,)).points == (-1, 0)

    def test_nesting(self, final_system, mixed_system, alternating_system):
        for s in (final_system, mixed_system, alternating_system):
            for sigma in [(), (-1,), (1, -1, -1)]:
                prev = level_spectrum(s, 0, sigma)
                for n in range(1, 6):
                    cur = level_spectrum(s, n, sigma)
                    assert set(prev.points) <= set(cur.points)
                    prev = cur

    def test_cardinality(self, final_system, mixed_system):
        for s in (final_system, mixed_system):
            for n in range(1, 6):
                pts = level_spectrum(s, n)
                assert len(pts) == s.phi_product(n)
                assert len(pts) == len(atoms(s, n).atoms)

    def test_zero_always_member(self, alternating_system):
        for n in range(5):
            assert 0 in level_spectrum(alternating_system, n).points

    def test_inadmissible_rejected(self, nonuniform_system):
        with pytest.raises(MoranStructureError, match="not admissible"):
            level_spectrum(nonuniform_system, 1)

    def test_bad_sigma_entry(self, final_system):
        with pytest.raises(ValueError, match="sigma"):
            level_spectrum(final_system, 1, (2,))


class TestOrthogonality:
    def test_constructed_spectra_pass(self, final_system, alternating_system,
                                      mixed_system, pure_t3_system):
        for s in (final_system, alternating_system, mixed_system,
                  pure_t3_system):
            pts = level_spectrum(s, 3)
            report = check_orthogonal(s, pts)
            assert report.passed
            assert report.pairs_checked == len(pts) * (len(pts) - 1) // 2

    def test_singleton_vacuous(self, final_system):
        report = check_orthogonal(final_system, [0])
        assert report.passed and report.pairs_checked == 0

    def test_level_restriction_lists_failure(self, final_system):
        # difference 2 only enters the zero set through level 2
        restricted = check_orthogonal(final_system, [0, 2], max_level=1)
        assert restricted.failures == ((2, 0),) or restricted.failures == ((0, 2),)
        full = check_orthogonal(final_system, [0, 2], max_level=2)
        assert full.passed

    def test_sigma_variants_pass(self, final_system):
        for sigma in itertools.product((-1, 1), repeat=3):
            pts = level_spectrum(final_system, 5, sigma)
            assert check_orthogonal(final_system, pts, max_level=5).passed


class TestQSumFinite:
    def test_pythagorean_level_one(self, dyadic_system, rng):
        pts = level_spectrum(dyadic_system, 1)
        for xi in rng.uniform(-7, 7, 25):
            expected = (np.cos(np.pi * xi / 2) ** 2
                        + np.cos(np.pi * (xi + 1) / 2) ** 2)
            assert abs(q_sum_finite(dyadic_system, 1, pts, xi) - expected) < 1e-12
            assert abs(expected - 1.0) < 1e-12

    def test_constant_one(self, final_system, rng):
        pts = level_spectrum(final_system, 2)
        for xi in rng.uniform(-5, 5, 50):
            assert abs(q_sum_finite(final_system, 2, pts, xi) - 1.0) < 1e-10

    def test_incomplete_set_below_one(self, final_system):
        pts = level_spectrum(final_system, 2)
        trimmed = [p for p in pts.points if p != 3]
        # the removed point's term vanishes at 0 (it lies in the zero set),
        # so the drop shows up away from the lattice
        assert q_sum_finite(final_system, 2, trimmed, 0.0) == pytest.approx(1.0)
        for xi in (0.3, 0.5, 1.2, -0.9):
            assert q_sum_finite(final_system, 2, trimmed, xi) < 1.0 - 1e-3

    def test_sigma_independence(self, final_system, rng):
        xs = rng.uniform(-5, 5, 20)
        for sigma in [(-1,), (1, -1), (-1, -1, 1)]:
            pts = level_spectrum(final_system, 5, sigma)
            for xi in xs:
                assert abs(q_sum_finite(final_system, 5, pts, xi) - 1.0) < 1e-9

    def test_constant_one_up_to_size_cap(self, final_system,
                                         alternating_system, rng):
        # deepest level keeping the spectrum at or below 5000 points
        for s in (final_system, alternating_system):
            n = 1
            while s.phi_product(n + 1) <= 5000:
                n += 1
            pts = level_spectrum(s, n)
            assert len(pts) <= 5000
            for xi in rng.uniform(-5, 5, 100):
                assert abs(q_sum_finite(s, n, pts, xi) - 1.0) < 1e-9

    def test_array_xi_matches_scalar_calls(self, alternating_system):
        pts = level_spectrum(alternating_system, 4)
        xs = np.linspace(-3, 3, 7)
        qs = q_sum_finite(alternating_system, 4, pts, xs)
        assert qs.shape == xs.shape
        assert qs.tolist() == [q_sum_finite(alternating_system, 4, pts, x)
                               for x in xs]


class TestQPartial:
    def test_zero_point_at_origin(self, final_system):
        assert abs(q_sum_finite(final_system, 25, [0], 0.0) - 1.0) < 1e-12

    def test_depth_past_float_range(self):
        s = make_system(cycle=[(8, (0, 1, 2, 3))])
        assert q_sum_finite(s, 400, [0, 2], 0.3) == q_sum_finite(s, 20, [0, 2], 0.3)

    def test_bessel_bound(self, alternating_system):
        pts = level_spectrum(alternating_system, 6)
        for xi in np.linspace(-1, 1, 40):
            assert q_sum_finite(alternating_system, 30, pts, xi) <= 1 + 1e-6

    def test_monotone_in_level(self, alternating_system):
        for xi in (0.0, 0.31, -0.77):
            vals = [
                q_sum_finite(alternating_system, 12,
                             level_spectrum(alternating_system, n), xi)
                for n in range(1, 7)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestExpMatrix:
    def test_unitarity_for_spectra(self, final_system):
        for n in (1, 2, 3, 4):
            meas = atoms(final_system, n)
            pts = level_spectrum(final_system, n)
            assert exp_matrix_residual(meas.atoms, pts.points) < 1e-10

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            exp_matrix_residual([0.0, 0.5], [0])
