import itertools
import sys

import numpy as np
import pytest

from moranspec import (
    Level,
    LevelClass,
    MoranStructureError,
    MoranSystem,
    SpectrumLevel,
    check_orthogonal,
    construct_L,
    corpus,
    digit_star,
    is_hadamard,
    level_spectrum,
    make_system,
    q_sum_finite,
    zero_set_contains,
)
from moranspec.spectrum import _level_terms
from conftest import exp_matrix_residual, level_atoms


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
                assert len(pts) == len(level_atoms(s, n))

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
        # difference 2 only enters the zero set through level 2: a level-1
        # spectrum {0, 2} fails at its own level, the plain points pass
        restricted = check_orthogonal(final_system, SpectrumLevel(final_system, 1, ((0, 2),)))
        assert restricted.failures == ((0, 2),)
        full = check_orthogonal(final_system, [0, 2])
        assert full.passed

    def test_factor_path_builds_no_points(self, mixed_system):
        pts = level_spectrum(mixed_system, 40, (-1,))
        report = check_orthogonal(mixed_system, pts)
        q = mixed_system.phi_product(40)
        assert report.point_count == q and report.pairs_checked == q * (q - 1) // 2
        assert report.passed and report.witness_levels == tuple(range(1, 41))
        assert "points" not in vars(pts)

    def test_failing_factor_falls_back_to_pairs(self, final_system):
        # (0, 1, -2) is no companion of (3, {0,1,2}): 3 * 3 / 3 is divisible by 3
        # (-4, 2) and (-3, 3) differ by 6, which only level 3 holds
        pts = SpectrumLevel(final_system, 2, ((0, 1), (0, 1, -2)))
        assert pts.factors == ((0, 1), (0, 2, -4))
        # judged at its own level 2, the spectrum fails; the same points as a
        # plain tuple are judged against the measure, and pass
        assert check_orthogonal(final_system, pts).failures == ((-4, 2), (-3, 3))
        plain = check_orthogonal(final_system, pts.points)
        assert plain.passed and plain.witness_levels == (1, 2, 3)

    def test_inadmissible_level_falls_back_to_pairs(self, nonuniform_system):
        # (2, {0,1,2}) has no zero-set family, so no companion passes and no pair either
        pts = SpectrumLevel(nonuniform_system, 1, ((0, 1, 2),))
        assert check_orthogonal(nonuniform_system, pts).failures == ((0, 1), (0, 2), (1, 2))

    def test_colliding_factors_rejected(self, final_system):
        pts = SpectrumLevel(final_system, 2, ((0, 2), (0, 1, -1)))
        assert pts.factors == ((0, 2), (0, 2, -2))
        with pytest.raises(MoranStructureError, match="spectrum collision"):
            check_orthogonal(final_system, pts)

    def test_decided_once_per_distinct_companion(self, monkeypatch, mixed_system):
        # 40 levels, three distinct companions: one mask-zero test per pair of
        # each, 1 + 3 + 6, and no running product P_j
        pts = level_spectrum(mixed_system, 40)
        tests, walks = [], []
        mask_zero, walk = Level.mask_zero, MoranSystem.walk
        monkeypatch.setattr(Level, "mask_zero",
                            lambda self, u, v: (tests.append(u), mask_zero(self, u, v))[1])
        monkeypatch.setattr(MoranSystem, "walk",
                            lambda self, n=None: (walks.append(n), walk(self, n))[1])
        assert check_orthogonal(mixed_system, pts).passed
        assert len(tests) == 10 and walks == []

    def test_sigma_variants_pass(self, final_system):
        for sigma in itertools.product((-1, 1), repeat=3):
            pts = level_spectrum(final_system, 5, sigma)
            assert check_orthogonal(final_system, pts).passed

    @pytest.mark.parametrize("name", corpus.example_names())
    def test_exact_checks_build_no_system_and_do_not_recurse(self, monkeypatch, name):
        # the companion path and is_hadamard ask each level's mask-zero test directly
        system, _ = corpus.load_example(name)
        n = 6  # the last level up to 6 with no inadmissible level before it
        while any(system.level(i).cls is LevelClass.INVALID for i in range(1, n + 1)):
            n -= 1
        pts = level_spectrum(system, n)
        built, calls = [], []
        init = MoranSystem.__init__
        monkeypatch.setattr(MoranSystem, "__init__",
                            lambda self, *args: (built.append(self), init(self, *args))[1])
        for func in (check_orthogonal, zero_set_contains):
            def spy(*args, _func=func, **kwargs):
                calls.append(_func.__name__)
                return _func(*args, **kwargs)

            for key, module in list(sys.modules.items()):
                if key.startswith("moranspec") and getattr(module, func.__name__, None) is func:
                    monkeypatch.setattr(module, func.__name__, spy)
        assert check_orthogonal(system, pts).passed
        for _, lvl in system.distinct_levels():
            if lvl.cls is not LevelClass.INVALID:
                assert is_hadamard(lvl, construct_L(lvl))
        assert (built, calls) == ([], [])


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


    def test_spectrum_folded_without_points(self, mixed_system):
        pts = level_spectrum(mixed_system, 4, (-1,))
        xs = np.linspace(-5, 5, 11)
        tree = q_sum_finite(mixed_system, 4, pts, xs)
        assert "points" not in vars(pts)
        assert np.max(np.abs(tree - q_sum_finite(mixed_system, 4, pts.points, xs))) < 1e-13

    def test_perturbed_spectrum_summed_as_its_points(self, final_system):
        # (0, 1, -2) repeats residue 1 mod p_2 = 3, so (0, 2, -4) does mod P_2 = 6: no digit tree
        pts = SpectrumLevel(final_system, 2, ((0, 1), (0, 1, -2)))
        xs = np.linspace(-3, 3, 13)
        assert np.array_equal(q_sum_finite(final_system, 2, pts, xs),
                              q_sum_finite(final_system, 2, pts.points, xs))

    def test_colliding_factors_rejected(self, final_system):
        pts = SpectrumLevel(final_system, 2, ((0, 2), (0, 1, -1)))
        with pytest.raises(MoranStructureError, match="spectrum collision"):
            q_sum_finite(final_system, 2, pts, 0.3)

    def test_points_between_int64_and_uint64(self, final_system):
        # numpy reads [2**63 + 5, 1] as float64; the Q-sum must not
        lam = 36 * (2**63 // 36 + 1) + 5
        assert 2**63 <= lam < 2**64
        for xi in (0.3, -2.7):
            assert abs(q_sum_finite(final_system, 4, [lam, 1], xi)
                       - q_sum_finite(final_system, 4, [5, 1], xi)) < 1e-15

    @pytest.mark.parametrize("m, xi", [(1, -0.3), (71, -2.0)])
    def test_level_terms_keep_negative_xi(self, dyadic_system, m, xi):
        # |xi| < P_m reduces to xi itself: a float remainder gave 2 - 0.3,
        # rounded, at P_1 = 2, and P_71 = 2**71 itself for -2
        Pm = dyadic_system.P(m)
        _, [(cos_x, sin_x, _, _)] = _level_terms(dyadic_system.level(m).digits, Pm,
                                                 np.array([0]), np.array([xi]))
        u = xi / Pm
        assert u * Pm == xi
        assert cos_x[0] == np.cos(2 * np.pi * u) and sin_x[0] == np.sin(2 * np.pi * u)

    def test_fold_assumes_no_hadamard_companion(self, alternating_system):
        # (0, 2), so F_2 = (0, 18), has distinct residues mod 4 but is no companion
        # of (4,{0,2}): the fold sums every level over its factor and takes no sum as 1
        pts = SpectrumLevel(alternating_system, 2, ((0, 3, -3), (0, 2)))
        assert pts.factors == ((0, 3, -3), (0, 18))
        xs = np.linspace(-3, 3, 61)
        folded = q_sum_finite(alternating_system, 2, pts, xs)
        assert "points" not in vars(pts)
        assert np.max(np.abs(folded - q_sum_finite(alternating_system, 2, pts.points, xs))) < 1e-12
        assert np.max(np.abs(folded - 1.0)) > 0.5


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
            pts = level_spectrum(final_system, n)
            assert exp_matrix_residual(level_atoms(final_system, n), pts.points) < 1e-10

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            exp_matrix_residual([0.0, 0.5], [0])
