import math
from fractions import Fraction

import numpy as np
import pytest

from moranspec import certificates
from moranspec import (
    Verdict,
    certify,
    classify_level,
    epsilon_next_level,
    f_eval,
    f_min_points,
    h_bound,
    lambda_norm_check,
    level_spectrum,
    make_system,
    mask_eval,
    mask_lower_bound,
    q_sum_finite,
    tail_constant,
)
from conftest import random_t1_level, random_t2_level, random_t3_level


class TestHBound:
    def test_direct_values(self, dyadic_system):
        assert h_bound(dyadic_system, 1, 3) == Fraction(3, 4)
        assert h_bound(dyadic_system, 1, 2) == Fraction(3, 2)

    def test_recursion(self, final_system, mixed_system):
        for s in (final_system, mixed_system):
            for k in (1, 2, 3):
                for n in range(k + 1, k + 6):
                    assert (h_bound(s, k, n + 1)
                            == h_bound(s, k, n) / s.phi(n))

    def test_decreasing_in_n(self, alternating_system):
        vals = [h_bound(alternating_system, 2, n) for n in range(3, 10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bad_range(self, dyadic_system):
        with pytest.raises(ValueError):
            h_bound(dyadic_system, 0, 3)
        with pytest.raises(ValueError):
            h_bound(dyadic_system, 3, 3)


class TestLambdaNorm:
    def test_final_level_two(self, final_system):
        assert lambda_norm_check(final_system, 2) == Fraction(1, 2)

    def test_level_zero(self, final_system):
        assert lambda_norm_check(final_system, 0) == 0

    def test_single_binary_level(self, dyadic_system):
        assert lambda_norm_check(dyadic_system, 1) == Fraction(1, 2)

    def test_matches_enumeration(self, final_system, mixed_system, rng):
        for s in (final_system, mixed_system):
            for sigma in [(), (-1,), (-1, 1, -1)]:
                for k in (1, 2, 4):
                    pts = level_spectrum(s, k, sigma)
                    brute = max(abs(p) for p in pts.points)
                    assert lambda_norm_check(s, k, sigma) == Fraction(
                        brute, s.P(k)
                    )

    def test_never_exceeds_one(self, final_system, alternating_system,
                               mixed_system, pure_t3_system):
        for s in (final_system, alternating_system, mixed_system,
                  pure_t3_system):
            for k in range(13):
                assert lambda_norm_check(s, k) <= 1


class TestMaskLowerBound:
    def test_two_digit_example(self):
        ds = classify_level(4, [0, 1])  # d/P = 1/4 at P = 4
        bound = mask_lower_bound(ds, 4, 1.0)
        assert bound == pytest.approx(1 - math.pi ** 2 / 32)
        assert bound <= abs(math.cos(math.pi / 4)) + 1e-15

    def test_at_zero(self):
        assert mask_lower_bound(classify_level(8, [0, 1, 2, 3]), 8, 0.0) == 1.0
        assert mask_lower_bound(classify_level(3, [0, 1, 2]), 3, 0.0) == 1.0

    def test_invalid_class(self):
        with pytest.raises(ValueError, match="unknown class"):
            mask_lower_bound(classify_level(8, [0, 5, 6]), 8, 0.1)

    @pytest.mark.parametrize("gen", [random_t1_level, random_t2_level,
                                     random_t3_level])
    def test_dominated_by_mask(self, gen, rng):
        # 10^4 random (class, params, x) triples across the three generators
        for _ in range(200):
            p, digits = gen(rng)
            ds = classify_level(p, digits)
            P = p * int(rng.integers(1, 50))
            for x in rng.uniform(-3 * P / p, 3 * P / p, 17):
                assert (mask_lower_bound(ds, P, x)
                        <= abs(mask_eval(ds, x / P)) + 1e-12)


class TestFMin:
    def test_values(self):
        assert f_eval(0.0, 0.0) == 1.0
        assert f_eval(math.pi / 3, -math.pi / 3) == pytest.approx(-0.125)

    def test_min_points_all_attain(self):
        value, pts = f_min_points()
        assert value == -0.125
        assert len(pts) == 8
        for x, y in pts:
            assert f_eval(x, y) == pytest.approx(-0.125, abs=1e-12)

    def test_grid_oracle(self):
        # brute-force scan of the fundamental square
        xs = np.linspace(-math.pi, math.pi, 501)
        grid = f_eval(xs[:, None], xs[None, :])
        assert grid.min() == pytest.approx(-0.125, abs=1e-4)
        assert np.all(1 + 8 * grid >= -1e-9)


class TestTailConstant:
    def test_oracle_value(self, final_system):
        # independent direct product with a fixed long factor count
        base = 0.5 * (43 * math.pi / 96) ** 2
        oracle = math.prod(1 - base / 4.0 ** t for t in range(200))
        assert abs(tail_constant(final_system, 7) - oracle) < 1e-12
        assert tail_constant(final_system, 7) > 0

    def test_monotone_in_checkpoint(self, final_system):
        vals = [tail_constant(final_system, nk) for nk in range(7, 13)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0 < v < 1 for v in vals)

    def test_checkpoint_floor(self, final_system):
        with pytest.raises(ValueError):
            tail_constant(final_system, 6)


class TestEpsilonNextLevel:
    def test_consecutive_constant(self, mixed_system):
        # cycle levels are consecutive-digit, so any checkpoint works
        expected = 1 - (3 * math.pi / 4) ** 2 / 6
        assert epsilon_next_level(mixed_system, 7) == pytest.approx(expected)

    def test_three_digit_positive(self, alternating_system):
        eps = epsilon_next_level(alternating_system, 8)
        assert eps > 0.5
        floor = math.sqrt((1 + 8 * (-0.125)) / 9)  # worst over any box
        assert eps >= floor

    def test_small_ratio_floor(self, rng):
        # b/p <= 1/3 keeps the angle box inside [-pi/3, pi/3]^2
        s = make_system(cycle=[(9, (0, 1, 2)), (4, (0, 2))])
        eps = epsilon_next_level(s, 8)
        xs = np.linspace(-math.pi / 3, math.pi / 3, 801)
        box_min = (1 + 8 * f_eval(xs[:, None], xs[None, :]).min()) / 9
        assert eps ** 2 >= box_min - 1e-9

    def test_boundary_ratio_degenerates(self, final_system):
        assert epsilon_next_level(final_system, 7) < 1e-9

    def test_two_digit_next_level_rejected(self, alternating_system):
        with pytest.raises(ValueError, match="Phi >= 3"):
            epsilon_next_level(alternating_system, 7)  # level 8 has 2 digits

    def test_actual_mask_dominates_bound(self, alternating_system, rng):
        # the certified bound must sit below the true mask modulus over the
        # sampled (xi, lambda) range
        n_k = 8
        eps = epsilon_next_level(alternating_system, n_k)
        pts = level_spectrum(alternating_system, n_k)
        nxt = alternating_system.level(n_k + 1)
        P = float(alternating_system.P(n_k + 1))
        for _ in range(300):
            lam = pts.points[rng.integers(len(pts.points))]
            xi = rng.uniform(-1, 1)
            assert abs(mask_eval(nxt.digits, (xi + lam) / P)) >= eps - 1e-12


class TestCertify:
    def test_alternating_passes(self, alternating_system):
        cert = certify(alternating_system, system_id="alternating")
        assert cert.verdict is Verdict.PASS
        assert cert.exit_code == 0
        assert cert.tail_bound > 0 and cert.next_level_bound > 0
        assert cert.checkpoint >= 7

    def test_pure_two_digit_passes(self, pure_t3_system):
        cert = certify(pure_t3_system, system_id="head+tail")
        assert cert.verdict is Verdict.PASS
        assert cert.exit_code == 0
        assert cert.checkpoint is None

    def test_inadmissible_fails(self, nonuniform_system):
        cert = certify(nonuniform_system, system_id="nonuniform")
        assert cert.verdict is Verdict.CONDITIONS_FAILED
        assert cert.exit_code == 2
        assert "preamble[1]" in cert.diagnostics

    def test_boundary_ratio_inconclusive(self, final_system):
        cert = certify(final_system, system_id="boundary")
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert cert.exit_code == 3
        assert "boundary-ratio" in cert.diagnostics

    def test_mixed_passes_with_any_sigma(self, mixed_system):
        for sigma in [(), (-1,), (-1, -1)]:
            cert = certify(mixed_system, sigma=sigma, system_id="mixed")
            assert cert.verdict is Verdict.PASS

    def test_finite_system_rejected(self):
        s = make_system(preamble=[(4, (0, 2))])
        with pytest.raises(ValueError, match="infinite"):
            certify(s)

    def test_truncation_bound_judges_samples(self, alternating_system, monkeypatch):
        # a sample only counts when |v| (1 - B) clears the chained bound, so a
        # bound of B = 1 must stop the certificate
        assert certify(alternating_system).verdict is Verdict.PASS
        tail = certificates.fourier_tail
        monkeypatch.setattr(certificates, "fourier_tail",
                            lambda *args: (tail(*args)[0], 1.0))
        cert = certify(alternating_system)
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert "sampled tail minimum 0 " in cert.diagnostics

    def test_deterministic_for_seed(self, alternating_system):
        a = certify(alternating_system, seed=5)
        b = certify(alternating_system, seed=5)
        assert a == b

    def test_pass_implies_completeness(self, alternating_system, rng):
        # cross-module consistency: a certified system must also look
        # complete at finite level and Bessel-bounded in the tail
        cert = certify(alternating_system)
        assert cert.verdict is Verdict.PASS
        pts = level_spectrum(alternating_system, 4)
        for xi in rng.uniform(-5, 5, 25):
            assert abs(q_sum_finite(alternating_system, 4, pts, xi) - 1) < 1e-9
        for xi in rng.uniform(-1, 1, 25):
            assert q_sum_finite(alternating_system, 30, pts, xi) <= 1 + 1e-6
