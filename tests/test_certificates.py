import math
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import class_tail, covering_oracle, tail_transform
from moranspec import certificates, core, corpus
from moranspec import (
    LevelClass,
    MoranSystem,
    SpectrumLevel,
    Verdict,
    ZeroWitness,
    certify,
    epsilon_next_level,
    f_eval,
    f_min_points,
    lambda_norm_check,
    level_spectrum,
    make_system,
    mask_eval,
    parse_system,
    q_sum_finite,
    tail_constant,
)
from moranspec.core import zero_in_range


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
    def test_oracle_value(self):
        # independent direct product with a fixed long factor count
        base = 0.5 * (43 * math.pi / 96) ** 2
        oracle = math.prod(1 - base / 4.0 ** t for t in range(200))
        assert abs(tail_constant(7) - oracle) < 1e-12
        assert tail_constant(7) > 0

    def test_monotone_in_checkpoint(self):
        vals = [tail_constant(nk) for nk in range(7, 13)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0 < v < 1 for v in vals)

    def test_checkpoint_floor(self):
        with pytest.raises(ValueError):
            tail_constant(6)


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
        assert epsilon_next_level(final_system, 7) == 0.0

    def test_zero_reached_through_xi(self):
        # 3a = 390 < p = 393, but |xi + lambda| <= P_7 + 1 = 129 stretches
        # w1 = pi 130 129 / (393 128) just past pi/3
        s = make_system(cycle=[(2, (0, 1))] * 7 + [(393, (0, 130, 131))])
        assert epsilon_next_level(s, 7) == 0.0

    def test_small_box_minimum_certifies(self):
        # 3a = 57 < p = 60 keeps the zeros of the mask out of the angle box;
        # the box minimum of (1 + 8f)/9 is about 0.0012, below a mesh slack
        s = make_system(cycle=[(60, (0, 19, 20)), (52, (0, 9))])
        assert epsilon_next_level(s, 8) == pytest.approx(0.0348906, abs=1e-7)
        assert certify(s).verdict is Verdict.PASS

    def test_boundary_ratio_alone_stays_positive(self):
        # b/p = 8/12 = 2/3, but 3a = 3 < p, so the box holds no zero
        s = make_system(cycle=[(4, (0, 1)), (12, (0, 1, 8))])
        xs = np.linspace(-math.pi / 12, math.pi / 12, 401) * (1 + 1 / s.P(7))
        ys = np.linspace(-2 * math.pi / 3, 2 * math.pi / 3, 401) * (1 + 1 / s.P(7))
        box_min = (1 + 8 * f_eval(xs[:, None], ys[None, :]).min()) / 9
        assert box_min - 1e-4 < epsilon_next_level(s, 7) ** 2 <= box_min + 1e-12

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
        cert = certify(alternating_system)
        assert cert.verdict is Verdict.PASS
        assert cert.exit_code == 0
        assert cert.checkpoint >= 7
        n_k = cert.checkpoint
        lo, hi = certificates._class_range(alternating_system, n_k, ())
        assert zero_in_range(class_tail(alternating_system, n_k), lo, hi) is None
        assert cert.diagnostics.endswith(f"y in [{lo}, {hi}] holds no tail zero")

    def test_pure_two_digit_passes(self, pure_t3_system):
        cert = certify(pure_t3_system)
        assert cert.verdict is Verdict.PASS
        assert cert.exit_code == 0
        assert cert.checkpoint is None

    def test_inadmissible_fails(self, nonuniform_system):
        cert = certify(nonuniform_system)
        assert cert.verdict is Verdict.CONDITIONS_FAILED
        assert cert.exit_code == 2
        assert "preamble[1]" in cert.diagnostics

    def test_boundary_ratio_passes(self, final_system):
        # Lebesgue measure on [0, 1]: the class range at n_k = 7 is
        # y in [-1/5, 4/5] +- 1/P_7 = 1/432, which misses the tail's zeros: on
        # the rotated cycle (3,{0,1,2}) (2,{0,1}) the nearest are y = -1 and 1
        # at tail level 1, and every zero of level 2 on lies past Q_1/2 = 3/2
        cert = certify(final_system)
        assert cert.verdict is Verdict.PASS
        assert cert.exit_code == 0
        assert cert.checkpoint == 7
        assert "boundary-ratio" in cert.diagnostics
        assert "y in [-437/2160, 1733/2160] holds no tail zero" in cert.diagnostics
        lo, hi = certificates._class_range(final_system, 7, ())
        assert (lo, hi) == (Fraction(-1, 5) - Fraction(1, 432), Fraction(4, 5) + Fraction(1, 432))
        tail = class_tail(final_system, 7)
        assert zero_in_range(tail, lo, hi) is None
        assert zero_in_range(tail, lo, Fraction(1)) == ZeroWitness(1, LevelClass.T2, Fraction(1))
        assert zero_in_range(tail, Fraction(-1), hi) == ZeroWitness(1, LevelClass.T2, Fraction(-1))
        # the covering oracle bounds |g| there by the epsilon it certified with
        assert covering_oracle(tail, lo, hi)[0] == pytest.approx(0.216443, abs=1e-6)

    def test_mixed_passes_with_any_sigma(self, mixed_system):
        for sigma in [(), (-1,), (-1, -1)]:
            cert = certify(mixed_system, sigma=sigma)
            assert cert.verdict is Verdict.PASS

    def test_finite_system_rejected(self):
        s = make_system(preamble=[(4, (0, 2))])
        with pytest.raises(ValueError, match="infinite"):
            certify(s)

    def test_truncation_bound_judges_cells(self, alternating_system, monkeypatch):
        # the covering, kept as the oracle: a cell only counts when
        # (|g(c)| - L w)(1 - B) - r clears |g(c)|/2, so a bound of B = 1 leaves
        # every class unproved
        tails = [(class_tail(alternating_system, n), *certificates._class_range(
            alternating_system, n, ())) for n in (7, 8)]
        assert covering_oracle(*tails[0])[0] > 1e-9

        def unit_bound(*args):
            return tail_transform(*args)[0], np.ones(len(args[1]))

        for tail, lo, hi in tails:
            assert covering_oracle(tail, lo, hi, transform=unit_bound)[::3] == (
                0.0, "no covering within 4096 evaluations")
        # the exact route: a zero in every class's range leaves the system unproved
        monkeypatch.setattr(certificates, "zero_in_range",
                            lambda tail, lo, hi: ZeroWitness(1, LevelClass.T2, lo))
        cert = certify(alternating_system)
        assert cert.verdict is Verdict.INCONCLUSIVE and cert.exit_code == 3
        assert cert.checkpoint is None
        assert cert.diagnostics.count(": tail zero y = ") == 2

    def test_bound_past_one_accepts_no_cell(self, alternating_system, final_system):
        # the oracle: B reaches 2 by design; next to a mask zero, where
        # |g(c)| < L w, (|g(c)| - L w)(1 - B) would be positive and pass
        tail, lo, hi = (class_tail(alternating_system, 7),
                        *certificates._class_range(alternating_system, 7, ()))
        assert covering_oracle(tail, lo, hi, transform=lambda *args: (
            1e-3 * tail_transform(*args)[0], np.full(len(args[1]), 2.0)))[0] == 0.0
        # the exact route takes the range closed: a zero at either end counts
        tail, lo, hi = (class_tail(final_system, 7),
                        *certificates._class_range(final_system, 7, ()))
        assert zero_in_range(tail, lo, Fraction(1)).zero == 1
        assert zero_in_range(tail, Fraction(1), Fraction(1)).zero == 1
        assert zero_in_range(tail, lo, 1 - Fraction(1, 10**40)) is None
        assert zero_in_range(tail, Fraction(-1), hi).zero == -1
        assert zero_in_range(tail, Fraction(-1) + Fraction(1, 10**40), hi) is None

    def test_covering_transforms_midpoints_only(self, monkeypatch):
        # the oracle passes one point per cell, its midpoint, each round; the
        # far ends carry only B
        points = []

        def spy(*args):
            points.append(len(args[1]))
            return tail_transform(*args)

        system, _ = corpus.load_example("unit_interval_tile")
        tail, lo, hi = class_tail(system, 7), *certificates._class_range(system, 7, ())
        assert covering_oracle(tail, lo, hi, transform=spy)[1:3] == (64, 64)
        assert points == [64]
        # class 10 bisects towards a mask zero over several rounds
        points.clear()
        s = make_system(cycle=[(2, (0, 1)), (2, (0, 1)), (4, (0, 3)), (9, (0, 1, 2))])
        evals = [covering_oracle(class_tail(s, n), *certificates._class_range(s, n, (1,) * 8),
                                 transform=spy)[2] for n in (10, 11)]
        assert evals == [166, 64] and len(points) > 2 and sum(points) == sum(evals)
        # the exact route evaluates no transform and forms no float
        monkeypatch.setattr(core, "mask_eval", lambda *args: pytest.fail("mask evaluated"))
        monkeypatch.setattr(core, "_mask_product", lambda *args: pytest.fail("product formed"))
        monkeypatch.setattr(certificates, "np", None)
        assert certify(system).checkpoint == 7 and certify(s, (1,) * 8).checkpoint == 11

    def test_checkpoint_scan_stops_at_first_pass(self, mixed_system, monkeypatch):
        # the classes are tried in turn from n_0 = 7; the first PASS ends it
        calls = []
        walk = certificates.zero_in_range
        monkeypatch.setattr(certificates, "zero_in_range",
                            lambda *args: calls.append(args) or walk(*args))
        cert = certify(mixed_system)
        assert cert.verdict is Verdict.PASS and cert.checkpoint == 7
        assert len(calls) == 1

    def test_every_class_is_tried(self):
        # eight '+' signs reach the T3 level 10, so n_0 = 10; that class's
        # range reaches the (4,{0,3}) mask zero at y = 2/3, and class 11 passes
        s = make_system(cycle=[(2, (0, 1)), (2, (0, 1)), (4, (0, 3)), (9, (0, 1, 2))])
        cert = certify(s, sigma=(1,) * 8)
        assert cert.verdict is Verdict.PASS and cert.checkpoint == 11
        assert ("n_k=10 (+ j*4): y in [-995471/11860992, 10119311/11860992]: "
                "tail zero y = 2/3 at tail level 1") in cert.diagnostics
        assert cert.diagnostics.endswith("holds no tail zero")
        tail = class_tail(s, 10)
        assert tail.level(1).mask_zero(2, 3 * tail.P(1))  # mask(D_1, (2/3)/Q_1) = 0

    def test_four_level_cycle_passes(self):
        s = make_system(cycle=[(2, (0, 1)), (2, (0, 1)), (4, (0, 3)), (9, (0, 1, 2))])
        cert = certify(s)
        assert cert.verdict is Verdict.PASS and cert.checkpoint == 7
        lo, hi = certificates._class_range(s, 7, ())
        assert zero_in_range(class_tail(s, 7), lo, hi) is None
        assert "y in [-7055/329472, 235151/329472] holds no tail zero" in cert.diagnostics
        assert covering_oracle(class_tail(s, 7), lo, hi)[0] == pytest.approx(0.904542, abs=1e-6)

    def test_long_sign_prefixes_finish(self, alternating_system, mixed_system):
        # 2000 signs over the alternating cycle's T3 levels (every other
        # level) push n_0 past level 4000; on a cycle with no T3 level the
        # prefix past the preamble is never read
        cert = certify(alternating_system, sigma=(1, -1) * 1000)
        assert cert.verdict is Verdict.PASS and cert.checkpoint == 4000
        cert = certify(mixed_system, sigma=(-1, 1) * 1000)
        assert cert.verdict is Verdict.PASS and cert.checkpoint == 7

    def test_class_range_summed_exactly(self):
        # every factor fits int64 but their sum does not; along the class
        # n = 7 + j the upper end falls from 127/128 towards 2/7 and the lower
        # from 0 towards -4/7, and the hull spans both, widened by 1/P_7
        s = make_system(preamble=[(288230376151711742, (0, 1))] + [(2, (0, 1))] * 6,
                        cycle=[(8, (0, 1, 2, 3))])
        factors = level_spectrum(s, 7).factors
        assert sum(max(f) for f in factors) > 2**63
        pad = Fraction(1, s.P(7))
        lo, hi = certificates._class_range(s, 7, ())
        assert (lo, hi) == (Fraction(-4, 7) - pad, Fraction(127, 128) + pad)
        for n in range(7, 40):
            factors = level_spectrum(s, n).factors
            a = Fraction(sum(min(f) for f in factors), s.P(n))
            b = Fraction(sum(max(f) for f in factors), s.P(n))
            assert lo + pad < a <= 0 < b <= hi - pad
        assert certify(s).verdict is Verdict.PASS

    def test_long_prefix_walks_companions_once(self, monkeypatch):
        # the class range comes from the companions over one running product,
        # and the zero walk runs one over the tail: no factor as long as P_j is
        # formed, and P is never asked for, however far the prefix pushes n_0
        s = parse_system("preamble: (4,{0,2}) cycle: (4,{0,1}) (3,{0,1,2})")
        calls = []
        P = MoranSystem.P
        monkeypatch.setattr(MoranSystem, "P", lambda self, n: (calls.append(n), P(self, n))[1])
        monkeypatch.setattr(SpectrumLevel, "factors",
                            property(lambda self: pytest.fail("factors read")))
        counts = []
        for k in (20, 200, 2000):
            calls.clear()
            cert = certify(s, sigma=(1, -1) * (k // 2))
            assert cert.verdict is Verdict.PASS and cert.checkpoint == 2 * k - 2
            counts.append(len(calls))
        assert counts == [0, 0, 0]

    def test_draws_no_random_numbers(self, alternating_system, pure_t3_system,
                                     monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("random numbers drawn")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        for s in (alternating_system, pure_t3_system):
            assert certify(s) == certify(s)

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
