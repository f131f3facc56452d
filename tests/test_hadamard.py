from itertools import combinations

import numpy as np
import pytest

from moranspec import (
    LevelClass,
    classify_level,
    construct_L,
    is_hadamard,
    level_spectrum,
    make_system,
    mask_eval,
)
from conftest import random_t1_level, random_t2_level, random_t3_level, unitarity_residual

GENERATED_CLASS = {random_t1_level: LevelClass.T1, random_t2_level: LevelClass.T2,
                   random_t3_level: LevelClass.T3}


def admissible_levels(cls: LevelClass, p_max: int = 40):
    """Every (p, D) of class cls with p <= p_max: all its digits lie below p."""
    for p in range(2, p_max + 1):
        candidates = [(0, d) for d in range(1, p)]
        candidates += [(0, a, b) for a, b in combinations(range(1, p), 2)]
        candidates += [tuple(range(n)) for n in range(4, p)]
        for digits in candidates:
            if classify_level(p, digits).cls is cls:
                yield p, digits


class TestConstruct:
    def test_two_digit(self):
        assert set(construct_L(classify_level(4, [0, 2]))) == {0, 1}

    def test_three_digit_symmetric(self):
        assert set(construct_L(classify_level(3, [0, 1, 2]))) == {0, 1, -1}

    def test_consecutive(self):
        # (p/N) times the centered digits, as the level-n spectrum takes them
        assert construct_L(classify_level(12, [0, 1, 2, 3])) == (-6, -3, 0, 3)

    def test_two_digit_odd_part_in_gcd(self):
        # d = 2**0 * odd, so L = {0, p/2}, whatever odd factor gcd(d, p) has
        assert construct_L(classify_level(12, [0, 3])) == (0, 6)
        assert construct_L(classify_level(12, [0, 9])) == (0, 6)
        assert construct_L(classify_level(12, [0, 9]), -1) == (0, -6)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError, match="not admissible"):
            construct_L(classify_level(8, [0, 5, 6]))


class TestResidual:
    def test_good_triple(self):
        assert unitarity_residual(4, [0, 2], [0, 1]) < 1e-15

    def test_dft(self):
        assert unitarity_residual(3, [0, 1, 2], [0, 1, 2]) < 1e-15

    def test_colliding_rows(self):
        assert unitarity_residual(4, [0, 2], [0, 2]) >= 1 - 1e-12

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError, match="cardinality"):
            unitarity_residual(4, [0, 2], [0, 1, 2])


class TestExactPath:
    def test_examples(self):
        assert is_hadamard(classify_level(4, [0, 2]), [0, 1])
        assert is_hadamard(classify_level(9, [0, 1, 2]), [0, 3, 6])
        assert not is_hadamard(classify_level(4, [0, 2]), [0, 2])

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError, match="cardinality"):
            is_hadamard(classify_level(4, [0, 2]), [0])


class TestClassifiedLevel:
    def test_invalid_level_has_no_companion(self):
        # a class is read with the p it was classified under: {0,1,2,3} is T1 for
        # p = 12 but INVALID for p = 6 (4 does not divide 6), and {0,3} for p = 9
        assert classify_level(12, (0, 1, 2, 3)).cls is LevelClass.T1
        invalid = list(admissible_levels(LevelClass.INVALID))
        assert (6, (0, 1, 2, 3)) in invalid and (9, (0, 3)) in invalid
        for p, digits in invalid:
            lvl = classify_level(p, digits)
            with pytest.raises(ValueError, match="not admissible"):
                construct_L(lvl)
            with pytest.raises(ValueError, match="not admissible"):
                is_hadamard(lvl, range(lvl.phi))

    @pytest.mark.parametrize("gen", list(GENERATED_CLASS))
    def test_admissible_level_is_hadamard_under_both_signs(self, gen, rng):
        levels = [gen(rng) for _ in range(50)] + list(admissible_levels(GENERATED_CLASS[gen]))
        for p, digits in levels:
            lvl = classify_level(p, digits)
            for sign in (1, -1):
                L = construct_L(lvl, sign)
                assert is_hadamard(lvl, L), (p, digits, sign)
                assert unitarity_residual(p, digits, L) < 1e-9, (p, digits, sign)


class TestRandomTriples:
    @pytest.mark.parametrize("gen", [random_t1_level, random_t2_level,
                                     random_t3_level])
    def test_constructed_triples(self, gen, rng):
        for _ in range(50):
            p, digits = gen(rng)
            L = construct_L(classify_level(p, digits))
            assert is_hadamard(classify_level(p, digits), L)
            assert unitarity_residual(p, digits, L) < 1e-12

    @pytest.mark.parametrize("gen", [random_t1_level, random_t2_level,
                                     random_t3_level])
    def test_exact_and_numeric_agree(self, gen, rng):
        # perturb companion sets; the two decision paths must match at 1e-9
        for _ in range(50):
            p, digits = gen(rng)
            L = list(construct_L(classify_level(p, digits)))
            if rng.uniform() < 0.7:
                k = int(rng.integers(len(L)))
                L[k] += int(rng.integers(-2 * p, 2 * p))
            if len(set(L)) != len(L):
                continue
            exact = is_hadamard(classify_level(p, digits), L)
            numeric = unitarity_residual(p, digits, L) < 1e-9
            assert exact == numeric
        # every admissible level of the class with p <= 40: the companion is the
        # one-level spectrum's, under both signs, and Hadamard, and the two
        # decision paths agree on the companion and on it moved by 1
        for p, digits in admissible_levels(GENERATED_CLASS[gen]):
            lvl = classify_level(p, digits)
            for sign in (1, -1):
                L = construct_L(lvl, sign)
                assert L == level_spectrum(make_system(cycle=[(p, digits)]), 1,
                                           (sign,)).factors[0], (p, digits, sign)
                assert is_hadamard(lvl, L), (p, digits, sign)
            L = construct_L(lvl)
            assert unitarity_residual(p, digits, L) < 1e-9, (p, digits)
            moved = (L[0], L[1] + 1, *L[2:])
            assert is_hadamard(lvl, moved) == (
                unitarity_residual(p, digits, moved) < 1e-9), (p, digits)
        # a non-Hadamard L: both paths say so
        assert not is_hadamard(classify_level(4, [0, 2]), (0, 2))
        assert unitarity_residual(4, [0, 2], (0, 2)) >= 1 - 1e-12

    @pytest.mark.parametrize("gen", [random_t1_level, random_t2_level,
                                     random_t3_level])
    def test_spectrum_property(self, gen, rng):
        # sum over L of |mask(D, (xi + l)/p)|^2 == 1: L is a spectrum of
        # the uniform measure on D/p
        for _ in range(10):
            p, digits = gen(rng)
            ds = classify_level(p, digits)
            L = np.array(construct_L(ds), dtype=float)
            for xi in rng.uniform(-10, 10, 100):
                total = np.sum(np.abs(mask_eval(ds.digits, (xi + L) / p)) ** 2)
                assert abs(total - 1.0) < 1e-10
