import numpy as np
import pytest

from moranspec import (
    classify_level,
    construct_L,
    hadamard_triple,
    is_hadamard,
    mask_eval,
    unitarity_residual,
)
from conftest import random_t1_level, random_t2_level, random_t3_level


class TestConstruct:
    def test_two_digit(self):
        assert set(construct_L(4, [0, 2])) == {0, 1}

    def test_three_digit_symmetric(self):
        assert set(construct_L(3, [0, 1, 2])) == {0, 1, -1}

    def test_consecutive(self):
        assert set(construct_L(12, [0, 1, 2, 3])) == {0, 3, 6, 9}

    def test_two_digit_odd_part_in_gcd(self):
        # g = gcd(d, p) = 3, so p = 2mg with m = 2 and L = {0, m}
        assert construct_L(12, [0, 3]) == (0, 2)
        assert construct_L(12, [0, 9]) == (0, 2)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError, match="not admissible"):
            construct_L(8, [0, 5, 6])


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
        assert is_hadamard(4, [0, 2], [0, 1])
        assert is_hadamard(9, [0, 1, 2], [0, 3, 6])
        assert not is_hadamard(4, [0, 2], [0, 2])

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError, match="cardinality"):
            is_hadamard(4, [0, 2], [0])


class TestRandomTriples:
    @pytest.mark.parametrize("gen", [random_t1_level, random_t2_level,
                                     random_t3_level])
    def test_constructed_triples(self, gen, rng):
        for _ in range(50):
            p, digits = gen(rng)
            triple = hadamard_triple(p, digits)
            assert triple.residual < 1e-12
            assert is_hadamard(p, digits, triple.L)

    @pytest.mark.parametrize("gen", [random_t1_level, random_t2_level,
                                     random_t3_level])
    def test_exact_and_numeric_agree(self, gen, rng):
        # perturb companion sets; the two decision paths must match at 1e-9
        for _ in range(50):
            p, digits = gen(rng)
            L = list(construct_L(p, digits))
            if rng.uniform() < 0.7:
                k = int(rng.integers(len(L)))
                L[k] += int(rng.integers(-2 * p, 2 * p))
            if len(set(L)) != len(L):
                continue
            exact = is_hadamard(p, digits, L)
            numeric = unitarity_residual(p, digits, L) < 1e-9
            assert exact == numeric

    @pytest.mark.parametrize("gen", [random_t1_level, random_t2_level,
                                     random_t3_level])
    def test_spectrum_property(self, gen, rng):
        # sum over L of |mask(D, (xi + l)/p)|^2 == 1: L is a spectrum of
        # the uniform measure on D/p
        for _ in range(10):
            p, digits = gen(rng)
            ds = classify_level(p, digits)
            L = np.array(construct_L(p, ds), dtype=float)
            for xi in rng.uniform(-10, 10, 100):
                total = np.sum(np.abs(mask_eval(ds, (xi + L) / p)) ** 2)
                assert abs(total - 1.0) < 1e-10
