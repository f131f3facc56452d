"""Property tests: the integer layer and the mask product against oracles.

Systems are drawn with the random level generators from conftest.py, seeded
by hypothesis; arbitrary (possibly colliding, inadmissible) levels are mixed
in so that collisions and INVALID classes are exercised too.  Exact layers
are checked against small Fraction oracles, transforms against the scalar
per-level mask loop they were first written as.
"""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from moranspec import (
    AtomCollisionError,
    LevelClass,
    atoms,
    classify_level,
    fourier_level,
    fourier_tail,
    make_system,
    mask_eval,
    q_sum_finite,
    zero_set_contains,
)
from moranspec.core import _in_zero_set
from conftest import random_t1_level, random_t2_level, random_t3_level

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
#: Oracle atom sets stay at or below this size.
MAX_ATOMS = 3000


def arbitrary_level(rng) -> tuple[int, tuple[int, ...]]:
    """Small scale, digits up to 2p: words may collide, classes may be INVALID."""
    p = int(rng.integers(2, 7))
    extra = rng.choice(np.arange(1, 2 * p + 1), size=int(rng.integers(1, 4)),
                       replace=False)
    return p, (0,) + tuple(int(d) for d in extra)


GENERATORS = (random_t1_level, random_t2_level, random_t3_level, arbitrary_level)


def random_system(seed: int):
    rng = np.random.default_rng(seed)

    def levels(count):
        return [GENERATORS[int(rng.integers(len(GENERATORS)))](rng)
                for _ in range(count)]

    return make_system(preamble=levels(int(rng.integers(0, 3))),
                       cycle=levels(int(rng.integers(1, 3))))


def fraction_atoms(system, n: int) -> list[Fraction]:
    """The Fraction atom loop the integer atoms replaced, kept as the oracle."""
    sums = [Fraction(0)]
    for i in range(1, n + 1):
        Pi = system.P(i)
        offsets = [Fraction(d, Pi) for d in system.digit_set(i).digits]
        sums = [s + off for s in sums for off in offsets]
    return sums


def fraction_member(ds, x: Fraction, P: int) -> bool:
    """Per-class Fraction test of x/P in the mask zero set, as first written."""
    if ds.cls is LevelClass.T3:
        t = Fraction(2 * ds.d) * x / P
        return t.denominator == 1 and t.numerator % 2 != 0
    if ds.cls is LevelClass.T2:
        t = Fraction(3) * x / P
        return t.denominator == 1 and t.numerator % 3 != 0
    if ds.cls is LevelClass.T1:
        t = Fraction(ds.N) * x / P
        return t.denominator == 1 and t.numerator % ds.N != 0
    return False


def fraction_zero_set_level(system, x: Fraction, max_level: int) -> int | None:
    """First level whose family holds x, scanning the Fraction test by level."""
    for i in range(1, max_level + 1):
        if x != 0 and fraction_member(system.digit_set(i), x, system.P(i)):
            return i
    return None


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=5))
def test_integer_atoms_match_fraction_oracle(seed, n):
    system = random_system(seed)
    while n > 1 and system.phi_product(n) > MAX_ATOMS:
        n -= 1
    oracle = fraction_atoms(system, n)
    if len(set(oracle)) != len(oracle):
        with pytest.raises(AtomCollisionError):
            atoms(system, n)
        return
    meas = atoms(system, n)
    assert meas.denominator == system.P(n)
    assert meas.atoms == tuple(sorted(oracle))
    assert meas.weight == Fraction(1, len(oracle))
    assert meas.positions().tolist() == [float(a) for a in sorted(oracle)]


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.integers(-400, 400), st.integers(1, 24))
def test_predicate_matches_fraction_test(seed, a, b):
    rng = np.random.default_rng(seed)
    p, digits = GENERATORS[int(rng.integers(len(GENERATORS)))](rng)
    ds = classify_level(p, digits)
    # x = p a / b puts x/p = a/b on the zero-set lattices often enough to hit
    for num, den in ((p * a, b), (a, 1)):
        assert _in_zero_set(ds, num, den * p) == fraction_member(
            ds, Fraction(num, den), p)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(-5000, 5000), st.integers(1, 36))
def test_zero_set_contains_matches_fraction_scan(seed, a, b):
    system = random_system(seed)
    x = Fraction(a, b) * system.P(1)
    witness = zero_set_contains(system, x, max_level=4)
    expected = fraction_zero_set_level(system, x, 4)
    assert (witness.level if witness else None) == expected


def scalar_mask_loop(system, lo: int, hi: int, x: float, lam: int = 0) -> complex:
    """The per-level scalar product the array transforms replaced, kept as the oracle.

    lam is reduced mod P_i exactly before x/P_i is added, as q_sum_finite does.
    """
    val = complex(1.0)
    for i in range(lo + 1, hi + 1):
        Pi = system.P(i)
        val *= complex(mask_eval(system.digit_set(i), (lam % Pi) / Pi + x / float(Pi)))
    return val


XIS = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(0, 8), st.integers(1, 40), XIS)
def test_transforms_match_scalar_loop(seed, n, depth, xi):
    system = random_system(seed)
    level = fourier_level(system, n, xi)
    assert abs(level - scalar_mask_loop(system, 0, n, xi)) < 1e-12
    val, _ = fourier_tail(system, n, xi, depth)
    assert abs(val - scalar_mask_loop(system, n, n + depth, xi)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(0, 8),
       st.lists(st.integers(-10**15, 10**15), min_size=1, max_size=12), XIS)
def test_q_sum_matches_scalar_loop(seed, n, lams, xi):
    system = random_system(seed)
    oracle = sum(abs(scalar_mask_loop(system, 0, n, xi, lam)) ** 2 for lam in lams)
    assert abs(q_sum_finite(system, n, lams, xi) - oracle) < 1e-12


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(0, 8), st.integers(1, 40),
       st.lists(XIS, min_size=1, max_size=6))
def test_tail_array_call_matches_scalar_calls(seed, n, depth, xs):
    system = random_system(seed)
    vals, errs = fourier_tail(system, n, np.array(xs), depth)
    for x, v, e in zip(xs, vals, errs):
        val, err = fourier_tail(system, n, x, depth)
        assert abs(v - val) < 1e-12
        # a wider array may cut the product later; the bounds then both sit
        # below 2**-54
        assert e == pytest.approx(err, rel=1e-12, abs=2.0**-53)
