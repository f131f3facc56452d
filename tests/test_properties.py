"""Property tests: the integer layer and the mask product against oracles.

Systems are drawn with the random level generators from conftest.py, seeded
by hypothesis; arbitrary (possibly colliding, inadmissible) levels are mixed
in so that collisions and INVALID classes are exercised too.  Exact layers
are checked against small Fraction oracles and the per-pair orthogonality
loop, transforms against the scalar per-level mask loop they were first
written as, and the closed-form next-level bound against the sampled angle
mesh it replaced.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from moranspec import (
    AtomCollisionError,
    Level,
    LevelClass,
    MoranSystem,
    OrthogonalityReport,
    atoms,
    check_orthogonal,
    classify_level,
    construct_L,
    epsilon_next_level,
    f_eval,
    fourier_level,
    fourier_tail,
    is_hadamard,
    level_spectrum,
    make_system,
    mask_eval,
    q_sum_finite,
    zero_set_contains,
)
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


ADMISSIBLE = (random_t1_level, random_t2_level, random_t3_level)
GENERATORS = ADMISSIBLE + (arbitrary_level,)


def random_system(seed: int, generators=GENERATORS):
    rng = np.random.default_rng(seed)

    def levels(count):
        return [generators[int(rng.integers(len(generators)))](rng)
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
    one_level = MoranSystem((Level(p, ds),), ())
    # x = p a / b puts x/p = a/b on the zero-set lattices often enough to hit
    for num, den in ((p * a, b), (a, 1)):
        x = Fraction(num, den)
        assert (zero_set_contains(one_level, x) is not None) == fraction_member(
            ds, x, p)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(-5000, 5000), st.integers(1, 36))
def test_zero_set_contains_matches_fraction_scan(seed, a, b):
    system = random_system(seed)
    x = Fraction(a, b) * system.P(1)
    witness = zero_set_contains(system, x, max_level=4)
    expected = fraction_zero_set_level(system, x, 4)
    assert (witness.level if witness else None) == expected


def pair_loop_orthogonality(system, pts, max_level) -> OrthogonalityReport:
    """The per-pair loop check_orthogonal replaced, kept as the oracle."""
    failures, witnessed = [], set()
    for a, b in combinations(pts, 2):
        w = zero_set_contains(system, a - b, max_level=max_level)
        if w is None:
            failures.append((a, b))
        else:
            witnessed.add(w.level)
    q = len(pts)
    return OrthogonalityReport(
        q, q * (q - 1) // 2, tuple(failures), tuple(sorted(witnessed)))


MAX_LEVELS = st.one_of(st.none(), st.integers(1, 3))
SIGMAS = st.lists(st.sampled_from((1, -1)), max_size=3)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(1, 3), MAX_LEVELS, SIGMAS)
def test_check_orthogonal_matches_pair_loop_on_spectra(seed, n, max_level, sigma):
    system = random_system(seed, ADMISSIBLE)
    while n > 1 and system.phi_product(n) > 150:
        n -= 1
    pts = level_spectrum(system, n, sigma)
    report = check_orthogonal(system, pts, max_level)
    assert report == pair_loop_orthogonality(system, pts.points, max_level)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.lists(st.integers(-300, 300), max_size=30), MAX_LEVELS)
def test_check_orthogonal_matches_pair_loop_on_point_sets(seed, pts, max_level):
    # random integers miss the zero set often, so failures are compared too
    system = random_system(seed)
    report = check_orthogonal(system, pts, max_level)
    assert report == pair_loop_orthogonality(system, pts, max_level)


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_is_hadamard_matches_fraction_pair_loop(seed):
    rng = np.random.default_rng(seed)
    p, digits = GENERATORS[int(rng.integers(len(GENERATORS)))](rng)
    ds = classify_level(p, digits)
    if ds.cls is LevelClass.INVALID:
        with pytest.raises(ValueError, match="not admissible"):
            is_hadamard(p, digits, range(ds.N))
        return
    L = list(construct_L(p, ds))
    # move some companions off their lattice (duplicates included)
    for k in range(len(L)):
        if rng.uniform() < 0.3:
            L[k] += int(rng.integers(-2 * p, 2 * p + 1))
    expected = all(fraction_member(ds, Fraction(a - b), p)
                   for a, b in combinations(L, 2))
    assert is_hadamard(p, digits, L) == expected


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


def mesh_next_level_bound(system, n_k: int) -> tuple[float, float]:
    """The mesh-plus-slack T2 bound the closed form replaced, and its mesh minimum.

    Kept as the oracle: 1 + 8f is sampled on an 801 x 801 mesh of the angle
    box and lowered by a Lipschitz slack.
    """
    nxt = system.level(n_k + 1)
    u = 1.0 + 1.0 / system.P(n_k)
    w1 = math.pi * nxt.digits.a * u / nxt.p
    w2 = math.pi * nxt.digits.b * u / nxt.p
    om1 = np.linspace(-w1, w1, 801)
    om2 = np.linspace(-w2, w2, 801)
    gmin = float(((1.0 + 8.0 * f_eval(om1[:, None], om2[None, :])) / 9.0).min())
    slack = (8.0 / 9.0) * (w1 + w2) / 800
    return math.sqrt(max(gmin - slack, 0.0)), gmin


def boundary_t2_level(rng) -> tuple[int, tuple[int, ...]]:
    """T2 level with b/p = 2/3 exactly, the boundary ratio."""
    while True:
        k = int(rng.integers(2, 16))
        a = int(rng.integers(1, 2 * k))
        if math.gcd(a, 2 * k) == 1 and {a % 3, (2 * k) % 3} == {1, 2}:
            return 3 * k, (0, a, 2 * k)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.booleans(), st.integers(7, 14))
def test_next_level_bound_matches_mesh_oracle(seed, boundary, n_min):
    rng = np.random.default_rng(seed)
    cycle = [ADMISSIBLE[int(rng.integers(3))](rng)
             for _ in range(int(rng.integers(0, 3)))]
    t2 = (boundary_t2_level if boundary else random_t2_level)(rng)
    cycle.insert(int(rng.integers(len(cycle) + 1)), t2)
    system = make_system(preamble=[random_t3_level(rng)] * int(rng.integers(2)),
                         cycle=cycle)
    # the first checkpoint from n_min on whose next level is T2
    n_k = next(n for n in range(n_min, n_min + len(cycle))
               if system.level(n + 1).digits.cls is LevelClass.T2)
    new = epsilon_next_level(system, n_k)
    old, mesh_min = mesh_next_level_bound(system, n_k)
    nxt, P = system.level(n_k + 1), system.P(n_k)
    assert old <= new
    assert new ** 2 <= mesh_min + 1e-12
    assert (new == 0.0) == (3 * nxt.digits.a * (P + 1) >= nxt.p * P)
