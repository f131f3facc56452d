"""Property tests: the integer layer and the mask product against oracles.

Systems are drawn with the random level generators from conftest.py, seeded
by hypothesis; arbitrary (possibly colliding, inadmissible) levels are mixed
in so that collisions and INVALID classes are exercised too.  Exact layers
are checked against small Fraction oracles and the per-pair orthogonality
loop (the companion path on spectra, perturbed ones included), transforms
against the scalar per-level mask loop they were first written as, the
mask product grouped by digit set against the running product it replaced,
bit for bit, the Q-sum against a per-point mask loop and, on spectra,
against 1 at any float xi, the closed-form next-level bound against the
sampled angle mesh it replaced, the exact zero walk of a checkpoint class
against the Lipschitz covering it replaced (kept as an oracle, whose epsilon
is checked against |tail| at every spectrum point of three checkpoints of
the class), the exact tiling defects
against the midpoint-probe loop they replaced, int64 atoms and their
support covers against the Python-int sum they replaced, the cover's level
recursion across its merge point against the cover of the atoms, and integer
histogram bins against the Fraction floor (half the draws past int64), on
colliding words too, counted with multiplicity.  The certificate's running
extremes, class range and tail sums are checked against the factor-based and
per-level Fraction code they replaced, and the mask against the exp sum that
took the digit 0 too, bit for bit.  A spectrum's stored head and period are
checked against the per-level companion loop they replaced.
Normalized systems are checked against the raw signed levels they come
from, parsed levels against normalize_level then classify_level on the raw,
shuffled, signed and repeated digits of a file, errors included, integer interval lengths against the Fraction sum they replaced,
interval-union queries against the Fraction intervals, covers on both sides
of the int64 edge against Fraction oracles, and the column CSV writer
against the per-value row formatter it replaced.  The mask-zero test,
``is_hadamard`` and one-level ``zero_set_contains`` are checked against
cyclotomic divisibility, an oracle that uses nothing from ``core``.
"""

import functools
import math
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from moranspec import (
    IntervalUnion,
    Level,
    LevelClass,
    MoranError,
    MoranStructureError,
    MoranSystem,
    OrthogonalityReport,
    SpectrumLevel,
    Verdict,
    certify,
    check_orthogonal,
    classify_level,
    construct_L,
    density,
    density_histogram,
    epsilon_next_level,
    f_eval,
    fourier_tail,
    is_hadamard,
    level_spectrum,
    make_system,
    mask_eval,
    normalize_level,
    parse_system,
    q_sum_finite,
    support_cover,
    tiling_defects,
    zero_set_contains,
)
from moranspec.certificates import _class_range, _lambda_extremes, lambda_norm_check
from moranspec.cli import write_csv
from moranspec.core import _mask_product, zero_in_range
from moranspec.spectrum import _head
from conftest import (atom_numerators, class_tail, covering_oracle, factor_class_range,
                      factor_lambda_extremes, fraction_tail_sum, level_atoms,
                      per_level_companions, random_t1_level, random_t2_level, random_t3_level,
                      row_formatter_csv, scanned_head, sequential_mask_product, sorted_sums)

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
        offsets = [Fraction(d, Pi) for d in system.level(i).digits]
        sums = [s + off for s in sums for off in offsets]
    return sums


def fraction_member(ds, x: Fraction, P: int) -> bool:
    """Per-class Fraction test of x/P in the mask zero set, as first written."""
    if ds.cls is LevelClass.T3:
        t = Fraction(2 * ds.digits[1]) * x / P
        return t.denominator == 1 and t.numerator % 2 != 0
    if ds.cls is LevelClass.T2:
        t = Fraction(3) * x / P
        return t.denominator == 1 and t.numerator % 3 != 0
    if ds.cls is LevelClass.T1:
        t = Fraction(ds.phi) * x / P
        return t.denominator == 1 and t.numerator % ds.phi != 0
    return False


def fraction_zero_set_level(system, x: Fraction, max_level: int) -> int | None:
    """First level whose family holds x, scanning the Fraction test by level."""
    for i in range(1, max_level + 1):
        if x != 0 and fraction_member(system.level(i), x, system.P(i)):
            return i
    return None


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=5))
def test_integer_atoms_match_fraction_oracle(seed, n):
    system = random_system(seed)
    while n > 1 and system.phi_product(n) > MAX_ATOMS:
        n -= 1
    oracle = fraction_atoms(system, n)  # colliding words repeat their atom
    assert level_atoms(system, n) == tuple(sorted(oracle))


def python_int_atoms(system, n: int) -> list[int]:
    """The Python-int Minkowski sum the int64 atoms replaced, kept as the oracle."""
    Pn, sums = system.P(n), [0]
    for i in range(1, n + 1):
        sums = [s + d * (Pn // system.P(i)) for s in sums
                for d in system.level(i).digits]
    return sorted(sums)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(min_value=2, max_value=4))
def test_atoms_past_int64_match_python_int_oracle(seed, n):
    # p near 10**7: P_2 < 2**53 < P_3, and on most draws the numerators pass
    # 2**63 at level 3 or 4
    rng = np.random.default_rng(seed)
    levels = []
    for _ in range(n):
        p = int(rng.integers(10**6, 10**7))
        extra = rng.choice(np.arange(1, p), size=int(rng.integers(1, 3)), replace=False)
        levels.append((p, (0,) + tuple(int(d) for d in extra)))
    # a tail digit of up to 2**80 p puts the cover's reach floor(R P_n) anywhere
    # from 0 (no merges) past 2**63 (one interval)
    p = int(rng.integers(2, 10**7))
    levels.append((p, (0, int(rng.integers(1, p)) << int(rng.integers(81)))))
    system = make_system(preamble=levels)
    oracle = python_int_atoms(system, n)
    nums = atom_numerators(system, n)
    assert nums.tolist() == oracle
    assert (nums.dtype == object) == (oracle[-1] >= 2**63)
    assert support_cover(system, n) == cover_oracle(system, n, oracle)


def cover_oracle(system, n: int, nums) -> IntervalUnion:
    """Merged intervals [k/P_n, k/P_n + R], one per atom numerator k."""
    P, r = system.P(n), system.tail_max_sum(n)
    return IntervalUnion.from_intervals((Fraction(k, P), Fraction(k, P) + r)
                                        for k in nums)


def dense_level(rng) -> tuple[int, tuple[int, ...]]:
    """Digits 0, 1 and p, maybe one more up to 2p: a level under it spans at
    least one unit, so its copies one unit apart must merge, and its digit p
    collides with digit 1 one level up."""
    p = int(rng.integers(2, 7))
    return p, (0, 1, p) + ((int(rng.integers(p + 1, 2 * p + 1)),) if rng.integers(2) else ())


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.booleans())
def test_cover_recursion_across_merge_point(seed, dense_top):
    # Levels top down: [dense], (p, {0, p - 1}), then dense levels down to the
    # first level n whose dense run holds 2**10 words.  The run's steps overlap
    # and merge once, at its top level; everything under (p, {0, p - 1}) spans at
    # most 4 < p - 1 units, so that step needs no merge; the dense top must merge.
    rng = np.random.default_rng(seed)
    p = int(rng.integers(6, 41))
    preamble = [dense_level(rng)] * dense_top + [(p, (0, p - 1))]
    system = make_system(preamble=preamble,
                         cycle=[dense_level(rng) for _ in range(int(rng.integers(1, 3)))])
    n = len(preamble)
    while system.phi_product(n) < 2**10 * system.phi_product(len(preamble)):
        n += 1
    nums = atom_numerators(system, n).tolist()
    assert len(set(nums)) < len(nums)  # words collide; the oracle needs each atom once
    with mock.patch.object(density, "_merged", wraps=density._merged) as merged:
        assert support_cover(system, n) == cover_oracle(system, n, set(nums))
    rows = [len(call.args[0]) for call in merged.call_args_list]
    assert len(rows) == 1 + dense_top and rows[0] >= density._MERGE_ROWS


def tiling_oracle(T: IntervalUnion) -> tuple[Fraction, Fraction]:
    """(gap, overlap) from the count of translates over the midpoint of each cell
    of [0, 1) cut at the endpoints mod 1."""
    cuts = sorted({Fraction(0), Fraction(1), *(x % 1 for pair in T.intervals for x in pair)})
    gap = overlap = Fraction(0)
    for a, b in zip(cuts, cuts[1:]):
        x = (a + b) / 2  # x + k lies in [lo, hi] for ceil(lo - x) <= k <= floor(hi - x)
        count = sum(math.floor(hi - x) - math.ceil(lo - x) + 1 for lo, hi in T.intervals)
        gap += (b - a) * (count == 0)
        overlap += (b - a) * max(count - 1, 0)
    return gap, overlap


@pytest.mark.parametrize("excess", [0, 1])
def test_cover_at_int64_edge(excess):
    # (p, {0, d}) then (4, {0, e}) cycling: at level 1 the tail radius is e/(3p),
    # so den = 3p and the cover is [0, e] and [3d, 3d + e] over den; d puts the
    # largest endpoint plus den at 2**63 - 1 + excess
    p, e = 2**61 + 1, 1 + excess
    d, rest = divmod(2**63 - 1 + excess - e - 3 * p, 3)
    assert rest == 0
    system = make_system(preamble=[(p, (0, d))], cycle=[(4, (0, e))])
    cover = support_cover(system, 1)
    assert cover.den == 3 * p and int(cover.ends[-1]) + cover.den == 2**63 - 1 + excess
    assert cover.ends.dtype == (object if excess else np.int64)
    assert cover == cover_oracle(system, 1, atom_numerators(system, 1).tolist())
    assert len(cover.intervals) == 2
    assert cover.total_length == sum((hi - lo for lo, hi in cover.intervals), Fraction(0))
    assert tiling_defects(cover) == tiling_oracle(cover)
    # moved so that the last interval starts one unit below 1: with e = 2 it straddles 1
    shift = Fraction(cover.den - 1 - int(cover.ends[-2]), cover.den)
    moved = IntervalUnion.from_intervals((lo + shift, hi + shift) for lo, hi in cover.intervals)
    assert moved.ends.dtype == object and tiling_defects(moved) == tiling_oracle(moved)


def bin_oracle(words, tail: Fraction, bins: int) -> list[int]:
    """Fraction bin floor((x - lo) bins / (hi - lo)) of each word x, top edge in the last.

    ``words`` is a multiset of atoms: each distinct atom counts its repeats.
    """
    mult = Counter(words)
    lo, hi = min(mult), max(mult) + tail
    counts = [0] * bins
    for x, c in mult.items():
        counts[min((x - lo) * bins // (hi - lo), bins - 1)] += c
    return counts


def wide_bin_system(rng):
    """A system and level whose exact bins pass int64 while its atoms do not.

    Either the atoms span more than 2**59 units with tail radius 0, so
    (k_max - k_0) s' bins passes 2**63 at 16 bins or more, or two atoms one
    unit apart carry a tail radius R with R P_1 > 2**63, so only the span
    (k_max - k_0) s' + r P/g does.
    """
    if rng.integers(2):
        levels = []
        for _ in range(2):
            p = int(rng.integers(2**30, 2**31))
            levels.append((p, (0, int(rng.integers(p // 2, p)))))
        return make_system(preamble=levels), 2
    q = int(rng.integers(3, 2**20))
    digit = 2**63 * q + int(rng.integers(2**62))  # R P_1 = digit / (q - 1)
    return make_system(preamble=[(2, (0, 1))], cycle=[(q, (0, digit))]), 1


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.booleans(), st.integers(min_value=16, max_value=4096))
def test_integer_bins_match_fraction_oracle(seed, wide, bins):
    if wide:
        system, n = wide_bin_system(np.random.default_rng(seed))
    else:
        system = random_system(seed, ADMISSIBLE)  # digits below p: no collisions
        n = 5
        while n > 1 and system.phi_product(n) > MAX_ATOMS:
            n -= 1
    nums = atom_numerators(system, n)
    assert nums.dtype == np.int64
    words = level_atoms(system, n)
    hist = density_histogram(system, n, bins)
    tail = system.tail_max_sum(n)
    assert hist.hull == (words[0], words[-1] + tail)
    assert hist.counts.tolist() == bin_oracle(words, tail, bins)
    # the second wide family has int64 atoms and a cover reach past 2**63
    assert support_cover(system, n) == cover_oracle(system, n, nums.tolist())


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=512))
def test_histogram_counts_colliding_words(seed, n, bins):
    system = random_system(seed, (arbitrary_level,))  # digits up to 2p: words collide
    while n > 1 and system.phi_product(n) > MAX_ATOMS:
        n -= 1
    words = fraction_atoms(system, n)
    assert level_atoms(system, n) == tuple(sorted(words))
    hist = density_histogram(system, n, bins)
    tail = system.tail_max_sum(n)
    assert hist.atom_count == len(words)
    assert hist.hull == (min(words), max(words) + tail)
    assert hist.counts.tolist() == bin_oracle(words, tail, bins)


@pytest.mark.parametrize("text, n", [
    # 279,936 atoms: a block of 3 * 6**6 word sums, shifted by two level-1 offsets
    ("cycle: (2,{0,1}) (3,{0,1,2})", 14),
    # 2**17 atoms past int64: Python-int blocks, shifted by two level-1 offsets
    (f"preamble: ({2**50},{{0,{2**49}}}) cycle: (2,{{0,1}})", 17),
])
def test_histogram_blocks_match_sorted_atoms(text, n):
    system = parse_system(text)
    tail = system.tail_max_sum(n)
    hist = density_histogram(system, n, 4096)
    assert hist.counts.tolist() == bin_oracle(level_atoms(system, n), tail, 4096)


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.integers(-400, 400), st.integers(1, 24))
def test_predicate_matches_fraction_test(seed, a, b):
    rng = np.random.default_rng(seed)
    p, digits = GENERATORS[int(rng.integers(len(GENERATORS)))](rng)
    ds = classify_level(p, digits)
    one_level = MoranSystem((ds,), ())
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


SIGMAS = st.lists(st.sampled_from((1, -1)), max_size=3)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(1, 3), SIGMAS)
def test_check_orthogonal_matches_pair_loop_on_spectra(seed, n, sigma):
    # a spectrum is judged against the truncation at its own level
    system = random_system(seed, ADMISSIBLE)
    while n > 1 and system.phi_product(n) > 150:
        n -= 1
    pts = level_spectrum(system, n, sigma)
    report = check_orthogonal(system, pts)
    assert report == pair_loop_orthogonality(system, pts.points, n)


def perturbed_spectrum(system, n: int, sigma, rng) -> SpectrumLevel | tuple[int, ...]:
    """The level-n spectrum with one element moved.

    A companion entry of L_j moves by a multiple of p_j (the companion test
    still passes) or by 1 or 2 (level j's family may fail).  A factor element
    moved by less than P_{j-1} leaves P_{j-1} Z, which no companion can say:
    those points come back as a plain point list.
    """
    pts = level_spectrum(system, n, sigma)
    j = int(rng.integers(1, n + 1))
    unit = (system.level(j).p, 1, None)[int(rng.integers(3))]
    move = int(rng.choice((-2, -1, 1, 2)))
    if unit is None:
        factors = [list(f) for f in pts.factors]
        e = int(rng.integers(len(factors[j - 1])))
        factors[j - 1][e] += int(rng.integers(1, max(2, system.P(j - 1)))) * move
        return tuple(sorted_sums(factors).tolist())
    companions = [list(L) for L in pts.unfolded()]
    e = int(rng.integers(len(companions[j - 1])))
    companions[j - 1][e] += unit * move
    return SpectrumLevel(system, n, tuple(map(tuple, companions)))


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(1, 3), SIGMAS)
def test_check_orthogonal_matches_pair_loop_on_perturbed_spectra(seed, n, sigma):
    rng = np.random.default_rng(seed)
    system = random_system(seed, ADMISSIBLE)
    while n > 1 and system.phi_product(n) > 150:
        n -= 1
    pts = perturbed_spectrum(system, n, sigma, rng)
    try:  # a spectrum is judged at its own level, a point list against the measure
        expected = (pair_loop_orthogonality(system, pts.points, n)
                    if isinstance(pts, SpectrumLevel)
                    else pair_loop_orthogonality(system, pts, None))
    except MoranStructureError:  # two digit words collide
        with pytest.raises(MoranStructureError, match="spectrum collision"):
            check_orthogonal(system, pts)
        return
    assert check_orthogonal(system, pts) == expected


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.lists(st.integers(-300, 300), max_size=30))
def test_check_orthogonal_matches_pair_loop_on_point_sets(seed, pts):
    # random integers miss the zero set often, so failures are compared too;
    # a point set is judged against the measure
    system = random_system(seed)
    report = check_orthogonal(system, pts)
    assert report == pair_loop_orthogonality(system, pts, None)


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_is_hadamard_matches_fraction_pair_loop(seed):
    rng = np.random.default_rng(seed)
    p, digits = GENERATORS[int(rng.integers(len(GENERATORS)))](rng)
    ds = classify_level(p, digits)
    if ds.cls is LevelClass.INVALID:
        with pytest.raises(ValueError, match="not admissible"):
            is_hadamard(ds, range(ds.phi))
        return
    L = list(construct_L(ds))
    # move some companions off their lattice (duplicates included)
    for k in range(len(L)):
        if rng.uniform() < 0.3:
            L[k] += int(rng.integers(-2 * p, 2 * p + 1))
    expected = all(fraction_member(ds, Fraction(a - b), p)
                   for a, b in combinations(L, 2))
    assert is_hadamard(ds, L) == expected


def poly_divmod(a: list[int], b: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (low degree first), b monic."""
    rem, quot = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = c = rem[k + len(b) - 1]
        for i, coeff in enumerate(b):
            rem[k + i] -= c * coeff
    return quot, rem[:len(b) - 1]


@functools.cache
def cyclotomic(v: int) -> tuple[int, ...]:
    """Phi_v: z**v - 1 divided exactly by Phi_e for every proper divisor e of v."""
    poly = [-1] + [0] * (v - 1) + [1]
    for e in range(1, v):
        if v % e == 0:
            poly, rem = poly_divmod(poly, cyclotomic(e))
            assert not any(rem)
    return tuple(poly)


def cyclotomic_mask_zero(digits, u: int, v: int) -> bool:
    """The oracle: u/v in lowest terms is a zero of D's mask iff Phi_v divides
    sum_d z**(d u mod v), the mask's sum at the primitive v-th root e(-1/v)."""
    g = math.gcd(u, v)
    u, v = u // g, v // g
    poly = [0] * v
    for d in digits:
        poly[d * u % v] += 1
    return not any(poly_divmod(poly, cyclotomic(v))[1])


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(-500, 500), st.integers(1, 150))
def test_mask_zero_matches_cyclotomic_oracle(seed, u0, v0):
    rng = np.random.default_rng(seed)
    p, digits = ADMISSIBLE[int(rng.integers(len(ADMISSIBLE)))](rng)
    ds = classify_level(p, digits)
    one_level = make_system(preamble=[(p, digits)])
    # over p the companions' differences; over 2 max(D) the two-digit zeros
    for v in (p, 2 * ds.digits[-1], v0):
        for u in [*range(v), u0]:
            zero = cyclotomic_mask_zero(ds.digits, u, v)
            assert ds.mask_zero(u, v) == ds.mask_zero(-3 * u, 3 * v) == zero, (u, v)
            assert (zero_set_contains(one_level, Fraction(u * p, v)) is not None) == zero
    L = construct_L(ds)
    assert is_hadamard(ds, L)
    for k in range(len(L)):  # companions with one entry moved by 1
        for step in (-1, 1):
            moved = L[:k] + (L[k] + step,) + L[k + 1:]
            expected = all(cyclotomic_mask_zero(ds.digits, a - b, p)
                           for a, b in combinations(moved, 2))
            assert is_hadamard(ds, moved) == expected


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(-500, 500), st.integers(1, 40))
def test_invalid_level_has_no_zero_family(seed, u, v):
    rng = np.random.default_rng(seed)
    p, digits = arbitrary_level(rng)
    ds = classify_level(p, digits)
    if ds.cls is not LevelClass.INVALID:
        return
    # whatever its mask does (the oracle may find zeros), an INVALID level adds none
    assert not ds.mask_zero(u, v)
    assert zero_set_contains(make_system(preamble=[(p, digits)]), Fraction(u * p, v)) is None
    with pytest.raises(ValueError, match="not admissible"):
        is_hadamard(ds, range(ds.phi))


def scalar_mask_loop(system, lo: int, hi: int, x: float, lam: int | None = None) -> complex:
    """The per-level scalar product the array transforms replaced, kept as the oracle.

    x is reduced mod P_i exactly by math.fmod, as the transforms and
    q_sum_finite reduce it; with lam, lam is reduced mod P_i exactly too, as
    q_sum_finite reduces its nodes.  Unreduced, x/P_i rounds at
    |x|/P_i * 2**-53, and that alone moves a product by up to 1.4e-12 and a
    sum by up to 4e-12 at |x| = 1e3.
    """
    val = complex(1.0)
    for i in range(lo + 1, hi + 1):
        Pi = system.P(i)
        y = math.fmod(x, Pi) / Pi if lam is None else (lam % Pi) / Pi + math.fmod(x, Pi) / Pi
        val *= complex(mask_eval(system.level(i).digits, y))
    return val


def per_point_q_sum(system, n: int, lams, xs) -> np.ndarray:
    """A per-point mask loop, kept as the oracle for the tree fold.

    Every level's mask is evaluated at every (xi, lambda) entry, lambda (as
    Python ints) and xi reduced mod P_m exactly, with the same stop rule.
    """
    lam = np.array([int(lam) for lam in lams], dtype=object)
    x = np.asarray(xs, dtype=np.float64)[..., None]
    top = int(np.max(np.abs(lam), initial=0))
    stop = math.ceil(2**57 * math.pi * system.max_digit_ratio) * max(
        float(np.max(np.abs(x), initial=0.0)), top)
    out = np.ones(np.broadcast_shapes(lam.shape, x.shape), dtype=np.complex128)
    m, Pm = 0, 1
    while m < n and not Pm > stop:
        m += 1
        Pm = system.P(m)
        red = np.asarray((lam % Pm) / Pm, dtype=np.float64)
        out *= mask_eval(system.level(m).digits, red + np.fmod(x, Pm) / Pm)
    return np.sum(np.abs(out) ** 2, axis=-1)


XIS = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.lists(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
                       min_size=1, max_size=20))
def test_mask_skips_no_bit_of_exp_zero(seed, xs):
    # the digit 0, first as in every classified level, adds 1 with no exp taken: bit
    # for bit the sum that took exp(0 * x) too, at +-0 and tiny and huge x
    rng = np.random.default_rng(seed)
    p, digits = GENERATORS[int(rng.integers(4))](rng)
    x = np.array(xs + [0.0, -0.0, 5e-324, -1e-300])
    full = np.zeros(x.shape, dtype=np.complex128)
    for d in digits:
        full += np.exp((-2j * np.pi * d) * x)
    full /= len(digits)
    assert mask_eval(digits, x).tobytes() == full.tobytes()
    assert complex(mask_eval(digits, x[0])) == full[0]


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(0, 8), st.integers(1, 40), XIS)
def test_transforms_match_scalar_loop(seed, n, depth, xi):
    system = random_system(seed)
    if n:  # the level-n transform is the tail from 0
        level, _ = fourier_tail(system, 0, xi, n)
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
@given(SEEDS, st.integers(0, 8), st.lists(XIS, min_size=1, max_size=5),
       st.lists(st.integers(-10**20, 10**20), min_size=1, max_size=12),
       st.sampled_from((1, 10**6, 10**20)))
def test_q_sum_matches_per_point_loop(seed, n, xs, lams, scale):
    # scale 10**20 leaves few distinct lambda; scale 1 leaves int64
    system = random_system(seed)
    lams = [lam // scale for lam in lams]
    for x in (np.array(xs), xs[0]):
        assert np.max(np.abs(q_sum_finite(system, n, lams, x)
                             - per_point_q_sum(system, n, lams, x))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(1, 5), SIGMAS, st.lists(XIS, min_size=1, max_size=5))
def test_q_sum_on_spectra_matches_per_point_loop(seed, n, sigma, xs):
    system = random_system(seed, ADMISSIBLE)
    while n > 1 and system.phi_product(n) > 3000:
        n -= 1
    pts = level_spectrum(system, n, sigma)
    for depth in (n, n + 3):
        assert np.max(np.abs(q_sum_finite(system, depth, pts, np.array(xs))
                             - per_point_q_sum(system, depth, pts.points, xs))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(1, 5), SIGMAS,
       st.lists(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
                min_size=1, max_size=5))
def test_q_sum_of_spectra_is_one_at_large_xi(seed, n, sigma, xs):
    # each level's sum over its factor is 1 at any xi (a Hadamard triple per
    # level), so only rounding may move Q, however large xi is
    system = random_system(seed, ADMISSIBLE)
    while n > 1 and system.phi_product(n) > 3000:
        n -= 1
    pts = level_spectrum(system, n, sigma)
    assert check_orthogonal(system, pts).passed  # so Q is 1 exactly
    assert np.max(np.abs(q_sum_finite(system, n, pts, np.array(xs)) - 1.0)) <= 1e-13


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


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(0, 8), st.sampled_from((1, 5, 40, 400)),
       st.lists(st.floats(min_value=-1e280, max_value=1e280, allow_nan=False),
                min_size=1, max_size=6))
def test_grouped_mask_product_is_sequential_product(seed, lo, depth, xs):
    # a preamble and a rotated cycle repeat digit sets; xs up to 1e280 run
    # the product to P_m near 1e300, and depth 400 names levels whose P
    # overflows a float
    rng = np.random.default_rng(seed)
    system = make_system(
        preamble=[ADMISSIBLE[int(rng.integers(3))](rng) for _ in range(int(rng.integers(1, 3)))],
        cycle=[ADMISSIBLE[int(rng.integers(3))](rng) for _ in range(int(rng.integers(1, 4)))])
    for x in (np.array(xs), xs[0], np.resize(np.array(xs), (2, 3))):
        val, scale = _mask_product(system, lo, lo + depth, x)
        oracle, oracle_scale = sequential_mask_product(system, lo, lo + depth, x)
        assert np.array_equal(val, oracle) and scale == oracle_scale
        assert np.shape(val) == np.shape(x)
        level, _ = fourier_tail(system, 0, x, depth)
        assert np.array_equal(level, sequential_mask_product(system, 0, depth, x)[0])


def mesh_next_level_bound(system, n_k: int) -> tuple[float, float]:
    """The mesh-plus-slack T2 bound the closed form replaced, and its mesh minimum.

    Kept as the oracle: 1 + 8f is sampled on an 801 x 801 mesh of the angle
    box and lowered by a Lipschitz slack.
    """
    nxt = system.level(n_k + 1)
    u = 1.0 + 1.0 / system.P(n_k)
    w1 = math.pi * nxt.digits[1] * u / nxt.p
    w2 = math.pi * nxt.digits[2] * u / nxt.p
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
               if system.level(n + 1).cls is LevelClass.T2)
    new = epsilon_next_level(system, n_k)
    old, mesh_min = mesh_next_level_bound(system, n_k)
    nxt, P = system.level(n_k + 1), system.P(n_k)
    assert old <= new
    assert new ** 2 <= mesh_min + 1e-12
    assert (new == 0.0) == (3 * nxt.digits[1] * (P + 1) >= nxt.p * P)


def covering_system(rng):
    """Admissible, a cycle level of 3 or 4 digits, and a sign prefix.

    The prefix ends with -1 at the T3 level where it stops, at most level 11,
    so the first checkpoint class often starts right after it: the class
    range then reaches past the range at n_k.
    """
    def wide(rng):
        return random_t2_level(rng) if rng.integers(2) else (4 * int(rng.integers(2, 9)),
                                                             (0, 1, 2, 3))

    cycle = [wide(rng)] + [(random_t3_level, wide)[int(rng.integers(2))](rng)
                           for _ in range(int(rng.integers(3)))]
    system = make_system(preamble=[random_t3_level(rng)] * int(rng.integers(2)),
                         cycle=[cycle[i] for i in rng.permutation(len(cycle))])
    reached = sum(system.level(i).cls is LevelClass.T3
                  for i in range(1, int(rng.integers(8, 13))))
    sigma = tuple(int(v) for v in rng.choice((1, -1), size=reached))
    return system, sigma[:-1] + (-1,) if sigma else ()


@settings(max_examples=15, deadline=None)
@given(SEEDS)
@example(58)  # halving L takes epsilon 1.1% past the least |tail|
@example(297)  # the range at n_k alone misses a dip that level n_k + T reaches
@example(731)
def test_covered_epsilon_bounds_tail_on_class(seed):
    # the covering oracle proves the class certify passes, and its epsilon sits
    # below |tail| at every lambda of the class's first three checkpoints (while
    # they have at most 20000), on a xi grid over [-1, 1]; B stays below 1e-8 there
    system, sigma = covering_system(np.random.default_rng(seed))
    cert = certify(system, sigma)
    assert cert.verdict is Verdict.PASS
    n_k, T = cert.checkpoint, len(system.cycle)
    eps = covering_oracle(class_tail(system, n_k), *_class_range(system, n_k, sigma))[0]
    assert eps >= 1e-9
    xi = np.linspace(-1.0, 1.0, 9)
    for n in (n_k, n_k + T, n_k + 2 * T):
        if system.phi_product(n) > 20000:
            break
        lam = np.array(level_spectrum(system, n, sigma).points, dtype=np.float64)
        val, err = fourier_tail(system, n, np.add.outer(xi, lam).ravel(), 12)
        assert np.min(np.abs(val) * (1 + err)) >= eps


def small_level(rng) -> tuple[int, tuple[int, ...]]:
    """An admissible level of scale at most 15."""
    kind = int(rng.integers(3))
    if kind == 0:
        n = int(rng.integers(4, 6))
        return n * int(rng.integers(2, 4)), tuple(range(n))
    if kind == 1:
        a, b = ((1, 2), (1, 5), (4, 5), (2, 7))[int(rng.integers(4))]
        return 3 * int(rng.integers(-(-b // 2), 6)), (0, a, b)  # b/p <= 2/3
    while True:
        p = int(rng.integers(2, 16))
        d = int(rng.integers(1, p))
        if (p // math.gcd(d, p)) % 2 == 0:
            return p, (0, d)


def assert_walk_matches_oracle(tail, lo, hi):
    """The covering oracle proves [lo, hi] iff the walk finds no zero there, and a
    zero the walk returns lies in [lo, hi] and is a mask zero of its tail level."""
    zero = zero_in_range(tail, lo, hi)
    eps, _, _, reason = covering_oracle(tail, lo, hi)
    assert (eps >= 1e-9) == (zero is None), (lo, hi, zero, eps, reason)
    if zero is not None:
        lvl, y = tail.level(zero.level), zero.zero
        assert lo <= y <= hi and lvl.cls is zero.cls
        assert lvl.mask_zero(y.numerator, y.denominator * tail.P(zero.level))
    return zero


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_zero_walk_matches_covering_oracle(seed):
    # small scales put zeros near the class ranges; a random interval, ends
    # over 97 in [-6, 6], reaches zeros of several tail levels, and its ends are
    # zeros or lie at least 1/(97 s) from one, which the oracle resolves
    rng = np.random.default_rng(seed)
    cycle = [small_level(rng) for _ in range(int(rng.integers(1, 4)))]
    if all(len(d) < 3 for _, d in cycle):
        cycle[int(rng.integers(len(cycle)))] = (12, (0, 1, 2, 3))
    system = make_system(preamble=[small_level(rng)] * int(rng.integers(2)), cycle=cycle)
    sigma = tuple(int(v) for v in rng.choice((1, -1), size=int(rng.integers(5))))
    n0 = max(7, _head(system, sigma))
    for n_k in range(n0, n0 + len(cycle)):
        tail = class_tail(system, n_k)
        assert_walk_matches_oracle(tail, *_class_range(system, n_k, sigma))
        u, v = sorted(int(x) for x in rng.integers(-6 * 97, 6 * 97 + 1, size=2))
        assert_walk_matches_oracle(tail, Fraction(u, 97), Fraction(v, 97))


@pytest.mark.parametrize("cycle, sigma, zeros", [
    # class 7's range holds y = -4/7, where the covering found |tail| 3.25e-10
    ([(8, (0, 1, 2, 3)), (8, (0, 7))], (-1, -1, -1), [Fraction(-4, 7), None]),
    # class 10's range reaches the (4,{0,3}) mask zero at y = 2/3
    ([(2, (0, 1)), (2, (0, 1)), (4, (0, 3)), (9, (0, 1, 2))], (1,) * 8,
     [Fraction(2, 3), None, None, None]),
])
def test_zero_walk_matches_covering_oracle_on_targeted_systems(cycle, sigma, zeros):
    system = make_system(cycle=cycle)
    n0 = max(7, _head(system, sigma))
    found = [assert_walk_matches_oracle(class_tail(system, n), *_class_range(system, n, sigma))
             for n in range(n0, n0 + len(cycle))]
    assert [w and w.zero for w in found] == zeros
    assert certify(system, sigma).checkpoint == n0 + 1


def range_system(rng, cyclic: bool):
    """Admissible: up to 3 preamble levels, and 1 to 3 cycle levels if cyclic."""
    def levels(lo, hi):
        return [ADMISSIBLE[int(rng.integers(3))](rng) for _ in range(int(rng.integers(lo, hi + 1)))]

    return make_system(preamble=levels(0 if cyclic else 1, 3),
                       cycle=levels(1, 3) if cyclic else ())


def sign_prefix(rng, system):
    """Up to 3T + 10 signs, T the cycle length."""
    size = int(rng.integers(0, 3 * len(system.cycle) + 11))
    return tuple(int(v) for v in rng.choice((1, -1), size=size))


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.booleans())
def test_running_extremes_match_factor_oracle(seed, cyclic):
    # at every level m <= n, inside the preamble and past it
    rng = np.random.default_rng(seed)
    system = range_system(rng, cyclic)
    n = len(system.preamble) + (int(rng.integers(0, 3 * len(system.cycle) + 4)) if cyclic else 0)
    sigma = sign_prefix(rng, system)
    for m, (lo, hi, P) in enumerate(_lambda_extremes(system, n, sigma)):
        assert (Fraction(lo, P), Fraction(hi, P)) == factor_lambda_extremes(system, m, sigma)
    assert m == n
    assert lambda_norm_check(system, n, sigma) == max(Fraction(hi, P), Fraction(-lo, P))


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_class_range_matches_factor_oracle(seed):
    # classes that start inside the preamble, at its end and past it
    rng = np.random.default_rng(seed)
    system = range_system(rng, True)
    sigma = sign_prefix(rng, system)
    for n_k in range(len(system.preamble) + 2 * len(system.cycle) + 2):
        assert _class_range(system, n_k, sigma) == factor_class_range(system, n_k, sigma)


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.booleans(), st.sampled_from(("preamble", "cycle", "long")))
def test_head_and_period_match_per_level_oracle(seed, cyclic, ends):
    # sigma ends in the preamble, in the cycle, or past the T3 levels up to n;
    # n lies below, at and past head + T, where the stored companions end
    rng = np.random.default_rng(seed)
    system = range_system(rng, cyclic)
    T = len(system.cycle)
    t3 = sum(lvl.cls is LevelClass.T3 for lvl in system.preamble)
    size = {"preamble": int(rng.integers(0, t3 + 1)), "cycle": t3 + int(rng.integers(1, 2 * T + 2)),
            "long": t3 + int(rng.integers(2 * T + 2, 3 * T + 11))}[ends]
    sigma = [int(v) for v in rng.choice((1, -1), size=size)]
    if sigma and rng.uniform() < 0.2:  # a bad entry is refused where it is read, only there
        sigma[int(rng.integers(size))] = int(rng.choice((0, 2, -3)))
    m = scanned_head(system, sigma) + T
    for n in {int(rng.integers(0, m + 1)), m, m + (int(rng.integers(1, 2 * T + 4)) if T else 0)}:
        try:
            expected, used = per_level_companions(system, n, sigma)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                level_spectrum(system, n, sigma)
            continue
        spec = level_spectrum(system, n, sigma)
        assert len(spec.companions) == min(n, m)
        assert tuple(spec.unfolded()) == expected
        assert spec.sigma == used
        if (q := math.prod(map(len, expected))) < 2**63:  # len() holds an index-sized int
            assert len(spec) == q
        factors = tuple(tuple(system.P(j - 1) * a for a in L) for j, L in enumerate(expected, 1))
        assert spec.factors == factors
        report = check_orthogonal(system, spec)
        assert report == check_orthogonal(system, SpectrumLevel(system, n, expected))
        if system.phi_product(n) <= 150:
            assert spec.points == tuple(sorted_sums(factors).tolist())
            assert report == pair_loop_orthogonality(system, spec.points, n)


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.booleans())
def test_tail_sums_match_fraction_oracle(seed, cyclic):
    # int and Fraction terms from every n inside the preamble and past it,
    # past a finite system's end too
    system = range_system(np.random.default_rng(seed), cyclic)
    mean = lambda lvl: Fraction(sum(lvl.digits), lvl.phi)
    for n in range(len(system.preamble) + 2 * len(system.cycle) + 2):
        assert system.tail_max_sum(n) == fraction_tail_sum(system, n, lambda lvl: lvl.digits[-1])
        assert system._tail_sum(n, mean) == fraction_tail_sum(system, n, mean)


def signed_levels(rng, count: int):
    """Admissible levels, and the same levels with a negative scale or digits."""
    plain, raw = [], []
    for _ in range(count):
        p, digits = ADMISSIBLE[int(rng.integers(3))](rng)
        theta, flip = [(-1, False), (1, True), (-1, True)][int(rng.integers(3))]
        plain.append((p, digits))
        raw.append((theta * p, tuple(-d for d in digits) if flip else digits))
    return plain, raw


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.integers(1, 4), SIGMAS,
       st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                min_size=1, max_size=8))
def test_normalization_keeps_transform_modulus_and_orthogonality(seed, n, sigma, xs):
    rng = np.random.default_rng(seed)
    pre_plain, pre_raw = signed_levels(rng, int(rng.integers(0, 3)))
    cyc_plain, cyc_raw = signed_levels(rng, int(rng.integers(1, 3)))
    normalized = make_system(pre_raw, cyc_raw)
    plain = make_system(pre_plain, cyc_plain)
    # the raw mask product over the signed levels, nothing normalized
    raw = pre_raw + cyc_raw * n
    x = np.array(xs)
    product, P = np.ones(len(xs), dtype=np.complex128), 1
    for p, digits in raw[:n]:
        P *= p
        product *= mask_eval(digits, x / P)
    assert np.allclose(np.abs(fourier_tail(normalized, 0, x, n)[0]), np.abs(product),
                       rtol=0, atol=1e-10)
    while n > 1 and plain.phi_product(n) > 150:
        n -= 1
    spectra = [level_spectrum(s, n, sigma) for s in (normalized, plain)]
    report = check_orthogonal(normalized, spectra[0])
    assert report.passed and report == check_orthogonal(plain, spectra[1])
    # the point path, which judges the points against the measure, agrees too
    assert (check_orthogonal(normalized, spectra[0].points)
            == check_orthogonal(plain, spectra[1].points))


def raw_level(rng) -> tuple[int, tuple[int, ...]]:
    """A generator's level, or noise, as a file may give it: signs flipped, digits shuffled.

    The noise draws scales from -3 to 12 and digits from -12 to 12, so p in {-1, 0, 1}
    and digit sets that no shift normalizes come up; one level in 16 repeats a digit.
    """
    if rng.integers(3):
        p, digits = GENERATORS[int(rng.integers(len(GENERATORS)))](rng)
        p *= int(rng.choice([-1, 1]))
        digits = [-d for d in digits] if rng.integers(2) else list(digits)
    else:
        p = int(rng.integers(-3, 13))
        digits = rng.choice(np.arange(-12, 13), size=int(rng.integers(1, 6)),
                            replace=False).tolist()
    if rng.integers(16) == 0:
        digits.append(digits[int(rng.integers(len(digits)))])
    return p, tuple(int(d) for d in rng.permutation(digits))


def two_pass_level(p_raw: int, digits: tuple[int, ...]) -> Level:
    """A level as make_system first built it: normalize_level sorts, classify_level again."""
    if len(digits) != len(set(digits)):
        raise MoranStructureError(f"duplicate digits in {digits}")
    p, shifted = normalize_level(p_raw, digits)
    if p <= 1:
        raise MoranStructureError(f"scale p = {p_raw} must exceed 1 in modulus")
    return classify_level(p, shifted)


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_one_pass_levels_match_two_pass_oracle(seed):
    rng = np.random.default_rng(seed)
    pre, cyc = ([raw_level(rng) for _ in range(int(rng.integers(lo, 3)))] for lo in (0, 1))

    def signed(d: int) -> str:  # a sign on a nonnegative digit is optional
        return f"+{d}" if d >= 0 and rng.integers(2) else str(d)

    def entries(levels):
        return " ".join(f"({p},{{{','.join(map(signed, digits))}}})" for p, digits in levels)

    text = f"preamble: {entries(pre)}\ncycle: {entries(cyc)}\n"
    try:
        expected = MoranSystem(tuple(two_pass_level(*lvl) for lvl in pre),
                               tuple(two_pass_level(*lvl) for lvl in cyc))
    except MoranError as exc:
        with pytest.raises(MoranError) as raised:
            parse_system(text)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
    else:
        assert parse_system(text) == expected
    for p, digits in pre + cyc:  # sorted or not, a tuple is sorted before it is classified
        assert classify_level(p, digits) == classify_level(p, sorted(set(digits)))


def sampled_tiling_check(T, window: int, samples: int) -> bool:
    """The midpoint-probe loop the exact tiling decision replaced, kept as the oracle.

    Midpoints (2j+1)/(2*samples) of [0, 1) count exact membership of x + k in
    T's Fraction intervals over |k| <= window; T tiles when every count is 1.
    """
    shifts = range(-window, window + 1)
    for j in range(samples):
        x = Fraction(2 * j + 1, 2 * samples)
        cover = sum(1 for k in shifts for lo, hi in T.intervals if lo <= x + k <= hi)
        if cover != 1:
            return False
    return True


def grid_cover(rng, g: int) -> IntervalUnion:
    """Closed intervals with endpoints on (1/g)Z, each at most 3 long.

    Half the draws cut [0, 1] at grid points and move each piece by an
    integer (a tile), then, most of the time, move one endpoint by 1/g.
    """
    if rng.integers(2):
        cuts = sorted({0, g, *(int(c) for c in rng.integers(0, g + 1, size=3))})
        shifts = g * rng.integers(-3, 4, size=len(cuts) - 1)
        pairs = [[lo + k, hi + k] for lo, hi, k in zip(cuts, cuts[1:], shifts)]
        if rng.integers(4):
            pairs[int(rng.integers(len(pairs)))][int(rng.integers(2))] += 1
    else:
        pairs = [[lo, lo + int(rng.integers(0, 3 * g + 1))]
                 for lo in rng.integers(-3 * g, 3 * g, size=int(rng.integers(1, 5)))]
    return IntervalUnion.from_intervals(
        (Fraction(int(lo), g), Fraction(int(hi), g)) for lo, hi in pairs)


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.integers(1, 12))
def test_tiling_defects_match_sampled_oracle(seed, g):
    T = grid_cover(np.random.default_rng(seed), g)
    lo, hi = T.hull
    # two probes per grid cell, none on an endpoint; the window reaches the hull
    window = math.ceil(max(abs(lo), abs(hi))) + 1
    gap, overlap = tiling_defects(T)
    assert 0 <= gap <= 1 and 0 <= overlap and gap * g == int(gap * g)
    assert 1 - gap + overlap == T.total_length
    assert ((gap, overlap) == (0, 0)) == sampled_tiling_check(T, window, 2 * g)


FRACTIONS = st.fractions(min_value=-20, max_value=20, max_denominator=10**6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(FRACTIONS, FRACTIONS.map(abs)), max_size=8))
def test_total_length_matches_fraction_sum(pairs):
    T = IntervalUnion.from_intervals((lo, lo + width) for lo, width in pairs)
    oracle = sum((hi - lo for lo, hi in T.intervals), Fraction(0))
    assert T.total_length == oracle
    gap, overlap = tiling_defects(T)
    assert 1 - gap + overlap == oracle


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(FRACTIONS, FRACTIONS.map(abs)), max_size=6),
       st.lists(st.tuples(FRACTIONS, FRACTIONS.map(abs)), max_size=6))
def test_union_queries_match_fraction_intervals(pairs, other_pairs):
    raw = [(Fraction(lo), lo + w) for lo, w in pairs]
    T, U = IntervalUnion.from_intervals(raw), IntervalUnion.from_intervals(
        (lo, lo + w) for lo, w in other_pairs)
    # merging T's intervals into U leaves U as it is iff T lies inside it
    inside = all(any(a <= lo and hi <= b for a, b in U.intervals) for lo, hi in raw)
    assert (IntervalUnion.from_intervals(T.intervals + U.intervals) == U) == inside


#: Values repeat within a column: signed zeros, both nan signs, infinities,
#: subnormals and ordinary floats; ints reach past int64 and uint64.
FLOAT_POOL = (-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
              -2.2250738585072e-308, 0.1, 1 / 3, -2.5e-7, 1e300, 123456.789)
INT_POOL = (0, -5, 7, 2**63 - 1, 2**63, -(2**63) - 1, 2**64 + 1, -(2**70))


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from((0, 1, 2**13 - 1, 2**13, 2**13 + 1, 2**14 + 3)),
       st.lists(st.booleans(), min_size=1, max_size=3))
def test_write_csv_matches_row_formatter(tmp_path_factory, seed, rows, float_columns):
    rng = np.random.default_rng(seed)
    floats = FLOAT_POOL + tuple(rng.normal(size=4) * 10.0 ** rng.integers(-12, 12, size=4))
    columns = [[floats[i] if is_float else INT_POOL[i % len(INT_POOL)]
                for i in rng.integers(0, len(floats), size=rows).tolist()]
               for is_float in float_columns]
    header = [f"c{j}" for j in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(str(path), header, [np.array(c, dtype=np.float64) if is_float else c
                                  for c, is_float in zip(columns, float_columns)])
    # as lists of lines, so that a failure names its first differing line
    # instead of diffing thousands of lines at every shrinking step
    expected = row_formatter_csv(header, zip(*columns))
    assert path.read_text().split("\n") == expected.split("\n")
