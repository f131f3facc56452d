import math
from fractions import Fraction
from typing import Iterable

import numpy as np
import pytest

from moranspec import (LevelClass, MoranSystem, construct_L, level_spectrum, make_system,
                       mask_eval)
from moranspec.core import (_atom_factors, _factor_extremes, _outer_sums, _partial_sum_dtype,
                            _walk_to_stop)


@pytest.fixture
def final_system():
    """Alternating (2,{0,1}) / (3,{0,1,2}); Lebesgue measure on [0,1]."""
    return make_system(cycle=[(2, (0, 1)), (3, (0, 1, 2))])


@pytest.fixture
def nonuniform_system():
    """Inadmissible system with a three-valued density on [0, 13/4]."""
    return make_system(
        preamble=[(2, (0, 1, 2)), (2, (0, 5, 6))], cycle=[(2, (0, 3))]
    )


@pytest.fixture
def alternating_system():
    """Admissible (9,{0,1,2}) / (4,{0,2}) alternation."""
    return make_system(cycle=[(9, (0, 1, 2)), (4, (0, 2))])


@pytest.fixture
def pure_t3_system():
    """Two-digit head (4,{0,2}) with a (4,{0,1}) cycle."""
    return make_system(preamble=[(4, (0, 2))], cycle=[(4, (0, 1))])


@pytest.fixture
def mixed_system():
    """One level of each class; consecutive-digit cycle."""
    return make_system(
        preamble=[(4, (0, 2)), (12, (0, 1, 2))], cycle=[(8, (0, 1, 2, 3))]
    )


@pytest.fixture
def dyadic_system():
    """Binary digits at every level."""
    return make_system(cycle=[(2, (0, 1))])


# -- random admissible level generators --------------------------------------


def random_t1_level(rng) -> tuple[int, tuple[int, ...]]:
    n = int(rng.integers(4, 13))
    m = int(rng.integers(2, 9))
    return n * m, tuple(range(n))


def random_t2_level(rng) -> tuple[int, tuple[int, ...]]:
    while True:
        b = int(rng.integers(2, 21))
        a = int(rng.integers(1, b))
        if math.gcd(a, b) == 1 and {a % 3, b % 3} == {1, 2}:
            break
    k_min = b // 2 + 1  # ensures b/(3k) < 2/3 strictly
    k = int(rng.integers(k_min, k_min + 12))
    return 3 * k, (0, a, b)


def random_t3_level(rng) -> tuple[int, tuple[int, ...]]:
    while True:
        p = int(rng.integers(2, 65))
        d = int(rng.integers(1, p))
        if (p // math.gcd(d, p)) % 2 == 0:
            return p, (0, d)


# -- level atoms ---------------------------------------------------------------


def sorted_sums(factors) -> np.ndarray:
    """Sorted sums f_1 + ... + f_n, one f_i from each factor: ``SpectrumLevel.points``'s rule."""
    return np.sort(_outer_sums(factors, _partial_sum_dtype(factors))[-1])


def atom_numerators(system, n: int) -> np.ndarray:
    """Sorted level-n atom numerators over P_n, one per digit word: repeats are kept."""
    return sorted_sums(_atom_factors(system, n))


def level_atoms(system, n: int) -> tuple[Fraction, ...]:
    """The level-n atoms as Fractions, sorted, one per digit word."""
    P = system.P(n)
    return tuple(Fraction(k, P) for k in atom_numerators(system, n).tolist())


# -- mask product oracle -------------------------------------------------------


def sequential_mask_product(system, lo: int, hi: int, xi):
    """The one-level-at-a-time mask product, kept as the oracle.

    Same stop rule and scale as ``core._mask_product``; each level's mask is
    evaluated on its own, at P_m formed anew by ``MoranSystem.P``, and
    multiplied into a running product.
    """
    system.P(hi)
    x = np.asarray(xi, dtype=np.float64)
    stop, _, levels = _walk_to_stop(system, lo, hi, float(np.max(np.abs(x), initial=0.0)))
    last = lo + len(levels)
    out = np.ones(x.shape, dtype=np.complex128)
    for m in range(lo + 1, last + 1):
        Pm = system.P(m)
        out *= mask_eval(system.level(m).digits, np.fmod(x, Pm) / Pm)
    return out, min(system.P(last), stop) or 1


# -- certificate covering oracle -----------------------------------------------


def tail_transform(tail, y, far, depth: int):
    """g truncated after ``depth`` levels at y, by ``sequential_mask_product``, and its
    truncation bound B at |far|: that product's scale bounds the omitted factors at any
    |y'| <= |far| (see ``fourier_tail``)."""
    val, scale = sequential_mask_product(tail, 0, depth, y)
    c = float(tail.max_digit_ratio)
    return val, np.expm1(np.minimum(4.0 * math.pi * c * np.abs(far) / scale, math.log(3.0)))


def covering_oracle(tail, lo, hi, depth: int = 30, transform=tail_transform):
    """The Lipschitz covering that certified a class before the exact zero walk, as the oracle.

    Covers g(y) = prod_{i >= 1} mask(D_i, y/P_i) of ``tail`` over [lo, hi].  On a
    cell (ends rounded outward) with midpoint c and half-width w,
    |g| >= (|g_D(c)| - L w) max(1 - B, 0) - 1e-12, where ``transform`` gives g_D at
    the midpoints and B at the cells' far ends, and L = 2 pi sum_i mean(D_i)/P_i
    bounds |g_D'|.  A cell is accepted when that is >= |g_D(c)|/2, else bisected.
    Starts from 64 cells; returns (epsilon, cells, evaluations, reason), epsilon 0
    when a midpoint value is below 1e-9 or more than 4096 evaluations are needed.
    """
    lip = 2 * math.pi * float(tail._tail_sum(0, lambda lvl: Fraction(sum(lvl.digits), lvl.phi)))
    edges = np.linspace(math.nextafter(float(lo), -math.inf),
                        math.nextafter(float(hi), math.inf), 65)
    a, b = edges[:-1], edges[1:]
    eps, cells, evals = math.inf, 0, 0
    while len(a):
        if evals + len(a) > 2**12:
            return 0.0, cells, evals, "no covering within 4096 evaluations"
        evals += len(a)
        mid = (a + b) / 2
        val, err = transform(tail, mid, np.maximum(-a, b), depth)
        g = np.abs(val)
        if g.min() < 1e-9:
            return 0.0, cells, evals, f"tail value {g.min():.3g} at y = {mid[g.argmin()]:.17g}"
        # B may reach 2, and two negative factors must not make a positive bound
        bound = (g - lip * (b - a) / 2) * np.maximum(1.0 - err, 0.0) - 1e-12
        ok = bound >= g / 2
        eps = min(eps, bound[ok].min(initial=math.inf))
        cells += int(np.count_nonzero(ok))
        a, b = np.concatenate((a[~ok], mid[~ok])), np.concatenate((mid[~ok], b[~ok]))
    return float(eps), cells, evals, "covered"


def class_tail(system, n_k: int):
    """The levels after n_k of a class n_k + j T: the cycle rotated to level n_k + 1."""
    r = (n_k - len(system.preamble)) % len(system.cycle)
    return MoranSystem((), system.cycle[r:] + system.cycle[:r])


# -- spectrum companion oracles ------------------------------------------------


def per_level_companions(system, n: int, sigma) -> tuple[tuple, tuple[int, ...]]:
    """L_1, ..., L_n and the T3 signs used, one level at a time, as first written."""
    companions, used = [], []
    for lvl in map(system.level, range(1, n + 1)):
        s = 1
        if lvl.cls is LevelClass.T3:
            s = 1 if sigma is None or len(used) >= len(sigma) else int(sigma[len(used)])
            if s not in (-1, 1):
                raise ValueError(f"sigma entries must be +1 or -1, got {s}")
            used.append(s)
        companions.append(construct_L(lvl, s))
    return tuple(companions), tuple(used)


def scanned_head(system, sigma) -> int:
    """The preamble, or the level of the last T3 level sigma reaches, scanned level by level."""
    npre, reached, seen = len(system.preamble), len(sigma or ()), 0
    for j in range(1, npre + reached * len(system.cycle) + 1):  # a T3 level in every period
        if system.level(j).cls is LevelClass.T3 and (seen := seen + 1) == reached:
            return max(npre, j)
    return npre


# -- certificate range oracles -------------------------------------------------


def factor_lambda_extremes(system, n: int, sigma) -> tuple[Fraction, Fraction]:
    """(min, max) of lambda / P_n summed over the level factors, as first written."""
    lo, hi = _factor_extremes(level_spectrum(system, n, sigma).factors)
    return Fraction(lo, system.P(n)), Fraction(hi, system.P(n))


def factor_class_range(system, n_k: int, sig) -> tuple[Fraction, Fraction]:
    """The class range over the factors of level n_k + T, as first written."""
    P0, n1 = system.P(n_k), n_k + len(system.cycle)
    C = system.P(n1) // P0
    factors = level_spectrum(system, n1, sig).factors  # level n_k's are its first n_k
    (lo0, hi0), (lo1, hi1) = ([Fraction(e, system.P(n)) for e in _factor_extremes(factors[:n])]
                              for n in (n_k, n1))
    return (min(lo0, (lo1 * C - lo0) / (C - 1)) - Fraction(1, P0),
            max(hi0, (hi1 * C - hi0) / (C - 1)) + Fraction(1, P0))


def fraction_tail_sum(system, n: int, term) -> Fraction:
    """Sum over i > n of term(level i)/P_i, one Fraction per level, as first written."""

    def terms(lo: int, hi: int) -> Fraction:
        return sum((Fraction(term(system.level(i)), system.P(i))
                    for i in range(lo, hi + 1)), Fraction(0))

    if not system.cycle:
        return terms(n + 1, len(system.preamble))
    # past the preamble the tail repeats one period, scaled by 1/C each time
    i0 = max(n, len(system.preamble))
    C = system.P(i0 + len(system.cycle)) // system.P(i0)
    return terms(n + 1, i0) + terms(i0 + 1, i0 + len(system.cycle)) * Fraction(C, C - 1)


# -- unitarity oracles ---------------------------------------------------------


def unitarity_residual(p: int, digits: Iterable[int], L: Iterable[int]) -> float:
    """Max-norm of H*H - I for H = (1/sqrt(N)) [exp(-2 pi i d l / p)].

    The float reference for the exact ``is_hadamard``: it reads no class,
    only the plain (p, D, L).
    """
    ds, Ls = tuple(digits), tuple(L)
    if len(Ls) != len(ds):
        raise ValueError(f"cardinality mismatch: #D = {len(ds)}, #L = {len(Ls)}")
    n = len(ds)
    H = np.exp(-2j * np.pi * np.outer(ds, Ls) / p) / math.sqrt(n)
    return float(np.max(np.abs(H.conj().T @ H - np.eye(n))))


def exp_matrix_residual(positions, frequencies) -> float:
    """Unitarity residual of the q x q matrix exp(-2 pi i lambda x)/sqrt(q).

    Rows range over measure atoms, columns over spectrum points; a residual
    at rounding level says, in floats, what ``check_orthogonal`` decides
    exactly: the points are a spectrum of the atom measure.
    """
    x = np.array([float(v) for v in positions])
    lam = np.array([float(v) for v in frequencies])
    if len(x) != len(lam):
        raise ValueError("need equally many atoms and spectrum points")
    q = len(x)
    H = np.exp(-2j * np.pi * np.outer(x, lam)) / np.sqrt(q)
    return float(np.max(np.abs(H.conj().T @ H - np.eye(q))))


# -- CSV oracle ----------------------------------------------------------------


def row_formatter_csv(header, rows) -> str:
    """The per-value row formatter write_csv replaced, kept as the oracle."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.15g}" if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
