"""Candidate spectra for Moran systems and their orthogonality/completeness.

The level-n candidate spectrum is a Minkowski sum of per-level integer
factor sets:

    T3 level i:  P_i {0, sigma_i / 2**(1+l_i)}   (d_i = 2**l_i * odd),
    T2 level j:  P_j {0, 1/3, -1/3},
    T1 level m:  P_m {a/N_m : a in the centered digit interval}.

Every factor is a set of integers (the class divisibility conditions make
the scaled fractions integral), the sets nest as n grows, and the level-n
set has exactly Phi(1)...Phi(n) points, matching the atom count of the
level-n truncation.  The level-j factor lies in P_{j-1} Z, so orthogonality
is decided exactly per factor, against level j's zero-set family alone (a
Hadamard triple per level); completeness at finite level is the statement
that the quadratic sum
Q(xi) = sum over points of |F_n(xi + lambda)|^2 is constant 1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .core import (
    LevelClass,
    MoranStructureError,
    MoranSystem,
    _factor_extremes,
    _last_level,
    _outer_sums,
    _partial_sum_dtype,
    minkowski_sum,
    np,
    zero_set_contains,
)

SigmaPrefix = Sequence[int]


def digit_star(N: int) -> tuple[int, ...]:
    """Centered integer interval of size N containing 0: {-floor(N/2), ...}."""
    if N < 1:
        raise ValueError("N must be at least 1")
    lo = -(N // 2)
    return tuple(range(lo, N + lo))


def _sign(sigma: SigmaPrefix | None, k: int) -> int:
    """Sign for the k-th two-digit level; +1 beyond the supplied prefix."""
    if sigma is None or k >= len(sigma):
        return 1
    s = int(sigma[k])
    if s not in (-1, 1):
        raise ValueError(f"sigma entries must be +1 or -1, got {s}")
    return s


@dataclass(frozen=True)
class SpectrumLevel:
    """Level-n candidate spectrum: the sign prefix actually used + factors.

    The points, the factors' Minkowski sum, are built on first access.
    """

    level: int
    sigma: tuple[int, ...]
    factors: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return math.prod(map(len, self.factors))

    @cached_property
    def points(self) -> tuple[int, ...]:
        pts = minkowski_sum(self.factors)
        if (pts[1:] == pts[:-1]).any():
            raise MoranStructureError(f"spectrum collision at level {self.level}")
        return tuple(pts.tolist())


def level_factors(
    system: MoranSystem, n: int, sigma: SigmaPrefix | None = None
) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Per-level integer factor sets whose Minkowski sum is the spectrum.

    Returns (factors, sigma_used).  Each factor set contains 0 and has
    Phi(i) elements; raises when a level up to n is not admissible.
    """
    system.check_admissible(n)
    factors: list[tuple[int, ...]] = []
    used: list[int] = []
    for lvl, _, Pi in system.walk(n):
        ds = lvl.digits
        cls = ds.cls
        if cls is LevelClass.T3:
            l, _ = ds.d_two_adic
            denom = 2 ** (1 + l)
            # 2**(1+l) | p_i is implied by the even-cofactor condition
            assert Pi % denom == 0
            s = _sign(sigma, len(used))
            used.append(s)
            factors.append((0, s * (Pi // denom)))
        elif cls is LevelClass.T2:
            step = Pi // 3
            factors.append((0, step, -step))
        else:  # T1: check_admissible refused INVALID
            base = Pi // ds.N
            factors.append(tuple(base * a for a in digit_star(ds.N)))
    return factors, tuple(used)


def level_spectrum(
    system: MoranSystem, n: int, sigma: SigmaPrefix | None = None
) -> SpectrumLevel:
    """Build the level-n candidate spectrum for a sign prefix.

    ``sigma`` assigns a sign to successive two-digit (T3) levels; entries
    beyond the prefix default to +1.  Raises when a level up to n is not
    admissible.  The points are not built until they are asked for.
    """
    factors, used = level_factors(system, n, sigma)
    return SpectrumLevel(n, used, tuple(factors))


def _points(points: SpectrumLevel | Iterable) -> tuple:
    return points.points if isinstance(points, SpectrumLevel) else tuple(points)


@dataclass(frozen=True)
class OrthogonalityReport:
    """Outcome of the exact pairwise orthogonality check."""

    point_count: int
    pairs_checked: int
    failures: tuple[tuple, ...]
    witness_levels: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _nested(system: MoranSystem, factors) -> bool:
    """Every F_j lies in P_{j-1} Z with distinct residues mod P_j.

    Then two points whose digit words first differ at level j differ by a
    nonzero residue mod P_j, so none collide, and every point is congruent
    mod P_m to the sum of its first m factor elements.
    """
    return all(all(f % prev == 0 for f in F) and len({f % P for f in F}) == len(F)
               for (_, prev, P), F in zip(system.walk(len(factors)), factors))


def _factors_orthogonal(system: MoranSystem, factors) -> bool:
    """The factors nest and each F_j, over P_{j-1}, is a Hadamard companion.

    A companion L of level j has every difference l - l' a zero of
    mask(D_j, (l - l')/p_j), which ``DigitSet.mask_zero`` decides per pair.
    Then two points whose digit words first differ at level j differ by
    (f - f') + P_j m with s (f - f') / P_j an integer not divisible by k
    for level j's family (s, k), and s m divisible by k: level j holds the
    difference, and no level below it can, since P_{j-1} divides it.
    """
    return _nested(system, factors) and all(
        lvl.digits.mask_zero(a - b, lvl.p)
        for (lvl, prev, _), F in zip(system.walk(len(factors)), factors)
        for a, b in combinations([f // prev for f in F], 2))


def check_orthogonal(
    system: MoranSystem,
    points: SpectrumLevel | Iterable,
    max_level: int | None = None,
) -> OrthogonalityReport:
    """Exact orthogonality: every pairwise difference must hit the zero set.

    A SpectrumLevel is decided from its factors in O(sum |F_j|**2) integer
    work, with no point built: one ``DigitSet.mask_zero`` test of level j
    per pair of F_j (see ``_factors_orthogonal``); its witness levels are
    those with |F_j| > 1.  A failing factor, a plain point
    iterable, or ``max_level`` below the spectrum's level takes the point
    path: the zero set is symmetric, so each distinct |difference| is
    decided once, and the pairs are walked again only to list failures in
    pair order.  With ``max_level`` set the membership scan is restricted to
    that many levels, i.e. orthogonality relative to the level-truncated
    measure.
    """
    if (isinstance(points, SpectrumLevel)
            and (max_level is None or max_level >= len(points.factors))
            and _factors_orthogonal(system, points.factors)):
        q = math.prod(map(len, points.factors))  # may exceed what len() returns
        levels = tuple(j for j, f in enumerate(points.factors, start=1) if len(f) > 1)
        return OrthogonalityReport(q, q * (q - 1) // 2, (), levels)
    pts = _points(points)
    witness = {d: zero_set_contains(system, d, max_level=max_level)
               for d in {abs(a - b) for a, b in combinations(pts, 2)}}
    missed = {d for d, w in witness.items() if w is None}
    failures = tuple((a, b) for a, b in combinations(pts, 2)
                     if abs(a - b) in missed) if missed else ()
    levels = {w.level for w in witness.values() if w is not None}
    q = len(pts)
    return OrthogonalityReport(q, q * (q - 1) // 2, failures, tuple(sorted(levels)))


#: Grid points per block keep the (block x nodes) arrays near this many entries.
_BLOCK_ENTRIES = 2**13


def _level_terms(system: MoranSystem, m: int, nodes: np.ndarray, xi: np.ndarray):
    """Level m's |mask|^2 = 1/N + sum_delta (2 c_delta / N^2) cos 2 pi delta (r + xi) / P_m.

    Returns 1/N and, per distinct digit difference delta > 0 of multiplicity
    c_delta, the cos and sin of 2 pi delta xi / P_m per grid point and of
    2 pi (delta r mod P_m) / P_m per node r, the latter scaled by
    2 c_delta / N^2.  Nodes are reduced exactly, and xi mod P_m once for
    every delta (fmod is exact, and leaves |xi| < P_m as it is), so all of a
    level's terms see one xi.
    """
    digits = system.digit_set(m).digits
    N, Pm = len(digits), system.P(m)
    counts = Counter(b - a for a, b in combinations(digits, 2))
    if nodes.dtype == object or max(counts) * Pm >= 2**63:
        nodes = nodes.astype(object)  # exact Python ints past the int64 range
    r, u = nodes % Pm, np.fmod(xi, Pm) / Pm
    terms = []
    for delta, c in counts.items():
        at_x = 2 * math.pi * (delta * u)
        at_r = 2 * math.pi * np.asarray(delta * r % Pm / Pm, dtype=np.float64)
        terms.append((np.cos(at_x), np.sin(at_x),
                      2 * c / N**2 * np.cos(at_r), 2 * c / N**2 * np.sin(at_r)))
    return 1 / N, terms


def _level_weights(level, rows: slice) -> np.ndarray:
    """(grid rows x nodes) |mask|^2 of one level, in real elementwise products only."""
    base, terms = level
    w = None
    for cos_x, sin_x, cos_r, sin_r in terms:
        term = np.multiply.outer(cos_x[rows], cos_r)
        term -= np.multiply.outer(sin_x[rows], sin_r)
        w = term if w is None else np.add(w, term, out=w)
    return np.add(w, base, out=w)


def q_sum_finite(
    system: MoranSystem, n: int, points: SpectrumLevel | Iterable, xi
) -> float | np.ndarray:
    """Quadratic sum sum_lambda |F_n(xi + lambda)|^2 for the level-n measure.

    Identically 1 (up to floating error) exactly when the points form a
    spectrum of the level-n truncation; past the points' level it is at most
    1 (Bessel) for an orthogonal set.  Accepts scalar or ndarray xi.

    The points are summed over their digit tree, whose level-m nodes are
    F_1 + ... + F_m: a SpectrumLevel whose factors nest (see ``_nested``),
    else one factor holding the points.  Level m's mask depends on a point
    only through its level-m node, so Q = sum_{f_1} W_1 sum_{f_2} W_2 ... is
    folded bottom-up, levels past the tree multiplying at its leaves.  Each
    level's sum over a factor is 1 at any xi for a spectrum, and every level
    sees one xi mod P_m, so Q stays 1 to rounding at any float xi.  The
    product stops where ``_last_level`` says for the larger of max|xi| and
    max|lambda|, the latter read off the factors' extremes.  At the points'
    own level ``check_orthogonal`` decides Q = 1 exactly from the factors
    (the CLI's route); this float sum serves deeper levels and failing sets.
    """
    system.P(n)  # a level past a finite system's end is named as requested
    x = np.asarray(xi, dtype=np.float64)
    flat = x.reshape(-1)
    if (isinstance(points, SpectrumLevel)
            and len(points.factors) <= (system.finite_length or len(points.factors))
            and _nested(system, points.factors)):
        factors = [[int(f) for f in F] for F in points.factors]
    else:  # a perturbed or colliding spectrum, or a plain point list
        factors = [[int(f) for f in _points(points)]]
    low, high = _factor_extremes(factors)
    last, _ = _last_level(system, 0, n, max(float(np.max(np.abs(x), initial=0.0)), high, -low))
    depth = len(factors)
    nodes = _outer_sums(factors, _partial_sum_dtype(factors))
    levels = {m: _level_terms(system, m, nodes[min(m, depth)], flat)
              for m in range(1, last + 1) if system.phi(m) > 1}  # one digit: |mask| = 1
    q = np.empty(flat.shape)
    step = max(1, _BLOCK_ENTRIES // max(len(nodes[-1]), 1))
    for k in range(0, len(flat), step):
        rows, b = slice(k, k + step), min(step, len(flat) - k)
        acc = np.ones((b, len(nodes[-1])))
        for m in range(max(depth, last), 0, -1):
            if m in levels:
                acc *= _level_weights(levels[m], rows)
            if m <= depth:  # sum each level-(m-1) node's children
                acc = acc.reshape(b, len(factors[m - 1]), len(nodes[m - 1])).sum(axis=1)
        q[rows] = acc[:, 0]
    return float(q[0]) if x.ndim == 0 else q.reshape(x.shape)


def exp_matrix_residual(positions: Iterable, frequencies: Iterable) -> float:
    """Unitarity residual of the q x q matrix exp(-2 pi i lambda x)/sqrt(q).

    Rows range over measure atoms, columns over spectrum points; a residual
    at rounding level certifies that the points are a spectrum of the atom
    measure.
    """
    x = np.array([float(v) for v in positions])
    lam = np.array([float(v) for v in frequencies])
    if len(x) != len(lam):
        raise ValueError("need equally many atoms and spectrum points")
    q = len(x)
    H = np.exp(-2j * np.pi * np.outer(x, lam)) / np.sqrt(q)
    return float(np.max(np.abs(H.conj().T @ H - np.eye(q))))
