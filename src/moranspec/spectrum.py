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
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .core import (
    LevelClass,
    MoranStructureError,
    MoranSystem,
    _mask_product,
    minkowski_sum,
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
    if n < 0:
        raise ValueError("n must be nonnegative")
    system.P(n)  # a level past a finite system's end is named as requested
    factors: list[tuple[int, ...]] = []
    used: list[int] = []
    for i in range(1, n + 1):
        ds = system.digit_set(i)
        Pi = system.P(i)
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
        elif cls is LevelClass.T1:
            base = Pi // ds.N
            factors.append(tuple(base * a for a in digit_star(ds.N)))
        else:
            raise MoranStructureError(
                f"level {i} not admissible: {'; '.join(ds.violations)}"
            )
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


def _factors_orthogonal(system: MoranSystem, factors) -> bool:
    """Each level-j factor lies in P_{j-1} Z and, over P_{j-1}, is a Hadamard companion.

    Then two points whose digit words first differ at level j differ by
    (f - f') + P_j m with s (f - f') / P_j an integer not divisible by k
    for level j's family (s, k), and s m divisible by k: level j holds the
    difference, and no level below it can, since P_{j-1} divides it.
    """
    for j, factor in enumerate(factors, start=1):
        below = system.P(j - 1)
        if any(f % below for f in factor) or not check_orthogonal(
                MoranSystem((system.level(j),), ()), [f // below for f in factor]).passed:
            return False
    return True


def check_orthogonal(
    system: MoranSystem,
    points: SpectrumLevel | Iterable,
    max_level: int | None = None,
) -> OrthogonalityReport:
    """Exact orthogonality: every pairwise difference must hit the zero set.

    A SpectrumLevel is decided from its factors in O(sum |F_j|**2) integer
    work, with no point built (see ``_factors_orthogonal``); its witness
    levels are those with |F_j| > 1.  A failing factor, a plain point
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


def q_sum_finite(
    system: MoranSystem, n: int, points: SpectrumLevel | Iterable, xi
) -> float | np.ndarray:
    """Quadratic sum sum_lambda |F_n(xi + lambda)|^2 for the level-n measure.

    Identically 1 (up to floating error) exactly when the points form a
    spectrum of the level-n truncation; past the points' level it is at most
    1 (Bessel) for an orthogonal set.  Accepts scalar or ndarray xi; lambda
    is reduced mod P_i exactly, so large points lose no phase.
    """
    x = np.asarray(xi, dtype=np.float64)[..., None]
    vals, _ = _mask_product(system, 0, n, _points(points), x)
    q = np.sum(np.abs(vals) ** 2, axis=-1)
    return float(q) if q.ndim == 0 else q


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
