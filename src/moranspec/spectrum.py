"""Candidate spectra for Moran systems and their orthogonality/completeness.

The level-n candidate spectrum is a Minkowski sum of per-level integer
factor sets:

    T3 level i:  P_i {0, sigma_i / 2**(1+l_i)}   (d_i = 2**l_i * odd),
    T2 level j:  P_j {0, 1/3, -1/3},
    T1 level m:  P_m {a/N_m : a in the centered digit interval}.

Every factor is a set of integers (the class divisibility conditions make
the scaled fractions integral), the sets nest as n grows, and the level-n
set has exactly Phi(1)...Phi(n) points, matching the atom count of the
level-n truncation.  Orthogonality of the set is decided exactly through
the zero set; completeness at finite level is the statement that the
quadratic sum Q(xi) = sum over points of |F_n(xi + lambda)|^2 is constant 1.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Level-n candidate spectrum: the sign prefix actually used + points."""

    level: int
    sigma: tuple[int, ...]
    points: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.points)


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
    admissible or when the Minkowski sum collides (fewer than
    Phi(1)...Phi(n) points).
    """
    factors, used = level_factors(system, n, sigma)
    pts = minkowski_sum(factors)
    if len(pts) != system.phi_product(n):
        raise MoranStructureError(f"spectrum collision at level {n}")
    return SpectrumLevel(n, used, pts)


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


def check_orthogonal(
    system: MoranSystem,
    points: SpectrumLevel | Iterable,
    max_level: int | None = None,
) -> OrthogonalityReport:
    """Exact orthogonality: every pairwise difference must hit the zero set.

    With ``max_level`` set the membership scan is restricted to that many
    levels, i.e. orthogonality relative to the level-truncated measure.
    """
    pts = _points(points)
    failures = []
    witnessed = set()
    for a, b in combinations(pts, 2):
        w = zero_set_contains(system, a - b, max_level=max_level)
        if w is None:
            failures.append((a, b))
        else:
            witnessed.add(w.level)
    q = len(pts)
    return OrthogonalityReport(
        q, q * (q - 1) // 2, tuple(failures), tuple(sorted(witnessed))
    )


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
