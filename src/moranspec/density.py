"""Support covers, density histograms, uniformity, and integer tiling.

When every level satisfies Phi(n) = p_n the Moran measure is absolutely
continuous; its support can then be approximated from outside by finite
unions of closed rational intervals, its density estimated by histograms of
the level atoms (integer numerators over P_n), and the tiling of the line by
integer translates of the support decided exactly by one sweep mod 1.
Interval endpoints stay exact rationals; only the density values are
floating point.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .core import (MoranError, MoranSystem, _atom_factors, _factor_extremes, _outer_sums,
                   _partial_sum_dtype, atoms)


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted union of disjoint closed intervals with rational endpoints."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    @classmethod
    def from_intervals(cls, pairs: Iterable[tuple]) -> "IntervalUnion":
        """Normalize arbitrary closed intervals: sort and merge touching ones."""
        items = sorted((Fraction(a), Fraction(b)) for a, b in pairs)
        merged: list[list[Fraction]] = []
        for lo, hi in items:
            if hi < lo:
                raise ValueError(f"empty interval [{lo}, {hi}]")
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return cls(tuple((lo, hi) for lo, hi in merged))

    def __post_init__(self):
        flat = []
        for lo, hi in self.intervals:
            flat.extend((lo, hi))
        object.__setattr__(self, "_flat", tuple(flat))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def hull(self) -> tuple[Fraction, Fraction]:
        if self.is_empty:
            raise ValueError("empty union has no hull")
        return self.intervals[0][0], self.intervals[-1][1]

    @property
    def total_length(self) -> Fraction:
        den, ends = self._over_common_denominator()
        return Fraction(sum(ends[1::2]) - sum(ends[::2]), den)

    def _over_common_denominator(self) -> tuple[int, list[int]]:
        """The lcm of the endpoint denominators, and the endpoints' numerators over it."""
        den = math.lcm(*(x.denominator for x in self._flat))
        return den, [x.numerator * (den // x.denominator) for x in self._flat]

    def contains(self, x) -> bool:
        x = Fraction(x)
        flat = self._flat
        i = bisect_left(flat, x)
        if i == len(flat):
            return False
        # odd index: strictly inside an interval; even: on a left endpoint
        return i % 2 == 1 or flat[i] == x

    def distance_to(self, x) -> Fraction:
        """Distance from a point to the union (0 when contained)."""
        if self.is_empty:
            raise ValueError("empty union")
        x = Fraction(x)
        if self.contains(x):
            return Fraction(0)
        flat = self._flat
        i = bisect_left(flat, x)
        cands = []
        if i > 0:
            cands.append(x - flat[i - 1])
        if i < len(flat):
            cands.append(flat[i] - x)
        return min(cands)

    def gaps(self) -> list[tuple[Fraction, Fraction]]:
        return [
            (self.intervals[k][1], self.intervals[k + 1][0])
            for k in range(len(self.intervals) - 1)
        ]

    def is_subset_of(self, other: "IntervalUnion") -> bool:
        for lo, hi in self.intervals:
            flat = other._flat
            i = bisect_left(flat, lo)
            if i % 2 == 1:
                k = (i - 1) // 2
            elif i < len(flat) and flat[i] == lo:
                k = i // 2
            else:
                return False
            if hi > other.intervals[k][1]:
                return False
        return True

    def hausdorff_distance(self, other: "IntervalUnion") -> Fraction:
        """Exact Hausdorff distance between two nonempty unions."""

        def directed(a: "IntervalUnion", b: "IntervalUnion") -> Fraction:
            # d(., b) peaks at endpoints of a and at gap midpoints of b
            cands = list(a._flat)
            cands += [
                (lo + hi) / 2 for lo, hi in b.gaps() if a.contains((lo + hi) / 2)
            ]
            return max(b.distance_to(x) for x in cands)

        if self.is_empty or other.is_empty:
            raise ValueError("empty union")
        return max(directed(self, other), directed(other, self))


def support_cover(system: MoranSystem, level: int) -> IntervalUnion:
    """Outer cover of the support: one interval [x, x + R] per level atom.

    R is the exact tail radius sum_{i > level} max(D_i)/P_i, so the cover
    contains the support and shrinks to it as the level grows.  Neighbouring
    atoms k/P < k'/P share an interval iff k' - k <= floor(R P).
    """
    meas = atoms(system, level)
    r = system.tail_max_sum(level)
    nums, P = meas.numerators, meas.denominator
    reach = r.numerator * P // r.denominator
    cut = np.diff(nums) > reach  # an interval ends before each cut, the next starts after
    starts, ends = nums[np.r_[True, cut]].tolist(), nums[np.r_[cut, True]].tolist()
    return IntervalUnion(tuple((Fraction(a, P), Fraction(b, P) + r)
                               for a, b in zip(starts, ends)))


@dataclass(frozen=True)
class Histogram:
    """Density estimate over the support hull from exact level atoms."""

    edges: np.ndarray  # bins + 1 edges spanning the support hull
    counts: np.ndarray
    density: np.ndarray  # counts / (atom_count * bin width)
    atom_count: int
    hull: tuple[Fraction, Fraction]

    @property
    def bin_width(self) -> float:
        return float(self.edges[1] - self.edges[0])

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def total_mass(self) -> float:
        return float(self.counts.sum()) / self.atom_count

    @functools.cached_property
    def empty_fraction(self) -> float:
        """Fraction of hull bins carrying no atoms (large for singular mass)."""
        return float(np.mean(self.counts == 0))

    @property
    def sparse_support(self) -> bool:
        """Flags mass concentrating on a thin set; the density estimate then
        diverges with the level instead of converging to a bounded function."""
        return self.empty_fraction > 0.25


def density_histogram(system: MoranSystem, level: int, bins: int) -> Histogram:
    """Histogram density estimate of the level-truncated measure.

    Digit words k/P_n have equal weight, colliding ones counted apart, and on
    the hull [k_0/P, k_max/P + r/s] word k falls in bin floor((k - k_0) s' bins
    / span), the top edge in the last, decided in integers: s' = s/gcd(s, P),
    span = (hi - lo) P s'.  The bin numerators are the partial sums of the level
    factors scaled to (f - min F) s' bins, binned block by block without sorting.
    The estimate converges weakly to the density when the measure is absolutely
    continuous.  The level should put a couple dozen atoms in each interior bin.
    """
    if bins < 1:
        raise ValueError("bins must be positive")
    factors, P, R = _atom_factors(system, level), system.P(level), system.tail_max_sum(level)
    k0, top = _factor_extremes(factors)
    lo, hi = Fraction(k0, P), Fraction(top, P) + R
    if hi <= lo:
        raise MoranError("degenerate support: zero bin width")
    s1 = math.lcm(P, R.denominator) // P
    span = int((hi - lo) * P * s1)  # an integer: P s1 is a common denominator
    scaled = [[(f - low) * s1 * bins for f in F] for F, low in zip(factors, map(min, factors))]
    dtype = object if span >= 2**63 else _partial_sum_dtype(scaled)  # Python ints past int64
    split = len(scaled)  # the trailing factors' block: max(2**16, bins) sums amortize a bincount
    while split and math.prod(map(len, scaled[split:])) < max(2**16, bins):
        split -= 1
    block, offsets = (_outer_sums(part, dtype)[-1] for part in (scaled[split:], scaled[:split]))
    counts = np.zeros(bins, dtype=np.intp)
    for shift in offsets.tolist():  # each sum of the leading factors shifts the block
        idx = np.minimum((block + shift) // span, bins - 1)
        counts += np.bincount(idx.astype(np.intp, copy=False), minlength=bins)
    q = len(block) * len(offsets)
    width = (float(hi) - float(lo)) / bins
    return Histogram(np.linspace(float(lo), float(hi), bins + 1), counts,
                     counts / (q * width), q, (lo, hi))


#: Bins dropped at each end of the hull before the uniformity test: there the
#: level-n atoms, the left ends of their cells, do not yet follow the density.
EDGE_EXCLUDE = 2


def uniformity_check(histogram: Histogram | np.ndarray, tol: float) -> bool:
    """True when all interior bins with positive mass agree within tol.

    Agreement is relative deviation from the mean of those bins.  For an
    absolutely continuous measure a False verdict rules out spectrality,
    since such a spectral measure must be uniform on its support.  Accepts a
    Histogram or a bare density array.
    """
    if isinstance(histogram, Histogram):
        dens = histogram.density
    else:
        dens = np.asarray(histogram, dtype=float)
    dens = dens[EDGE_EXCLUDE:-EDGE_EXCLUDE]
    dens = dens[dens > 0]
    if dens.size == 0:
        return False
    mean = float(dens.mean())
    return bool(np.max(np.abs(dens - mean)) <= tol * mean)


#: Verdict strings emitted by density_verdict.
VERDICT_SPARSE = "no bounded density detected"
VERDICT_NOT_SPECTRAL = "not spectral by uniformity criterion"
VERDICT_UNIFORM = "uniform on support"


def density_verdict(histogram: Histogram, tol: float = 0.1) -> str:
    """One-line verdict for a density histogram.

    Sparse support means the histogram is diverging rather than estimating a
    bounded density.  A bounded but non-uniform estimate rules out
    spectrality for absolutely continuous measures.
    """
    if histogram.sparse_support:
        return VERDICT_SPARSE
    if not uniformity_check(histogram, tol):
        return VERDICT_NOT_SPECTRAL
    return VERDICT_UNIFORM


def tiling_defects(T: IntervalUnion) -> tuple[Fraction, Fraction]:
    """Exact (gap, overlap) of the integer translates of T over one period.

    gap is the measure of [0, 1) left uncovered and overlap the measure
    covered more than once, with multiplicity; T tiles iff both are 0.  Over
    one denominator each interval is reduced mod 1 and cut at the integer it
    straddles, and one sweep measures the union (Lagarias-Wang 1996).
    """
    den, ends = T._over_common_denominator()
    pieces = []
    for lo, hi in zip(ends[::2], ends[1::2]):
        end = lo % den + min(hi - lo, den)  # length 1 already covers the period
        pieces += [(lo % den, min(end, den)), (0, max(end - den, 0))]
    covered = reach = 0
    for a, b in sorted(pieces):
        covered, reach = covered + max(b - max(a, reach), 0), max(reach, b)
    length = sum(ends[1::2]) - sum(ends[::2])
    return Fraction(den - covered, den), Fraction(length - covered, den)
