"""Support covers, density histograms, uniformity, and integer tiling.

When every level satisfies Phi(n) = p_n the Moran measure is absolutely
continuous; its support can then be approximated from outside by finite
unions of closed intervals, built level by level from the tile equation
with no atom formed, its density estimated by histograms of the level
atoms (integer numerators over P_n, binned from the level factors) and
judged uniform or not from the density array, and the tiling of the line
by integer translates of the support decided exactly by one sweep mod 1.
Interval endpoints are integers over one denominator; only the density
values are floating point.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from fractions import Fraction

from .core import (Frozen, MoranError, MoranSystem, _atom_factors, _factor_extremes,
                   _outer_sums, _partial_sum_dtype, float_text, np)


def _ends_dtype(first: int, last: int, den: int):
    """np.int64 when max(last, 0) - min(first, 0) + den < 2**63 bounds every value formed
    from sorted endpoints first..last over den (lengths, residues, cut pieces), else object."""
    return np.int64 if max(last, 0) - min(first, 0) + den < 2**63 else object


class IntervalUnion(Frozen):
    """Sorted union of disjoint closed intervals with rational endpoints.

    ``ends`` holds the endpoints lo_1, hi_1, lo_2, hi_2, ... as integers over
    ``den``, in int64 where ``_ends_dtype`` allows, else Python ints;
    ``IntervalUnion(())`` is the empty union.
    """

    def __init__(self, ends: np.ndarray, den: int = 1):
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_intervals(cls, pairs: Iterable[tuple]) -> "IntervalUnion":
        """Normalize arbitrary closed intervals: sort and merge touching ones."""
        items = [(Fraction(a), Fraction(b)) for a, b in pairs]
        den = math.lcm(*(x.denominator for pair in items for x in pair))
        merged: list[int] = []
        for lo, hi in sorted((int(a * den), int(b * den)) for a, b in items):
            if hi < lo:
                raise ValueError(f"empty interval [{Fraction(lo, den)}, {Fraction(hi, den)}]")
            if merged and lo <= merged[-1]:
                merged[-1] = max(merged[-1], hi)
            else:
                merged += [lo, hi]
        dtype = _ends_dtype(merged[0], merged[-1], den) if merged else np.int64
        return cls(np.array(merged, dtype=dtype), den)

    def __eq__(self, other):
        return type(other) is type(self) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    @functools.cached_property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        ends = [Fraction(e, self.den) for e in np.asarray(self.ends).tolist()]
        return tuple(zip(ends[::2], ends[1::2]))

    @property
    def is_empty(self) -> bool:
        return len(self.ends) == 0

    @property
    def hull(self) -> tuple[Fraction, Fraction]:
        if self.is_empty:
            raise ValueError("empty union has no hull")
        return Fraction(int(self.ends[0]), self.den), Fraction(int(self.ends[-1]), self.den)

    @property
    def total_length(self) -> Fraction:
        return Fraction(int(np.diff(np.asarray(self.ends).reshape(-1, 2)).sum()), self.den)


def _over_tail_denominator(system: MoranSystem, level: int) -> tuple[int, int, int]:
    """(P_n, den, r): den = lcm(P_n, denominator of R_n), the tail radius R_n = r/den."""
    P, R = system.P(level), system.tail_max_sum(level)
    den = math.lcm(P, R.denominator)
    return P, den, R.numerator * (den // R.denominator)


#: Intervals the support cover may hold in flight: a step of the recursion
#: can hold more than the merged cover, so the cap is checked per step.
MAX_COVER_INTERVALS = 2**24
#: A cover that may overlap or be out of order is merged at this many rows.
_MERGE_ROWS = 2**10


def _merged(rows: np.ndarray) -> np.ndarray:
    """(m, 2) closed intervals, sorted by start, touching ones merged."""
    order = np.argsort(rows[:, 0], kind="stable")  # a step's copies are sorted runs
    lo, reach = rows[order, 0], np.maximum.accumulate(rows[order, 1])
    cut = lo[1:] > reach[:-1]  # an interval ends before each cut, the next starts after
    return np.column_stack((lo[np.concatenate(([True], cut))],
                            reach[np.concatenate((cut, [True]))]))


def support_cover(system: MoranSystem, level: int) -> IntervalUnion:
    """Outer cover of the support: the level-n words plus [0, R], merged.

    R is the exact tail radius sum_{i > level} max(D_i)/P_i, so the cover
    contains the support and shrinks to it as the level grows.  Over den,
    with R = r/den, the cover follows the tile equation (Lagarias-Wang
    1996) from the bottom up, J_n = [0, r] and J_{i-1} = U_{d in D_i}
    (d den/P_i + J_i), to J_0; the union distributes over the digit words,
    so no atom is formed.  Each step adds the sorted shifts to every
    interval at once.  Shifts spaced wider than J_i's hull give disjoint
    copies already in order; closer ones mark the rows for a merge (sort by
    start, running maximum of the ends), made at ``_MERGE_ROWS`` rows, before
    a step that would pass ``MAX_COVER_INTERVALS`` and at the end.  A step
    that passes the cap even from merged rows raises ValueError, before any
    row is built when no step before it was marked (each word then has a row).
    """

    def capped(count: int) -> int:
        if count > MAX_COVER_INTERVALS:
            raise ValueError(f"a level {level} support cover step of {count} "
                             f"intervals, more than the cover cap of {MAX_COVER_INTERVALS}")
        return count

    factors = _atom_factors(system, level)
    P, den, r = _over_tail_denominator(system, level)
    shifts = [sorted(f * (den // P) for f in F) for F in factors]
    count, width = 1, r
    for S in reversed(shifts):  # up to the first marked step
        count = capped(count * len(S))
        if any(b - a <= width for a, b in zip(S, S[1:])):
            break
        width += S[-1] - S[0]
    first, last = _factor_extremes(shifts)
    dtype = _ends_dtype(first, last + r, den)
    rows, width, dirty = np.array([[0, r]], dtype=dtype), r, False
    for S in reversed(shifts):
        if dirty and len(rows) * len(S) > MAX_COVER_INTERVALS:
            rows, dirty = _merged(rows), False
        capped(len(rows) * len(S))
        dirty = dirty or any(b - a <= width for a, b in zip(S, S[1:]))
        rows = (np.array(S, dtype=dtype)[:, None, None] + rows).reshape(-1, 2)
        width += S[-1] - S[0]
        if dirty and len(rows) >= _MERGE_ROWS:
            rows, dirty = _merged(rows), False
    return IntervalUnion((_merged(rows) if dirty else rows).ravel(), den)


class Histogram(Frozen):
    """Density estimate over the support hull from exact level atoms."""

    def __init__(self, edges: np.ndarray, counts: np.ndarray, density: np.ndarray,
                 atom_count: int, hull: tuple[Fraction, Fraction]):
        object.__setattr__(self, "edges", edges)  # bins + 1 edges spanning the support hull
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "density", density)  # counts / (atom_count * bin width)
        object.__setattr__(self, "atom_count", atom_count)
        object.__setattr__(self, "hull", hull)

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
    Raises ValueError, before binning, for a hull out of the float range of the bins.
    """
    if bins < 1:
        raise ValueError("bins must be positive")
    factors = _atom_factors(system, level)
    P, den, r = _over_tail_denominator(system, level)
    k0, top = _factor_extremes(factors)
    s1 = den // P
    span = (top - k0) * s1 + r  # hi - lo = span / den
    if not span:
        raise MoranError("degenerate support: zero bin width")
    lo, hi = Fraction(k0, P), Fraction(top * s1 + r, den)
    scaled = [[(f - low) * s1 * bins for f in F] for F, low in zip(factors, map(min, factors))]
    dtype = object if span >= 2**63 else _partial_sum_dtype(scaled)  # Python ints past int64
    split = len(scaled)  # the trailing factors' block: max(2**16, bins) sums amortize a bincount
    while split and math.prod(map(len, scaled[split:])) < max(2**16, bins):
        split -= 1
    block, offsets = (_outer_sums(part, dtype)[-1] for part in (scaled[split:], scaled[:split]))
    q = len(block) * len(offsets)
    try:
        flo, fhi = float(lo), float(hi)
    except OverflowError:
        flo = fhi = math.inf
    width = (fhi - flo) / bins  # the edges, centers and divisor q width must be finite floats
    if not (0 < width and 2 * fhi + q * width < math.inf):
        raise ValueError(f"the level {level} support hull [{float_text(lo)}, {float_text(hi)}] "
                         f"is out of the float range of {bins} bins: a bin width, center or "
                         "density would be 0 or inf")
    counts = np.zeros(bins, dtype=np.intp)
    for shift in offsets.tolist():  # each sum of the leading factors shifts the block
        idx = np.minimum((block + shift) // span, bins - 1)
        counts += np.bincount(idx.astype(np.intp, copy=False), minlength=bins)
    return Histogram(np.linspace(flo, fhi, bins + 1), counts,
                     counts / (q * width), q, (lo, hi))


#: Bins dropped at each end of the hull before the uniformity test: there the
#: level-n atoms, the left ends of their cells, do not yet follow the density.
EDGE_EXCLUDE = 2


def uniformity_check(density: np.ndarray, tol: float) -> bool:
    """True when all interior bins with positive mass agree within tol.

    ``density`` is a histogram's density array.  Agreement is relative
    deviation from the mean of those bins.  For an absolutely continuous
    measure a False verdict rules out spectrality, since such a spectral
    measure must be uniform on its support.  Raises ValueError when dropping
    EDGE_EXCLUDE bins at each end leaves none.
    """
    if len(density) <= 2 * EDGE_EXCLUDE:
        raise ValueError(f"{len(density)} bins leave no interior bin once "
                         f"{EDGE_EXCLUDE} are dropped at each end")
    dens = density[EDGE_EXCLUDE:-EDGE_EXCLUDE]
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
    if not uniformity_check(histogram.density, tol):
        return VERDICT_NOT_SPECTRAL
    return VERDICT_UNIFORM


def tiling_defects(T: IntervalUnion) -> tuple[Fraction, Fraction]:
    """Exact (gap, overlap) of the integer translates of T over one period.

    gap is the measure of [0, 1) left uncovered and overlap the measure
    covered more than once, with multiplicity; T tiles iff both are 0.  Over
    one denominator each interval is reduced mod 1 and cut at the integer it
    straddles, and one sweep measures the union (Lagarias-Wang 1996).
    """
    den, (lo, hi) = T.den, np.asarray(T.ends).reshape(-1, 2).T
    start = lo % den
    end = start + np.minimum(hi - lo, den)  # length 1 already covers the period
    wrap = int((end - den).max(initial=0))  # the pieces past 1 restart at 0: [0, wrap]
    order = np.argsort(start, kind="stable")
    a, b = start[order], np.minimum(end, den)[order]
    reach = np.maximum.accumulate(np.concatenate(([wrap], b)))[:-1]  # before each piece
    covered = Fraction(wrap + int(np.maximum(b - np.maximum(a, reach), 0).sum()), den)
    return 1 - covered, T.total_length - covered
