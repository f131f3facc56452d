"""Candidate spectra for Moran systems and their orthogonality/completeness.

The level-n candidate spectrum is a Minkowski sum of per-level integer
factor sets F_j = P_{j-1} L_j, where L_j is level j's Hadamard companion
from ``construct_L``:

    T3 level i:  L_i = {0, sigma_i p_i / 2**(1+l_i)}   (d_i = 2**l_i * odd),
    T2 level j:  L_j = {0, p_j/3, -p_j/3},
    T1 level m:  L_m = (p_m/N_m) {the centered digit interval of size N_m}.

A ``SpectrumLevel`` holds the companions in the system's own shape, a head
(the preamble and the levels the sign prefix reaches) and one cycle, and
forms the factors, as long as P_j, only when asked.  The level-n set has
Phi(1)...Phi(n) points, the atom count of the level-n truncation, and the
sets nest as n grows.
Orthogonality is decided exactly per distinct companion, against its
level's zero-set family alone (a Hadamard triple per level); completeness at
finite level is the statement that the quadratic sum
Q(xi) = sum over points of |F_n(xi + lambda)|^2 is constant 1.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import combinations, cycle, islice

from .core import (
    Frozen,
    Level,
    LevelClass,
    MoranStructureError,
    MoranSystem,
    _factor_extremes,
    _outer_sums,
    _partial_sum_dtype,
    _walk_to_stop,
    np,
    zero_set_contains,
)
from .hadamard import construct_L, is_hadamard

SigmaPrefix = Sequence[int]


def _head(system: MoranSystem, sigma: SigmaPrefix | None) -> int:
    """The preamble and the last T3 level sigma reaches: past it, L_j = L_{j-T}."""
    npre = len(system.preamble)
    t3 = [i for i, lvl in enumerate(system.cycle, 1) if lvl.cls is LevelClass.T3]
    rest = (0 if sigma is None else len(sigma)) - sum(
        lvl.cls is LevelClass.T3 for lvl in system.preamble)
    if rest <= 0 or not t3:  # the prefix ends in the preamble, or is never read past it
        return npre
    k, r = divmod(rest - 1, len(t3))
    return npre + k * len(system.cycle) + t3[r]


class SpectrumLevel(Frozen):
    """Level-n candidate spectrum of a system, in the system's own shape.

    ``companions`` holds L_1, ..., L_m, m = min(n, head + T): the preamble
    and the levels the sign prefix reaches, then one cycle.  Past m,
    L_j = L_{j-T}; ``unfolded`` yields all n.  The factors F_j = P_{j-1} L_j
    and the points, their Minkowski sum, are built on first access.
    """

    def __init__(self, system: MoranSystem, level: int,
                 companions: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "companions", companions)

    def unfolded(self) -> Iterator[tuple[int, ...]]:
        """L_1, ..., L_n: the stored companions, then their last T repeated."""
        stored, T = self.companions, len(self.system.cycle)
        yield from stored
        yield from islice(cycle(stored[len(stored) - T:]), self.level - len(stored))

    @property
    def sigma(self) -> tuple[int, ...]:
        """Each T3 level's sign up to n: only T3 companions have two entries, (0, sign x)."""
        return tuple(1 if sum(L) > 0 else -1 for L in self.unfolded() if len(L) == 2)

    def __len__(self) -> int:
        return math.prod(map(len, self.unfolded()))

    @cached_property
    def factors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(prev * a for a in L)
                     for (_, prev, _), L in zip(self.system.walk(self.level), self.unfolded()))

    @cached_property
    def points(self) -> tuple[int, ...]:
        pts = np.sort(_outer_sums(self.factors, _partial_sum_dtype(self.factors))[-1])
        if (pts[1:] == pts[:-1]).any():
            raise MoranStructureError(f"spectrum collision at level {self.level}")
        return tuple(pts.tolist())


def _distinct_companions(spec: SpectrumLevel) -> set[tuple[Level, tuple[int, ...]]]:
    """The distinct (level j, L_j) pairs of a spectrum, read off its stored companions."""
    return set(zip(map(spec.system.level, range(1, len(spec.companions) + 1)), spec.companions))


def level_spectrum(
    system: MoranSystem, n: int, sigma: SigmaPrefix | None = None
) -> SpectrumLevel:
    """Build the level-n candidate spectrum for a sign prefix.

    ``sigma`` assigns a sign to successive two-digit (T3) levels; entries
    beyond the prefix default to +1.  Raises when a level up to n is not
    admissible, or a sign read is not +1 or -1.  Only the head and one
    cycle of companions are built, and neither the factors nor the points
    until they are asked for.
    """
    system.check_admissible(n)
    signs, companions = iter(() if sigma is None else sigma), []
    for lvl in map(system.level, range(1, min(n, _head(system, sigma) + len(system.cycle)) + 1)):
        s = 1
        if lvl.cls is LevelClass.T3 and (s := int(next(signs, 1))) not in (-1, 1):
            raise ValueError(f"sigma entries must be +1 or -1, got {s}")
        companions.append(construct_L(lvl, s))
    return SpectrumLevel(system, n, tuple(companions))


class OrthogonalityReport(Frozen):
    """Outcome of the exact pairwise orthogonality check."""

    def __init__(self, point_count: int, pairs_checked: int, failures: tuple[tuple, ...],
                 witness_levels: tuple[int, ...]):
        object.__setattr__(self, "point_count", point_count)
        object.__setattr__(self, "pairs_checked", pairs_checked)
        object.__setattr__(self, "failures", failures)
        object.__setattr__(self, "witness_levels", witness_levels)

    @property
    def passed(self) -> bool:
        return not self.failures


def _companions_hadamard(system: MoranSystem, spec: SpectrumLevel) -> bool:
    """Each distinct companion of a spectrum of ``system`` is Hadamard for its level.

    Level j is admissible, L_j has Phi(j) entries and ``is_hadamard`` holds
    for (p_j, D_j, L_j): every difference l - l' is a zero of
    mask(D_j, (l - l')/p_j), the verdict ``hadamard`` prints.  Then two
    points whose digit words first differ at level j differ by
    P_{j-1} (l - l') + P_j m with s (l - l') / p_j an integer not divisible
    by k for level j's family (s, k), and s m divisible by k: level j holds
    the difference, and no level below it can, since P_{j-1} divides it.
    """
    return spec.system == system and all(
        lvl.cls is not LevelClass.INVALID and len(L) == lvl.phi
        and is_hadamard(lvl, L)
        for lvl, L in _distinct_companions(spec))


def check_orthogonal(system: MoranSystem, points: SpectrumLevel | Iterable) -> OrthogonalityReport:
    """Exact orthogonality: every pairwise difference must hit the zero set.

    A SpectrumLevel of level n is judged against the level-n truncation of
    the measure, a plain point iterable against the measure itself.  The
    former is decided from its companions, with no point and no P_j built,
    when each distinct (level, companion) passes ``_companions_hadamard``;
    its witness levels are those with |L_j| > 1.  A failing companion or a
    plain point iterable takes the point path: the zero set is symmetric,
    so ``zero_set_contains`` decides each distinct |difference| once, up to
    level n for a SpectrumLevel, and the pairs are walked again only to list
    failures in pair order.
    """
    if not isinstance(points, SpectrumLevel):
        pts, last = tuple(points), None
    elif _companions_hadamard(system, points):
        q = system.phi_product(points.level)
        levels = tuple(j for j, L in enumerate(points.unfolded(), start=1) if len(L) > 1)
        return OrthogonalityReport(q, q * (q - 1) // 2, (), levels)
    else:
        pts, last = points.points, points.level
    witness = {d: zero_set_contains(system, d, max_level=last)
               for d in {abs(a - b) for a, b in combinations(pts, 2)}}
    missed = {d for d, w in witness.items() if w is None}
    failures = tuple((a, b) for a, b in combinations(pts, 2)
                     if abs(a - b) in missed) if missed else ()
    levels = {w.level for w in witness.values() if w is not None}
    q = len(pts)
    return OrthogonalityReport(q, q * (q - 1) // 2, failures, tuple(sorted(levels)))


#: Grid points per block keep the (block x nodes) arrays near this many entries.
_BLOCK_ENTRIES = 2**13


def _level_terms(digits: tuple[int, ...], Pm: int, nodes: np.ndarray, xi: np.ndarray):
    """Level m's |mask|^2 = 1/N + sum_delta (2 c_delta / N^2) cos 2 pi delta (r + xi) / P_m.

    Returns 1/N and, per distinct digit difference delta > 0 of multiplicity
    c_delta, the cos and sin of 2 pi delta xi / P_m per grid point and of
    2 pi (delta r mod P_m) / P_m per node r, the latter scaled by
    2 c_delta / N^2.  Nodes are reduced exactly, and xi mod P_m once for
    every delta (fmod is exact, and leaves |xi| < P_m as it is), so all of a
    level's terms see one xi.
    """
    N = len(digits)
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
    F_1 + ... + F_m: a SpectrumLevel of ``system`` whose every L_j has
    distinct residues mod p_j, so that no two digit words collide, else one
    factor holding the points.  Level m's mask depends on a point only
    through its level-m node, so Q = sum_{f_1} W_1 sum_{f_2} W_2 ... is
    folded bottom-up, levels past the tree multiplying at its leaves.  Each
    level's sum over a factor is 1 at any xi for a spectrum, and every level
    sees one xi mod P_m, so Q stays 1 to rounding at any float xi.  The
    product stops where ``_walk_to_stop`` says for the larger of max|xi| and
    max|lambda|, the latter read off the factors' extremes.  At the points'
    own level ``check_orthogonal`` decides Q = 1 exactly from the companions
    (the CLI's route); this float sum serves deeper levels and failing sets.
    """
    if n:
        system.level(n)  # a level past a finite system's end is named as requested
    x = np.asarray(xi, dtype=np.float64)
    flat = x.reshape(-1)
    if (isinstance(points, SpectrumLevel) and points.system == system
            and all(len({a % lvl.p for a in L}) == len(L)
                    for lvl, L in _distinct_companions(points))):
        factors = [[int(f) for f in F] for F in points.factors]
    else:  # a spectrum of another system or with a repeated residue, or a point list
        pts = points.points if isinstance(points, SpectrumLevel) else points
        factors = [[int(f) for f in pts]]
    low, high = _factor_extremes(factors)
    _, _, walked = _walk_to_stop(system, 0, n,
                                 max(float(np.max(np.abs(x), initial=0.0)), high, -low))
    depth, last = len(factors), len(walked)
    nodes = _outer_sums(factors, _partial_sum_dtype(factors))
    levels = {m: _level_terms(lvl.digits, P, nodes[min(m, depth)], flat)
              for m, (lvl, P) in enumerate(walked, start=1) if lvl.phi > 1}  # one digit: |mask| = 1
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

