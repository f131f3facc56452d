"""Hadamard triples (p, D, L): companion sets and the exact Hadamard test.

A triple is Hadamard when the N x N matrix (1/sqrt(N)) [exp(-2 pi i d l / p)]
over d in D, l in L is unitary; equivalently L is a spectrum of the uniform
measure on D/p.  ``construct_L`` builds the companion set of each admissible
class, the L_j that the level-n spectrum takes at level j (its factor there
is P_{j-1} L_j), so ``hadamard`` prints the spectrum's L.  ``is_hadamard``
decides the property exactly, asking ``Level.mask_zero`` whether each
difference of L, over p, is a zero of the mask of D: it is the one pair
test, which ``hadamard`` prints per level and ``check_orthogonal`` asks of
each distinct companion of a spectrum.  Both take a classified ``Level``,
so a class is read only with the p it was classified under.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

from .core import Level, LevelClass, two_adic_split


def digit_star(N: int) -> tuple[int, ...]:
    """Centered integer interval of size N containing 0: {-floor(N/2), ...}."""
    if N < 1:
        raise ValueError("N must be at least 1")
    lo = -(N // 2)
    return tuple(range(lo, N + lo))


def construct_L(level: Level, sign: int = 1) -> tuple[int, ...]:
    """Companion set making (p, D, L) a Hadamard triple: the spectrum's L of a level.

    T1 (D = {0..N-1}, N | p):  L = (p/N) digit_star(N).
    T2 (D = {0,a,b}, 3 | p):   L = (0, p/3, -p/3).
    T3 (D = {0,d}):            L = (0, sign p/2**(1+l)), d = 2**l times an odd
                               number; p/gcd(d,p) even puts 2**(1+l) in p, and
                               2d/2**(1+l) is odd.
    """
    p, N = level.p, level.phi
    if level.cls is LevelClass.T1:
        return tuple(p // N * a for a in digit_star(N))
    if level.cls is LevelClass.T2:
        return (0, p // 3, -(p // 3))
    if level.cls is LevelClass.T3:
        return (0, sign * (p >> (1 + two_adic_split(level.digits[1])[0])))
    raise ValueError(f"not admissible: {level.violations}")


def is_hadamard(level: Level, L: Iterable[int]) -> bool:
    """Exact Hadamard-triple test via the mask zero set.

    True iff every difference of distinct elements of L, scaled by 1/p, is a
    zero of the mask of D, which ``Level.mask_zero`` decides for each pair
    of L in integers, with no float formed.
    """
    Ls = tuple(L)
    if len(Ls) != level.phi:
        raise ValueError(f"cardinality mismatch: #D = {level.phi}, #L = {len(Ls)}")
    if level.cls is LevelClass.INVALID:
        raise ValueError(f"not admissible: {level.violations}")
    return all(level.mask_zero(a - b, level.p) for a, b in combinations(Ls, 2))
