"""Moran systems on the real line.

A system is an eventually periodic sequence of levels (p_n, D_n) with integer
scale p_n > 1 and a finite digit set D_n of nonnegative integers containing 0.
It generates the infinite convolution

    mu = delta(D_1 / P_1) * delta(D_2 / P_2) * ...,   P_n = p_1 p_2 ... p_n,

where delta(E) puts equal mass on the points of E.  This module holds the
system representation, the admissible digit-set classes, the finite-level
atom measures (integer numerators over P_n, built by one integer Minkowski
sum), mask polynomials, truncated Fourier transforms, and the exact zero set
of the full transform, decided in integer arithmetic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class MoranError(Exception):
    """Base class for errors raised by this package."""


class MoranSyntaxError(MoranError):
    """Malformed system description text."""


class MoranStructureError(MoranError):
    """Structurally ill-posed system (bad scale, digits, or collisions)."""


class AtomCollisionError(MoranStructureError):
    """Two digit words produced the same atom position."""


class LevelRangeError(MoranStructureError, ValueError):
    """A level past the end of a finite system was requested."""


class LevelClass(Enum):
    """Admissible digit-set classes (plus the catch-all INVALID)."""

    T1 = "T1"  # consecutive {0..N-1}, N > 3, N | p, p > N
    T2 = "T2"  # {0,a,b}, gcd(a,b)=1, {a,b} = {1,2} mod 3, 3 | p, b/p < 2/3
    T3 = "T3"  # {0,d}, 0 < d < p, p/gcd(d,p) even
    INVALID = "invalid"


def two_adic_split(d: int) -> tuple[int, int]:
    """Write d = 2**l * d_odd with d_odd odd; returns (l, d_odd)."""
    if d <= 0:
        raise ValueError("positive integer required")
    l = (d & -d).bit_length() - 1
    return l, d >> l


@dataclass(frozen=True)
class DigitSet:
    """A classified digit set.

    ``digits`` is sorted and duplicate-free.  ``cls`` records the class the
    set falls into; when it is INVALID, ``violations`` lists the failed
    clauses.  ``warnings`` carries non-fatal notes (currently only the
    boundary ratio b/p == 2/3 for three-digit sets).
    """

    digits: tuple[int, ...]
    cls: LevelClass
    warnings: tuple[str, ...] = ()
    violations: tuple[str, ...] = ()

    @property
    def N(self) -> int:
        return len(self.digits)

    @property
    def max_digit(self) -> int:
        return self.digits[-1]

    @property
    def d(self) -> int:
        """Nonzero digit of a two-digit set."""
        if self.N != 2:
            raise ValueError("two-digit set required")
        return self.digits[1]

    @property
    def d_two_adic(self) -> tuple[int, int]:
        """(l, d_odd) with d = 2**l * d_odd for a two-digit set."""
        return two_adic_split(self.d)

    @property
    def a(self) -> int:
        if self.N != 3:
            raise ValueError("three-digit set required")
        return self.digits[1]

    @property
    def b(self) -> int:
        if self.N != 3:
            raise ValueError("three-digit set required")
        return self.digits[2]

    def __str__(self) -> str:
        return "{%s}" % ",".join(str(d) for d in self.digits)


def classify_level(p: int, digits: Iterable[int]) -> DigitSet:
    """Classify (p, D) into T1/T2/T3 or INVALID with the violated clauses.

    Classification is dispatched on cardinality: two digits are tested
    against the T3 template, three against T2, four or more against T1.
    A three-digit set with b/p exactly 2/3 is accepted as T2 with a
    "boundary-ratio" warning; b/p > 2/3 is a violation.
    """
    ds = tuple(sorted(set(int(d) for d in digits)))
    violations: list[str] = []
    warnings: list[str] = []
    if p < 2:
        violations.append("scale p must be at least 2")
    if not ds:
        violations.append("empty digit set")
        return DigitSet(ds, LevelClass.INVALID, (), tuple(violations))
    if ds[0] < 0:
        violations.append("digits must be nonnegative")
    if 0 not in ds:
        violations.append("digit set must contain 0")
    if len(ds) < 2:
        violations.append("at least two digits required")
    if violations:
        return DigitSet(ds, LevelClass.INVALID, (), tuple(violations))

    n = len(ds)
    if n == 2:
        d = ds[1]
        if not d < p:
            violations.append(f"two-digit set needs d < p (d={d}, p={p})")
        if (p // math.gcd(d, p)) % 2 != 0:
            violations.append(f"p/gcd(d,p) = {p // math.gcd(d, p)} must be even")
        cls = LevelClass.T3
    elif n == 3:
        a, b = ds[1], ds[2]
        if math.gcd(a, b) != 1:
            violations.append(f"gcd({a},{b}) must be 1")
        if {a % 3, b % 3} != {1, 2}:
            violations.append(f"{{a,b}} mod 3 = {{{a % 3},{b % 3}}}, need {{1,2}}")
        if p % 3 != 0:
            violations.append(f"3 must divide p (p={p})")
        ratio = Fraction(b, p)
        if ratio > Fraction(2, 3):
            violations.append(f"b/p = {ratio} exceeds 2/3")
        elif ratio == Fraction(2, 3):
            warnings.append("boundary-ratio")
        cls = LevelClass.T2
    elif ds == tuple(range(n)):
        if n <= 3:
            violations.append("consecutive digit sets need more than 3 digits")
        if p % n != 0:
            violations.append(f"N = {n} must divide p = {p}")
        if not p > n:
            violations.append(f"p = {p} must exceed N = {n}")
        cls = LevelClass.T1
    else:
        violations.append("digit set matches no admissible template")
        cls = LevelClass.INVALID

    if violations:
        cls = LevelClass.INVALID
    return DigitSet(ds, cls, tuple(warnings), tuple(violations))


def normalize_level(p: int, digits: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """Flip the sign of p and shift the digits so both are positive.

    Applies theta in {-1,1} to make p positive and gamma in {0, max|D|} to
    make every nonzero digit positive; |mask| is unchanged pointwise.
    """
    ds = sorted(set(int(d) for d in digits))
    if not ds:
        raise MoranStructureError("empty digit set")
    if p == 0:
        raise MoranStructureError("scale p must be nonzero")
    gamma = 0 if ds[0] >= 0 else max(abs(d) for d in ds)
    shifted = tuple(d + gamma for d in ds)
    if 0 not in shifted:
        raise MoranStructureError(
            f"digits {ds} do not normalize: shift by {gamma} loses 0"
        )
    return abs(p), shifted


@dataclass(frozen=True)
class Level:
    """One generator level (p, D)."""

    p: int
    digits: DigitSet

    @property
    def phi(self) -> int:
        return self.digits.N


@dataclass(frozen=True)
class MoranSystem:
    """Eventually periodic sequence of levels: finite preamble + repeated cycle.

    Levels are 1-indexed.  An empty cycle gives a finite system usable only
    at levels up to ``len(preamble)``.
    """

    preamble: tuple[Level, ...]
    cycle: tuple[Level, ...]

    def __post_init__(self):
        if not self.preamble and not self.cycle:
            raise MoranStructureError("system has no levels")
        for lvl in self.preamble + self.cycle:
            if lvl.p <= 1:
                raise MoranStructureError(f"scale p = {lvl.p} must exceed 1")

    # -- level access ------------------------------------------------------

    @property
    def finite_length(self) -> int | None:
        """Number of defined levels for a finite system, else None."""
        return len(self.preamble) if not self.cycle else None

    def level(self, n: int) -> Level:
        if n < 1:
            raise ValueError("levels are 1-indexed")
        npre = len(self.preamble)
        if n <= npre:
            return self.preamble[n - 1]
        if not self.cycle:
            raise LevelRangeError(
                f"level {n} requested from a finite system of {npre} levels"
            )
        return self.cycle[(n - npre - 1) % len(self.cycle)]

    def digit_set(self, n: int) -> DigitSet:
        return self.level(n).digits

    def phi(self, n: int) -> int:
        return self.level(n).phi

    @cached_property
    def _pre_P(self) -> tuple[int, ...]:
        out = [1]
        for lvl in self.preamble:
            out.append(out[-1] * lvl.p)
        return tuple(out)

    @cached_property
    def _cycle_P(self) -> tuple[int, ...]:
        out = [1]
        for lvl in self.cycle:
            out.append(out[-1] * lvl.p)
        return tuple(out)

    def P(self, n: int) -> int:
        """Product p_1 ... p_n (exact integer); P(0) = 1."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        npre = len(self.preamble)
        if n <= npre:
            return self._pre_P[n]
        if not self.cycle:
            raise LevelRangeError(
                f"level {n} requested from a finite system of {npre} levels"
            )
        k, r = divmod(n - npre, len(self.cycle))
        return self._pre_P[npre] * self._cycle_P[-1] ** k * self._cycle_P[r]

    def phi_product(self, n: int) -> int:
        """Product Phi(1) ... Phi(n) = number of atoms at level n."""
        out = 1
        for i in range(1, n + 1):
            out *= self.phi(i)
        return out

    # -- whole-system views -------------------------------------------------

    def distinct_levels(self) -> list[tuple[str, Level]]:
        """All structurally distinct levels, labeled by position."""
        out = [(f"preamble[{i + 1}]", lvl) for i, lvl in enumerate(self.preamble)]
        out += [(f"cycle[{i + 1}]", lvl) for i, lvl in enumerate(self.cycle)]
        return out

    def invalid_levels(self) -> list[tuple[str, Level]]:
        return [
            (where, lvl)
            for where, lvl in self.distinct_levels()
            if lvl.digits.cls is LevelClass.INVALID
        ]

    def is_admissible(self) -> bool:
        return not self.invalid_levels()

    @cached_property
    def max_digit_ratio(self) -> Fraction:
        """sup over levels of max(D_n)/p_n; finite for any periodic system."""
        return max(
            Fraction(lvl.digits.max_digit, lvl.p) for _, lvl in self.distinct_levels()
        )

    def tail_max_sum(self, n: int) -> Fraction:
        """Exact sum over i > n of max(D_i)/P_i (the support tail radius)."""

        def terms(lo: int, hi: int) -> Fraction:
            return sum((Fraction(self.digit_set(i).max_digit, self.P(i))
                        for i in range(lo, hi + 1)), Fraction(0))

        if not self.cycle:
            return terms(n + 1, len(self.preamble))
        # past the preamble the tail repeats one period, scaled by 1/C each time
        i0 = max(n, len(self.preamble))
        C = self._cycle_P[-1]
        period = terms(i0 + 1, i0 + len(self.cycle))
        return terms(n + 1, i0) + period * Fraction(C, C - 1)


def make_system(
    preamble: Sequence[tuple[int, Iterable[int]]] = (),
    cycle: Sequence[tuple[int, Iterable[int]]] = (),
) -> MoranSystem:
    """Build a system from raw (p, digits) pairs, normalizing and classifying."""

    def build(p_raw, digits):
        digits = tuple(digits)
        if not digits:
            raise MoranStructureError("empty digit set")
        if len(digits) != len(set(digits)):
            raise MoranStructureError(f"duplicate digits in {digits}")
        p, shifted = normalize_level(p_raw, digits)
        if p <= 1:
            raise MoranStructureError(f"scale p = {p_raw} must exceed 1 in modulus")
        return Level(p, classify_level(p, shifted))

    return MoranSystem(
        tuple(build(p, d) for p, d in preamble),
        tuple(build(p, d) for p, d in cycle),
    )


_TOKEN = re.compile(
    r"""(?P<header>preamble:|cycle:)
        |(?P<entry>\(\s*(?P<p>-?\d+)\s*,\s*\{(?P<digits>[^{}]*)\}\s*\))
        |(?P<junk>\S)""",
    re.VERBOSE,
)


def parse_system(text: str) -> MoranSystem:
    """Parse the plain-text system grammar.

    Grammar: an optional ``preamble:`` section followed by an optional
    ``cycle:`` section, each holding zero or more ``(p,{d0,d1,...})``
    entries.  ``#`` starts a comment; whitespace is ignored.
    """
    stripped = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    sections: dict[str, list[tuple[int, tuple[int, ...]]]] = {}
    current: str | None = None
    for m in _TOKEN.finditer(stripped):
        if m.group("header"):
            name = m.group("header")[:-1]
            if name in sections:
                raise MoranSyntaxError(f"duplicate section '{name}:'")
            if name == "preamble" and "cycle" in sections:
                raise MoranSyntaxError("'preamble:' must come before 'cycle:'")
            sections[name] = []
            current = name
        elif m.group("entry"):
            if current is None:
                raise MoranSyntaxError(
                    "entry before any 'preamble:' or 'cycle:' header"
                )
            raw = m.group("digits").strip()
            if not raw:
                raise MoranStructureError("empty digit set")
            try:
                digits = tuple(int(tok) for tok in raw.split(","))
            except ValueError as exc:
                raise MoranSyntaxError(f"bad digit list {{{raw}}}") from exc
            sections[current].append((int(m.group("p")), digits))
        else:
            raise MoranSyntaxError(f"unexpected text near {m.group('junk')!r}")
    return make_system(sections.get("preamble", ()), sections.get("cycle", ()))


# -- finite-level measures and Fourier data ---------------------------------


@dataclass(frozen=True)
class DiscreteMeasure:
    """Uniform measure on level-n atoms: sorted distinct integer numerators over P_n."""

    numerators: tuple[int, ...]
    denominator: int

    @property
    def atoms(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(k, self.denominator) for k in self.numerators)

    @property
    def weight(self) -> Fraction:
        return Fraction(1, len(self.numerators))

    def positions(self) -> np.ndarray:
        # int / int is correctly rounded, exactly as float(Fraction) is
        return np.array([k / self.denominator for k in self.numerators])


def minkowski_sum(factors: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Sorted distinct sums f_1 + ... + f_n, one f_i from each integer factor.

    A result shorter than the product of the factor sizes means a collision.
    """
    sums = [0]
    for factor in factors:
        sums = [s + f for s in sums for f in factor]
    return tuple(sorted(set(sums)))


def atoms(system: MoranSystem, n: int) -> DiscreteMeasure:
    """Atoms of the level-n truncation: all sums d_1/P_1 + ... + d_n/P_n.

    Each atom is the integer d_1 P_n/P_1 + ... + d_n P_n/P_n over P_n.
    Raises AtomCollisionError when two digit words collide; the level-n
    truncation then has fewer than Phi(1)...Phi(n) atoms and the system is
    ill-posed for spectrum building.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    Pn = system.P(n)
    nums = minkowski_sum(
        [d * (Pn // system.P(i)) for d in system.digit_set(i).digits]
        for i in range(1, n + 1)
    )
    if len(nums) != system.phi_product(n):
        raise AtomCollisionError(f"atom collision at level {n}")
    return DiscreteMeasure(nums, Pn)


def mask_eval(digits: DigitSet | Iterable[int], xi):
    """Mask polynomial (1/#D) sum_d exp(-2 pi i d xi).

    Accepts a scalar or an ndarray for xi and broadcasts; the value at 0 is
    always 1 and the modulus is bounded by 1.
    """
    ds = digits.digits if isinstance(digits, DigitSet) else tuple(digits)
    x = np.asarray(xi, dtype=np.float64)
    acc = np.zeros(x.shape, dtype=np.complex128)
    for d in ds:
        acc += np.exp((-2j * np.pi * d) * x)
    acc /= len(ds)
    return complex(acc) if x.ndim == 0 else acc


def _mask_product(system: MoranSystem, lo: int, hi: int, lam, xi):
    """Product of mask(D_i, (lam + xi)/P_i) over lo < i <= hi, and a scale S.

    Integer ``lam`` and float ``xi`` broadcast together; lam is reduced mod
    P_i exactly wherever P_i <= max|lam| (masks are 1-periodic).  Past level
    m the factors differ from 1 by at most expm1(4 pi c |lam + xi| / P_m) in
    all (see fourier_tail), so the product stops once that is below 2**-54
    and never divides by a P_i too large for a float.  The same bound holds
    with the float-sized S <= P_m for every omitted factor, past hi too.
    """
    system.P(hi)  # a level past a finite system's end is named as requested
    lam = np.asarray(lam)
    x = np.asarray(xi, dtype=np.float64)
    top = int(np.max(np.abs(lam), initial=0))
    # P_m > 2**57 pi c max(|lam|, |xi|) puts the bound below 2**-54 (nan: never)
    stop = math.ceil(2**57 * math.pi * system.max_digit_ratio) * max(
        float(np.max(np.abs(x), initial=0.0)), top)
    out = np.ones(np.broadcast_shapes(lam.shape, x.shape), dtype=np.complex128)
    m, Pm = lo, system.P(lo)
    while m < hi and not Pm > stop:
        m += 1
        Pm = system.P(m)
        red = (lam % Pm if Pm <= top else lam).astype(np.float64)
        out *= mask_eval(system.digit_set(m), red / Pm + x / Pm)
    return out, min(Pm, stop) or 1


def fourier_level(system: MoranSystem, n: int, xi):
    """Fourier transform of the level-n truncation via the mask product.

    Equals mask(D_1, xi/P_1) * ... * mask(D_n, xi/P_n); n = 0 returns 1.
    Accepts scalar or ndarray xi.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out, _ = _mask_product(system, 0, n, 0, xi)
    return complex(out) if out.ndim == 0 else out


def fourier_tail(
    system: MoranSystem, n: int, xi, depth: int
) -> tuple[complex, float]:
    """Truncated tail transform prod_{i=n+1}^{n+depth} mask(D_i, xi/P_i).

    Returns the partial product together with a rigorous bound B on the
    deviation of the omitted factor from 1: the true tail value t satisfies
    |t - v| <= |v| * B where v is the returned product.  The bound comes from
    |1 - mask(D, x)| <= 2 pi max(D) |x| and the at-least-geometric growth of
    P_i, giving sum_{i > n+depth} 2 pi max(D_i) |xi| / P_i
    <= 4 pi c |xi| / P_{n+depth} with c = sup max(D_i)/p_i; where the
    product stops early, its scale replaces P_{n+depth}.  An ndarray xi gives
    arrays of values and bounds, one per entry.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    x = np.asarray(xi, dtype=np.float64)
    val, scale = _mask_product(system, n, n + depth, 0, x)
    c = float(system.max_digit_ratio)
    # the omitted factor has modulus <= 1, so B = 2 = expm1(log 3) always holds
    bound = np.expm1(np.minimum(4.0 * math.pi * c * np.abs(x) / scale, math.log(3.0)))
    return (complex(val), float(bound)) if x.ndim == 0 else (val, bound)


# -- exact zero set ----------------------------------------------------------


@dataclass(frozen=True)
class ZeroWitness:
    """Level and class family certifying membership in the zero set."""

    level: int
    cls: LevelClass


def _in_zero_set(digits: DigitSet, num: int, den: int) -> bool:
    """Exact membership of num/den in the zero set of the mask of D.

    T3: (2Z+1)/(2d), T2: (3Z+{1,2})/3, T1: (Z \\ NZ)/N; that is, m num/den is
    an integer not divisible by k for (m, k) = (2d, 2), (3, 3) or (N, N).
    INVALID sets have no family.
    """
    if digits.cls is LevelClass.T3:
        m, k = 2 * digits.d, 2
    elif digits.cls is LevelClass.INVALID:
        return False
    else:
        m = k = digits.N
    q, r = divmod(m * num, den)
    return r == 0 and q % k != 0


def zero_set_contains(
    system: MoranSystem, xi, max_level: int | None = None
) -> ZeroWitness | None:
    """Exact membership of a rational xi in the zero set of the transform.

    The zero set is the union over levels of three families:
    T3 level i:  P_i (2Z+1) / (2 d_i),
    T2 level j:  P_j (3Z+{1,2}) / 3,
    T1 level m:  P_m (Z \\ N_m Z) / N_m.
    Returns a witness for the first matching level, or None.  Levels with an
    INVALID class contribute no family.  With ``max_level`` set, only levels
    up to it are searched (membership relative to the level-truncated
    measure); otherwise the scan stops once every remaining family's least
    positive element exceeds |xi|, which happens because P_i grows.
    """
    x = xi if isinstance(xi, (int, Fraction)) else Fraction(xi)
    num, den = x.numerator, x.denominator
    if num == 0:
        return None
    last = system.finite_length
    if max_level is not None:
        last = max_level if last is None else min(last, max_level)
    i = 1
    # Least positive family elements at levels >= i all exceed P_{i-1}/2,
    # so once that passes |xi| nothing further can match.
    while (last is None or i <= last) and system.P(i - 1) * den <= 2 * abs(num):
        ds = system.digit_set(i)
        if _in_zero_set(ds, num, den * system.P(i)):
            return ZeroWitness(i, ds.cls)
        i += 1
    return None
