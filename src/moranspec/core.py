"""Moran systems on the real line.

A system is an eventually periodic sequence of levels (p_n, D_n) with integer
scale p_n > 1 and a finite digit set D_n of nonnegative integers containing 0.
It generates the infinite convolution

    mu = delta(D_1 / P_1) * delta(D_2 / P_2) * ...,   P_n = p_1 p_2 ... p_n,

where delta(E) puts equal mass on the points of E.  This module holds the
system representation, the admissible digit-set classes, the level factors
whose integer Minkowski sum is the finite-level atoms (integer numerators
over P_n), mask polynomials, truncated Fourier transforms, and the exact
zero set of the full transform, decided in integer arithmetic.

numpy loads at its first use, so validation, orthogonality and the exact
certificate branches never pay its import.  ``np`` here is numpy itself if it
is already imported, else a lazy module registered in ``sys.modules``, where
numpy's relative imports need it; its first attribute access runs numpy's
``__init__``, after which LazyLoader resets its class to ``ModuleType``.
Every module of this package takes ``np`` from here: ``import numpy`` reads
``__spec__`` of the module in ``sys.modules``, which would load it.
"""

from __future__ import annotations

import decimal
import importlib.util
import math
import operator
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import count

if (np := sys.modules.get("numpy")) is None:
    if (_spec := importlib.util.find_spec("numpy")) is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)


class MoranError(Exception):
    """Base class for errors raised by this package."""


class MoranSyntaxError(MoranError):
    """Malformed system description text."""


class MoranStructureError(MoranError):
    """Structurally ill-posed system (bad scale, digits, or collisions)."""


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


def float_text(x: Fraction) -> str:
    """%.6g of x's float, or of x to 6 digits where the float overflows or rounds x to 0."""
    try:
        if (f := float(x)) or not x:
            return f"{f:.6g}"
    except OverflowError:
        pass
    return f"{decimal.Context(prec=6).divide(x.numerator, x.denominator).normalize():.6g}"


def fraction_text(x: Fraction) -> str:
    """x exactly, or ~ its ``float_text`` where CPython's int-to-str digit limit refuses it."""
    try:
        return str(x)
    except ValueError:
        return f"~{float_text(x)}"


class Frozen:
    """Base of the package's immutable records.

    A record's fields, ``_fields``, are the parameters of its ``__init__``,
    which sets each once through ``object.__setattr__``; assigning or deleting
    one later raises AttributeError.  Equality (same class only), hash and
    repr ``Name(field=value, ...)`` follow the tuple of the fields.  A record
    keeps a ``__dict__``, which ``cached_property`` fills.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        cls._values = operator.attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Level(Frozen):
    """One classified generator level (p, D).

    ``digits`` is sorted and duplicate-free.  ``cls`` records the class the
    pair (p, D) falls into; when it is INVALID, ``violations`` lists the
    failed clauses.  ``warnings`` carries non-fatal notes (currently only the
    boundary ratio b/p == 2/3 for three-digit sets).
    """

    def __init__(self, p: int, digits: tuple[int, ...], cls: LevelClass,
                 warnings: tuple[str, ...] = (), violations: tuple[str, ...] = ()):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "warnings", warnings)
        object.__setattr__(self, "violations", violations)

    def __hash__(self):  # (p, D) alone: equal levels share it, and no Enum.__hash__ runs
        return hash((self.p, self.digits))

    @property
    def phi(self) -> int:
        return len(self.digits)

    @property
    def digit_text(self) -> str:
        """D as the reports print it, e.g. {0,1}."""
        return "{%s}" % ",".join(map(str, self.digits))

    @property
    def zero_family(self) -> tuple[int, int] | None:
        """(s, k): mask(D, y) = 0 iff s y is an integer that k does not divide, with (2d, 2)
        for T3 (D = {0,d}), (3, 3) for T2 and (N, N) for T1.  None for an INVALID level,
        which contributes no zero-set family, whatever its mask does."""
        if self.cls is LevelClass.INVALID:
            return None
        return (2 * self.digits[1], 2) if self.cls is LevelClass.T3 else (self.phi, self.phi)

    def mask_zero(self, u: int, v: int) -> bool:
        """Whether mask(D, u/v) = 0, decided in integers (v nonzero) by ``zero_family``."""
        if (family := self.zero_family) is None:
            return False
        s, k = family
        q, r = divmod(s * u, v)
        return r == 0 and q % k != 0


def classify_level(p: int, digits: Iterable[int]) -> Level:
    """Classify (p, D) into T1/T2/T3 or INVALID with the violated clauses.

    Classification is dispatched on cardinality: two digits are tested
    against the T3 template, three against T2, four or more against T1.
    A three-digit set with b/p exactly 2/3 is accepted as T2 with a
    "boundary-ratio" warning; b/p > 2/3 is a violation.
    """
    return _classify(p, tuple(sorted(set(map(int, digits)))))


def _classify(p: int, ds: tuple[int, ...]) -> Level:
    """classify_level of digits ds that are already sorted, distinct ints."""
    violations: list[str] = []
    warnings: list[str] = []
    if p < 2:
        violations.append("scale p must be at least 2")
    if not ds:
        violations.append("empty digit set")
        return Level(p, ds, LevelClass.INVALID, (), tuple(violations))
    if ds[0] < 0:
        violations.append("digits must be nonnegative")
    if 0 not in ds:
        violations.append("digit set must contain 0")
    if len(ds) < 2:
        violations.append("at least two digits required")
    if violations:
        return Level(p, ds, LevelClass.INVALID, (), tuple(violations))

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
        if 3 * b > 2 * p:  # b/p > 2/3
            violations.append(f"b/p = {Fraction(b, p)} exceeds 2/3")
        elif 3 * b == 2 * p:
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
    return Level(p, ds, cls, tuple(warnings), tuple(violations))


def normalize_level(p: int, digits: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """Flip the sign of p and shift the digits so both are positive.

    Applies theta in {-1,1} to make p positive and gamma in {0, max|D|} to
    make every nonzero digit positive; |mask| is unchanged pointwise.
    The shifted digits come back sorted and distinct.
    """
    ds = sorted(set(map(int, digits)))
    if not ds:
        raise MoranStructureError("empty digit set")
    if p == 0:
        raise MoranStructureError("scale p must be nonzero")
    gamma = 0 if ds[0] >= 0 else max(-ds[0], ds[-1])  # max |d|
    shifted = tuple(d + gamma for d in ds) if gamma else tuple(ds)
    if shifted[0]:  # the least shifted digit is not 0
        raise MoranStructureError(f"digits {ds} do not normalize: shift by {gamma} loses 0")
    return abs(p), shifted


class MoranSystem(Frozen):
    """Eventually periodic sequence of levels: finite preamble + repeated cycle.

    Levels are 1-indexed.  An empty cycle gives a finite system usable only
    at levels up to ``len(preamble)``.
    """

    def __init__(self, preamble: tuple[Level, ...], cycle: tuple[Level, ...]):
        if not preamble and not cycle:
            raise MoranStructureError("system has no levels")
        for lvl in preamble + cycle:
            if lvl.p <= 1:
                raise MoranStructureError(f"scale p = {lvl.p} must exceed 1")
        object.__setattr__(self, "preamble", preamble)
        object.__setattr__(self, "cycle", cycle)

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

    def _product(self, n: int, term) -> int:
        """term(level 1) ... term(level n): past the preamble pre x cycle**k x partial, one pow."""
        if n <= len(self.preamble):
            return math.prod(map(term, self.preamble[:n]))
        self.level(n)  # a level past a finite system's end is named as requested
        k, r = divmod(n - len(self.preamble), len(self.cycle))
        return (math.prod(map(term, self.preamble + self.cycle[:r]))
                * math.prod(map(term, self.cycle)) ** k)

    def P(self, n: int) -> int:
        """Product p_1 ... p_n (exact integer); P(0) = 1."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        return self._product(n, operator.attrgetter("p"))

    def walk(self, n: int | None = None) -> Iterator[tuple[Level, int, int]]:
        """(level i, P_{i-1}, P_i) for i = 1, ..., n, P_i as a running product.

        n = None walks a finite system to its end and a cycle without end; a
        level past a finite end raises LevelRangeError once it is reached.
        """
        n = self.finite_length if n is None else n
        P = 1
        for i in count(1) if n is None else range(1, n + 1):
            lvl = self.level(i)
            prev, P = P, P * lvl.p
            yield lvl, prev, P

    def phi_product(self, n: int) -> int:
        """Product Phi(1) ... Phi(n) = number of atoms at level n; 1 for n <= 0."""
        return self._product(max(n, 0), operator.attrgetter("phi"))

    def check_admissible(self, n: int) -> None:
        """Raise unless levels 1..n exist and are all admissible.

        ValueError for n < 0, LevelRangeError past a finite system's end, and
        MoranStructureError naming the first inadmissible level, which is
        found among the distinct levels, whatever n is.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n:
            self.level(n)  # a level past a finite system's end is named as requested
        # level i <= len(preamble) + len(cycle) is entry i of preamble + cycle
        for i, lvl in enumerate((self.preamble + self.cycle)[:n], start=1):
            if lvl.cls is LevelClass.INVALID:
                raise MoranStructureError(
                    f"level {i} not admissible: {'; '.join(lvl.violations)}")

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
            if lvl.cls is LevelClass.INVALID
        ]

    def is_admissible(self) -> bool:
        return not self.invalid_levels()

    @cached_property
    def max_digit_ratio(self) -> Fraction:
        """sup over levels of max(D_n)/p_n; finite for any periodic system."""
        return max(
            Fraction(lvl.digits[-1], lvl.p) for _, lvl in self.distinct_levels()
        )

    def tail_max_sum(self, n: int) -> Fraction:
        """Exact sum over i > n of max(D_i)/P_i (the support tail radius)."""
        return self._tail_sum(n, lambda lvl: lvl.digits[-1])

    def _tail_sum(self, n: int, term) -> Fraction:
        """Exact sum over i > n of term(level i)/P_i, term an int or a Fraction.

        One Horner pass in integers gives A_i = B P_i S_i, S_i the sum to i, B
        the terms' common denominator.  Past i0 = max(n, preamble) a period
        scales by 1/C, C = P_i1/P_i0, i1 = i0 + T, so the tail is
        (C S_i1 - S_i0)/(C - 1) = (A_i1 - A_i0)/(B (P_i1 - P_i0)).
        """
        i0 = max(n, len(self.preamble))
        ts = [(lvl.p, term(lvl))
              for lvl in map(self.level, range(n + 1, i0 + len(self.cycle) + 1))]
        B = math.lcm(*(t.denominator for _, t in ts))
        A = A0 = 0
        P = P0 = self.P(n) if ts else 1  # none: a finite system at or past its end
        for i, (p, t) in enumerate(ts, n + 1):
            A, P = A * p + t.numerator * (B // t.denominator), P * p
            if i == i0:
                A0, P0 = A, P
        return Fraction(A - A0, B * (P - P0)) if self.cycle else Fraction(A, B * P)


def make_system(
    preamble: Sequence[tuple[int, Iterable[int]]] = (),
    cycle: Sequence[tuple[int, Iterable[int]]] = (),
) -> MoranSystem:
    """Build a system from raw (p, digits) pairs, normalizing and classifying."""

    def build(p_raw, digits):
        digits = tuple(digits)
        if len(digits) != len(set(digits)):
            raise MoranStructureError(f"duplicate digits in {digits}")
        p, shifted = normalize_level(p_raw, digits)
        if p <= 1:
            raise MoranStructureError(f"scale p = {p_raw} must exceed 1 in modulus")
        return _classify(p, shifted)

    return MoranSystem(
        tuple(build(p, d) for p, d in preamble),
        tuple(build(p, d) for p, d in cycle),
    )


_TOKEN = re.compile(
    r"""(?P<header>preamble:|cycle:)
        |(?P<entry>\(\s*(?P<p>-?[0-9]+)\s*,\s*\{(?P<digits>[^{}]*)\}\s*\))
        |(?P<junk>\S)""",
    re.VERBOSE,
)
_DIGIT_LIST = re.compile(r"\s*[+-]?[0-9]+\s*(?:,\s*[+-]?[0-9]+\s*)*")  # ASCII decimals only


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
        if (kind := m.lastgroup) == "header":
            name = m.group("header")[:-1]
            if name in sections:
                raise MoranSyntaxError(f"duplicate section '{name}:'")
            if name == "preamble" and "cycle" in sections:
                raise MoranSyntaxError("'preamble:' must come before 'cycle:'")
            sections[name] = []
            current = name
        elif kind == "entry":
            if current is None:
                raise MoranSyntaxError(
                    "entry before any 'preamble:' or 'cycle:' header"
                )
            raw = m.group("digits").strip()
            if not raw:
                raise MoranStructureError("empty digit set")
            if not _DIGIT_LIST.fullmatch(raw):
                raise MoranSyntaxError(f"bad digit list {{{raw}}}")
            try:
                sections[current].append((int(m.group("p")), tuple(map(int, raw.split(",")))))
            except ValueError:  # the grammar leaves only CPython's digit limit on int(str)
                raise MoranSyntaxError(
                    f"entry {len(sections[current]) + 1} of '{current}:' has an integer past "
                    f"Python's int(str) limit of {sys.get_int_max_str_digits()} digits") from None
        elif m.group("junk") == "(":  # an entry the grammar rejects
            entry = "".join(stripped[m.start():].partition(")")[:2])
            where = (f"entry {len(sections[current]) + 1} of '{current}:'" if current
                     else "entry before any 'preamble:' or 'cycle:' header")
            raise MoranSyntaxError(f"{where} is not (p,{{d,...}}) in ASCII decimal integers: "
                                   f"{entry[:40]!r}")
        else:
            raise MoranSyntaxError(f"unexpected text near {m.group('junk')!r}")
    return make_system(sections.get("preamble", ()), sections.get("cycle", ()))


# -- finite-level atoms and Fourier data ------------------------------------


def _partial_sum_dtype(factors: Iterable[Sequence[int]]):
    """np.int64 when sum max|f_i| < 2**63 proves every partial sum
    f_1 + ... + f_k fits, else object (exact Python ints)."""
    big = sum(max(map(abs, factor), default=0) for factor in factors) >= 2**63
    return object if big else np.int64


def _factor_extremes(factors: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(sum min F, sum max F): the extremes of the factors' Minkowski sum."""
    return sum(min(F, default=0) for F in factors), sum(max(F, default=0) for F in factors)


def _outer_sums(factors: Iterable[Sequence[int]], dtype) -> list[np.ndarray]:
    """Unsorted partial sums F_1 + ... + F_m, m = 0, 1, ..., in a ``dtype`` that holds them.

    Child-major: F_m[k] plus entry i of the q level-(m-1) sums sits at k q + i.
    """
    sums = [np.zeros(1, dtype=dtype)]
    for F in factors:
        sums.append(np.add.outer(np.array(F, dtype=dtype), sums[-1]).ravel())
    return sums


def _atom_factors(system: MoranSystem, n: int) -> list[list[int]]:
    """Level factors {d P_n/P_i : d in D_i}, i = 1..n: their sums over P_n are the level-n
    atoms d_1/P_1 + ... + d_n/P_n, one per digit word, so colliding words repeat theirs."""
    if n < 1:
        raise ValueError("level must be at least 1")
    Pn = system.P(n)
    return [[d * (Pn // P) for d in lvl.digits] for lvl, _, P in system.walk(n)]


def mask_eval(digits: Iterable[int], xi):
    """Mask polynomial (1/#D) sum_d exp(-2 pi i d xi).

    Accepts a scalar or an ndarray for xi and broadcasts; the value at 0 is
    always 1 and the modulus is bounded by 1.
    """
    ds = tuple(digits)
    x = np.asarray(xi, dtype=np.float64)
    acc = np.full(x.shape, ds.count(0), dtype=np.complex128)  # exp(0) = 1, taken as is
    for d in filter(None, ds):
        acc += np.exp((-2j * np.pi * d) * x)
    acc /= len(ds)
    return complex(acc) if x.ndim == 0 else acc


def _walk_to_stop(system: MoranSystem, lo: int, hi: int, scale):
    """(stop, P_m, [(level i, P_i), lo < i <= m]) over one running product: a mask product
    from lo at |lam + xi| <= scale takes levels up to m <= hi, the first with P_m > stop =
    2**57 pi c scale.  Past it the factors differ from 1 by at most expm1(4 pi c scale / P_m)
    < 2**-54 in all (see fourier_tail), and no P_i too large for a float is divided by (nan:
    never stops).  Raises ValueError where 2**57 pi c is not a positive float (c nonzero)."""
    try:
        bound = 2**57 * math.pi * float(c := system.max_digit_ratio)
    except OverflowError:
        bound = math.inf
    if c and not 0 < bound < math.inf:
        raise ValueError(f"the max digit ratio {float_text(c)} is out of the float range of "
                         "the mask product's stop")
    stop = math.ceil(bound) * scale
    P, levels = system.P(lo), []
    while lo + len(levels) < hi and not P > stop:
        lvl = system.level(lo + len(levels) + 1)
        levels.append((lvl, P := P * lvl.p))
    return stop, P, levels


def _mask_product(system: MoranSystem, lo: int, hi: int, xi):
    """Product of mask(D_i, xi/P_i) over lo < i <= hi, and a scale S.

    The product stops where ``_walk_to_stop`` says for max|xi|, over one
    running product from P_lo; the float-sized S <= P_m bounds every omitted
    factor as P_m does, past hi too.  The factors are multiplied in level order.
    """
    system.level(hi)  # a level past a finite system's end is named as requested
    x = np.asarray(xi, dtype=np.float64)
    stop, last, levels = _walk_to_stop(system, lo, hi, float(np.max(np.abs(x), initial=0.0)))
    val = np.ones(x.shape, dtype=np.complex128)
    for lvl, Pm in levels:
        Pm = float(Pm)
        val *= mask_eval(lvl.digits, np.fmod(x, Pm) / Pm)  # fmod is exact, and keeps |xi| < P_m
    return val, min(last, stop) or 1


def fourier_tail(system: MoranSystem, n: int, xi, depth: int) -> tuple[complex, float]:
    """Truncated tail transform prod_{i=n+1}^{n+depth} mask(D_i, xi/P_i).

    Returns the partial product together with a rigorous bound B on the
    deviation of the omitted factor from 1: the true tail value t satisfies
    |t - v| <= |v| * B where v is the returned product.  The bound comes from
    |1 - mask(D, x)| <= 2 pi max(D) |x| and the at-least-geometric growth of
    P_i, giving sum_{i > n+depth} 2 pi max(D_i) |xi| / P_i
    <= 4 pi c |xi| / P_{n+depth} with c = sup max(D_i)/p_i; where the
    product stops early, its scale replaces P_{n+depth}.  An ndarray xi gives
    arrays of values and bounds, one per entry.  At n = 0, v is the transform
    of the level-depth truncation.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    x = np.asarray(xi, dtype=np.float64)
    val, scale = _mask_product(system, n, n + depth, x)
    c = float(system.max_digit_ratio)
    # the omitted factor has modulus <= 1, so B = 2 = expm1(log 3) always holds
    bound = np.expm1(np.minimum(4.0 * math.pi * c * np.abs(x) / scale, math.log(3.0)))
    return (complex(val), float(bound)) if x.ndim == 0 else (val, bound)


# -- exact zero set ----------------------------------------------------------


class ZeroWitness(Frozen):
    """A zero of the transform: its level, that level's class family and the zero."""

    def __init__(self, level: int, cls: LevelClass, zero: Fraction):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "zero", zero)


def zero_in_range(system: MoranSystem, lo, hi, max_level: int | None = None) -> ZeroWitness | None:
    """The first level with a zero y in [lo, hi] (int or Fraction ends), and its least one there.

    Level i's zeros are y = P_i m/s with k not dividing m, (s, k) its
    ``Level.zero_family``.  The candidates m are the integers of
    [lo s/P_i, hi s/P_i]; the range holds a zero iff there are two or more
    (k >= 2 divides no two neighbours) or one that k does not divide.  Levels
    with an INVALID class contribute no family.  With ``max_level`` set, only
    levels up to it are searched; otherwise the scan stops once every
    remaining family's least positive element exceeds max(|lo|, |hi|), which
    happens because P_i grows.
    """
    den = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    limit = 2 * max(-a, b)  # 2 max(|lo|, |hi|) over den, as lo <= hi
    last = system.finite_length
    if max_level is not None:
        last = max_level if last is None else min(last, max_level)
    for i, (lvl, prev, P) in enumerate(system.walk(last), start=1):
        # s = 2d < 2p, 3 <= p or N < p: zeros at levels >= i exceed P_{i-1}/2 in
        # modulus, so once that passes max(|lo|, |hi|) nothing further can match
        if prev * den > limit:
            break
        if (family := lvl.zero_family) is None:
            continue
        s, k = family
        m, top = -(-a * s // (den * P)), b * s // (den * P)  # ceil(lo s/P_i), floor(hi s/P_i)
        if m < top or (m == top and m % k):
            m += m % k == 0
            return ZeroWitness(i, lvl.cls, Fraction(m * P, s))
    return None


def zero_set_contains(system: MoranSystem, xi, max_level: int | None = None) -> ZeroWitness | None:
    """Exact membership of a rational xi in the zero set of the transform.

    The zero set is the union over levels of three families:
    T3 level i:  P_i (2Z+1) / (2 d_i),
    T2 level j:  P_j (3Z+{1,2}) / 3,
    T1 level m:  P_m (Z \\ N_m Z) / N_m;
    level i's family is the zeros of mask(D_i, xi/P_i).  This is
    ``zero_in_range`` over [xi, xi]: a witness for the first matching level,
    or None.  The set is symmetric: xi and -xi get the same answer.  With
    ``max_level`` set, only levels up to it are searched (membership
    relative to the level-truncated measure).
    """
    x = xi if isinstance(xi, (int, Fraction)) else Fraction(xi)
    return zero_in_range(system, x, x, max_level)
