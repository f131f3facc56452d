"""Quantitative spectrality certificates.

The infinite statement "the candidate set is a spectrum" reduces to a tail
bound: along checkpoints n_k, |mu_{>n_k}(xi + lambda)| must stay above some
epsilon > 0 for |xi| < 1 and every level-n_k spectrum point lambda
(Strichartz's tail criterion).  ``certify`` proves it for a whole checkpoint
class n_k + j T at once, exactly and in integers: the tail transform is one
absolutely convergent product over the class's exact range, so it has a
positive minimum there iff no factor has a zero there, and ``zero_in_range``
walks the factors' zero families over that range.  The paper's ingredient
bounds (the cosine product minimum, the universal tail product constant,
the exact next-level factor bound) are kept as tested functions.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import islice

from .core import (Frozen, LevelClass, MoranStructureError, MoranSystem, fraction_text, np,
                   zero_in_range)
from .spectrum import SigmaPrefix, _head, check_orthogonal, level_spectrum

#: Rounding allowance subtracted from the angle-box minimum.
_ROUNDING_MARGIN = 1e-12


def lambda_norm_check(
    system: MoranSystem, k: int, sigma: SigmaPrefix | None = None
) -> Fraction:
    """Exact max over level-k spectrum points of |lambda| / P_k; at most 1 if admissible."""
    *_, (lo, hi, P) = _lambda_extremes(system, k, sigma)
    return Fraction(max(hi, -lo), P)


def _lambda_extremes(system: MoranSystem, n: int, sigma):
    """(min Lambda_m, max Lambda_m, P_m), m = 0, ..., n: sum_{j <= m} P_{j-1} min L_j
    and the like with max, over one running product; no factor F_j is formed."""
    lo = hi = 0
    yield lo, hi, 1
    for (_, prev, P), L in zip(system.walk(n), level_spectrum(system, n, sigma).unfolded()):
        lo, hi = lo + prev * min(L), hi + prev * max(L)
        yield lo, hi, P


def f_eval(x, y):
    """Cosine triple product cos(x) cos(y) cos(x - y); broadcasts over arrays."""
    out = np.cos(x) * np.cos(y) * np.cos(np.asarray(x) - np.asarray(y))
    return float(out) if np.ndim(out) == 0 else out


def f_min_points() -> tuple[float, tuple[tuple[float, float], ...]]:
    """Global minimum of the cosine triple product and its 8 minimizers.

    The minimum over the fundamental square (-pi, pi]^2 is -1/8, attained at
    the eight points with coordinates in {+-pi/3, +-2pi/3} listed below.
    """
    t = math.pi / 3
    pts = (
        (-2 * t, 2 * t),
        (-t, t),
        (t, -t),
        (2 * t, -2 * t),
        (2 * t, t),
        (t, 2 * t),
        (-2 * t, -t),
        (-t, -2 * t),
    )
    return -0.125, pts


def tail_constant(n_k: int) -> float:
    """Universal lower bound for the tail product beyond level n_k + 1.

    Evaluates prod_{i >= n_k+2} (1 - (43 pi / (96 * 2**(i-9)))**2 / 2) until
    the factors pass 1 - 1e-15.  The value depends only on n_k, lies in
    (0, 1), and requires n_k >= 7 (the factor at i = 9 is already positive
    only because the scaled frequency has decayed for seven levels).
    """
    if n_k < 7:
        raise ValueError("tail bound requires n_k >= 7")
    base = 0.5 * (43.0 * math.pi / 96.0) ** 2
    prod = 1.0
    i = n_k + 2
    while True:
        factor = 1.0 - base / 4.0 ** (i - 9)
        prod *= factor
        if factor > 1.0 - 1e-15:
            break
        i += 1
    return prod


def epsilon_next_level(
    system: MoranSystem, n_k: int, sigma: SigmaPrefix | None = None
) -> float:
    """Certified lower bound for the level-(n_k + 1) mask factor.

    Bounds |mask(D_{n_k+1}, (xi + lambda)/P_{n_k+1})| from below over
    |xi| < 1 and level-n_k spectrum points lambda.  The next level must have
    at least three digits:

    T1: the constant 1 - (3 pi / 4)**2 / 6.
    T2: sqrt(min of (1 + 8 f) / 9 over the reachable angle box), taken in
        closed form from the box corners and the critical points of f on
        its edges, less a 1e-12 rounding margin; exactly 0, decided in
        integers, when the box reaches a zero of 1 + 8f.

    The angle box uses the uniform norm bound |lambda| <= P_{n_k}, which
    holds for every sign prefix and every checkpoint, so the bound carries
    to the whole periodic checkpoint subsequence.  The T2 bound is 0 exactly
    when 3a (P + 1) >= p P, P = P_{n_k}; b/p = 2/3 alone does not make it 0.
    """
    nxt = system.level(n_k + 1)
    if nxt.cls is LevelClass.INVALID:
        raise MoranStructureError(
            f"level {n_k + 1} not admissible: {'; '.join(nxt.violations)}"
        )
    if nxt.phi == 2:
        raise ValueError("subsequence must select levels followed by Phi >= 3")
    if nxt.cls is LevelClass.T1:
        return 1.0 - (3.0 * math.pi / 4.0) ** 2 / 6.0

    # T2: reachable angles w = pi * digit * (xi + lambda) / P_{n_k+1}
    norm = lambda_norm_check(system, n_k, sigma)
    if norm > 1:
        raise MoranStructureError(
            f"spectrum norm {norm} exceeds 1 at level {n_k}"
        )
    P, p = system.P(n_k), nxt.p
    _, a, b = nxt.digits
    if 3 * a * (P + 1) >= p * P:  # w2 > w1 >= pi/3: (pi/3, -pi/3) is a zero
        return 0.0
    w1, w2 = (math.pi * (d * (P + 1) / (p * P)) for d in (a, b))
    # 1 + 8f has no zero here and its other critical values are 1 and 9, so
    # the minimum lies on the edge x = w1 or y = w2 (as f(x, y) = f(-x, -y)):
    # at a corner, or at t = w/2 + k pi/2 where f is critical along the edge.
    ks = 0.5 * math.pi * np.arange(-2, 3)
    x = np.concatenate((np.full(7, w1), np.clip(w2 / 2 + ks, -w1, w1)))
    y = np.concatenate(([w2, -w2], np.clip(w1 / 2 + ks, -w2, w2), np.full(5, w2)))
    gmin = (1.0 + 8.0 * f_eval(x, y).min()) / 9.0
    return math.sqrt(max(gmin - _ROUNDING_MARGIN, 0.0))


class Verdict(Enum):
    PASS = "PASS"
    CONDITIONS_FAILED = "CONDITIONS_FAILED"
    INCONCLUSIVE = "INCONCLUSIVE"


#: CLI exit codes per verdict.
EXIT_CODES = {Verdict.PASS: 0, Verdict.CONDITIONS_FAILED: 2, Verdict.INCONCLUSIVE: 3}


class Certificate(Frozen):
    """Outcome of the spectrality certification pipeline."""

    def __init__(self, verdict: Verdict, checkpoint: int | None, diagnostics: str):
        object.__setattr__(self, "verdict", verdict)
        # the class n_k proved (infinite-branch PASS only)
        object.__setattr__(self, "checkpoint", checkpoint)
        object.__setattr__(self, "diagnostics", diagnostics)

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]


def certify(system: MoranSystem, sigma: SigmaPrefix | None = None) -> Certificate:
    """Spectrality certificate; every level must be T1/T2/T3, else CONDITIONS_FAILED.

    With a cycle level of three or more digits, the checkpoint classes are
    tried in turn: PASS at the first whose exact range holds no zero of the
    tail transform.  A pure two-digit cycle meets the tail conditions by
    classification, and the head is decided complete by exact orthogonality.
    Otherwise INCONCLUSIVE.
    """
    sig = tuple(int(s) for s in sigma) if sigma is not None else ()
    if bad := system.invalid_levels():
        return Certificate(Verdict.CONDITIONS_FAILED, None, "\n".join(
            f"{where} (p={lvl.p}, D={lvl.digit_text}): " + "; ".join(lvl.violations)
            for where, lvl in bad))
    diag = [f"warning at {where} (p={lvl.p}, D={lvl.digit_text}): {w}"
            for where, lvl in system.distinct_levels() for w in lvl.warnings]
    if not system.cycle:
        raise ValueError("certification needs an infinite system (nonempty cycle)")
    if any(lvl.phi >= 3 for lvl in system.cycle):
        outcome = _certify_infinite_branch(system, sig, diag)
    else:
        outcome = _certify_two_digit_tail(system, sig, diag)
    return Certificate(*outcome, "\n".join(diag))


def _class_range(system: MoranSystem, n_k: int, sig) -> tuple[Fraction, Fraction]:
    """Exact hull of y = (xi + lambda)/P_n, |xi| < 1, lambda in Lambda_n, n = n_k + j T.

    The extremes e/P of lambda/P_n at n_k and n_k + T come from one running
    product over the companions (``_lambda_extremes``).  Past the preamble and
    the sign prefix a period maps each by a -> a/C + K, C = P_{n+T}/P_n, so
    they move monotonically from a_0 to K C/(C - 1) = (a_1 C - a_0)/(C - 1)
    = (e_1 - e_0)/(P_1 - P_0), and |xi|/P_n adds at most 1/P_{n_k}.
    """
    run = _lambda_extremes(system, n_k + len(system.cycle), sig)
    lo0, hi0, P0 = next(islice(run, n_k, None))
    *_, (lo1, hi1, P1) = run
    D = P1 - P0  # over the one denominator P0 D the ends compare as integers
    return (Fraction(min(lo0 * D, (lo1 - lo0) * P0) - D, P0 * D),
            Fraction(max(hi0 * D, (hi1 - hi0) * P0) + D, P0 * D))


def _certify_infinite_branch(system, sig, diag):
    """(verdict, n_k): the first class n_0, ..., n_0 + T - 1 whose range holds no tail zero.

    Every n = n_k + j T has the one tail g(y) = prod_{i >= 1} mask(D_{n_k+i}, y/Q_i),
    Q_i = p_{n_k+1} ... p_{n_k+i}, over the cycle rotated to level n_k + 1."""
    npre, T = len(system.preamble), len(system.cycle)
    for n_k in range(n0 := max(7, _head(system, sig)), n0 + T):
        lo, hi = _class_range(system, n_k, sig)
        r = (n_k - npre) % T  # tail.level(i) is system.level(n_k + i)
        zero = zero_in_range(MoranSystem((), system.cycle[r:] + system.cycle[:r]), lo, hi)
        where = (f"checkpoint class n_k={n_k} (+ j*{T}): "
                 f"y in [{fraction_text(lo)}, {fraction_text(hi)}]")
        if zero is None:
            diag.append(f"{where} holds no tail zero")
            return Verdict.PASS, n_k
        diag.append(f"{where}: tail zero y = {fraction_text(zero.zero)} at tail level {zero.level}")
    return Verdict.INCONCLUSIVE, None


def _certify_two_digit_tail(system, sig, diag):
    """(verdict, None) of the exact head completeness check."""
    head = max((i for i, lvl in enumerate(system.preamble, 1) if lvl.phi >= 3), default=0)
    # q orthogonal exponentials on a measure of at most q atoms are a basis
    report = check_orthogonal(system, level_spectrum(system, head, sig))
    diag.append(f"pure two-digit tail beyond level {head}; "
                "per-level tail conditions hold by classification")
    diag.append(f"level-{head} head spectrum: {report.point_count} exponentials, "
                f"{len(report.failures)} of {report.pairs_checked} pairs not orthogonal")
    return Verdict.PASS if report.passed else Verdict.INCONCLUSIVE, None
