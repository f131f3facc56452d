"""Quantitative spectrality certificates.

The infinite statement "the candidate set is a spectrum" reduces to a tail
bound: along a checkpoint subsequence n_k, the tail transform must stay
above a positive epsilon uniformly over shifted spectrum points.  This
module implements the ingredient bounds (per-class mask minorants, the
two-variable cosine product minimum, the decay weights h(k, n), the
universal tail product constant, the next-level factor bound) and chains
them into a finite-depth numeric certificate with an honest verdict: each
sampled tail value is judged with its truncation bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .core import (
    DigitSet,
    LevelClass,
    MoranStructureError,
    MoranSystem,
    fourier_tail,
)
from .spectrum import SigmaPrefix, level_factors, level_spectrum, q_sum_finite

#: Bounds below this are treated as numerically indistinguishable from zero.
BOUND_FLOOR = 1e-9


def h_bound(system: MoranSystem, k: int, n: int) -> Fraction:
    """Decay weight h(k, n) = prod_{i=k+1}^{n-1} 1/Phi(i) * (prod_{j<=k} 1/Phi(j) + 1).

    Controls the scaled frequency seen by level n after fixing a level-k
    spectrum point; empty products are 1.  Exact rational value.
    """
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    mid = Fraction(1)
    for i in range(k + 1, n):
        mid /= system.phi(i)
    head = Fraction(1)
    for j in range(1, k + 1):
        head /= system.phi(j)
    return mid * (head + 1)


def lambda_norm_check(
    system: MoranSystem, k: int, sigma: SigmaPrefix | None = None
) -> Fraction:
    """Exact max over level-k spectrum points of |lambda| / P_k.

    The factor decomposition makes the extremes additive, so no point
    enumeration is needed.  The value never exceeds 1 for admissible
    systems.
    """
    if k == 0:
        return Fraction(0)
    factors, _ = level_factors(system, k, sigma)
    hi = sum(max(f) for f in factors)
    lo = sum(min(f) for f in factors)
    return Fraction(max(hi, -lo), system.P(k))


def mask_lower_bound(digits: DigitSet, P: int, x: float) -> float:
    """Class-specific lower bound for |mask(D, x/P)|.

    T1: 1 - (N pi x / P)^2 / 6
    T3: 1 - (pi d x / P)^2 / 2
    T2: |cos(pi (a+b) x / P) + 2 cos(pi (a-b) x / P)| / 3

    Each minorizes the corresponding mask modulus for every real x (the T1
    and T3 bounds go negative once useless, the T2 bound is the modulus of
    the real part).
    """
    cls = digits.cls
    if cls is LevelClass.T1:
        return 1.0 - (digits.N * math.pi * x / P) ** 2 / 6.0
    if cls is LevelClass.T3:
        return 1.0 - 0.5 * (math.pi * digits.d * x / P) ** 2
    if cls is LevelClass.T2:
        a, b = digits.a, digits.b
        return (
            abs(
                math.cos(math.pi * (a + b) * x / P)
                + 2.0 * math.cos(math.pi * (a - b) * x / P)
            )
            / 3.0
        )
    raise ValueError(f"unknown class: {digits.violations}")


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


def tail_constant(system: MoranSystem, n_k: int) -> float:
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
    system: MoranSystem,
    n_k: int,
    sigma: SigmaPrefix | None = None,
    grid: int = 801,
) -> float:
    """Certified lower bound for the level-(n_k + 1) mask factor.

    Bounds |mask(D_{n_k+1}, (xi + lambda)/P_{n_k+1})| from below over
    |xi| < 1 and level-n_k spectrum points lambda.  The next level must have
    at least three digits:

    T1: the constant 1 - (3 pi / 4)**2 / 6.
    T2: sqrt(min over the reachable angle box of (1 + 8 f(w1, w2)) / 9),
        where w1, w2 are the two scaled digit angles; the box minimum is
        evaluated on a grid and lowered by a Lipschitz slack so the result
        is a true lower bound (clipped at 0).

    The angle box uses the uniform norm bound |lambda| <= P_{n_k}, which
    holds for every sign prefix and every checkpoint, so the bound carries
    to the whole periodic checkpoint subsequence.  At the boundary ratio
    b/p = 2/3 the box reaches a zero of 1 + 8f and the bound degenerates
    to 0.
    """
    nxt = system.level(n_k + 1)
    ds = nxt.digits
    if ds.cls is LevelClass.INVALID:
        raise MoranStructureError(
            f"level {n_k + 1} not admissible: {'; '.join(ds.violations)}"
        )
    if nxt.phi == 2:
        raise ValueError("subsequence must select levels followed by Phi >= 3")
    if ds.cls is LevelClass.T1:
        return 1.0 - (3.0 * math.pi / 4.0) ** 2 / 6.0

    # T2: reachable angles w = pi * digit * (xi + lambda) / P_{n_k+1}
    norm = lambda_norm_check(system, n_k, sigma)
    if norm > 1:
        raise MoranStructureError(
            f"spectrum norm {norm} exceeds 1 at level {n_k}"
        )
    u = 1.0 + 1.0 / system.P(n_k)
    w1 = math.pi * ds.a * u / nxt.p
    w2 = math.pi * ds.b * u / nxt.p
    om1 = np.linspace(-w1, w1, grid)
    om2 = np.linspace(-w2, w2, grid)
    g = (1.0 + 8.0 * f_eval(om1[:, None], om2[None, :])) / 9.0
    gmin = float(g.min())
    # 1 + 8f >= 0 everywhere; a grid value below that means a bug
    assert gmin >= -1e-12
    # each partial derivative of g is bounded by 8/9
    slack = (8.0 / 9.0) * (w1 + w2) / (grid - 1)
    return math.sqrt(max(gmin - slack, 0.0))


class Verdict(Enum):
    PASS = "PASS"
    CONDITIONS_FAILED = "CONDITIONS_FAILED"
    INCONCLUSIVE = "INCONCLUSIVE"


#: CLI exit codes per verdict.
EXIT_CODES = {Verdict.PASS: 0, Verdict.CONDITIONS_FAILED: 2, Verdict.INCONCLUSIVE: 3}


@dataclass(frozen=True)
class Certificate:
    """Outcome of the spectrality certification pipeline."""

    system_id: str
    sigma: tuple[int, ...]
    verdict: Verdict
    checkpoint: int | None  # the n_k used (infinite-branch case only)
    tail_bound: float | None  # epsilon: tail product beyond n_k + 1
    next_level_bound: float | None  # epsilon': level n_k + 1 factor
    diagnostics: str

    @property
    def product_bound(self) -> float | None:
        if self.tail_bound is None or self.next_level_bound is None:
            return None
        return self.tail_bound * self.next_level_bound

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]


def certify(
    system: MoranSystem,
    sigma: SigmaPrefix | None = None,
    levels_to_scan: int = 24,
    samples: int = 200,
    depth: int = 30,
    seed: int = 0,
    system_id: str = "system",
) -> Certificate:
    """Assemble a numeric spectrality certificate.

    Pipeline: (a) every level must classify as T1/T2/T3, else
    CONDITIONS_FAILED; (b) when the cycle contains a level with three or
    more digits, pick the smallest checkpoint n_k >= 7 whose chained bound
    tail_constant * epsilon_next_level clears the numeric floor, then
    confirm the truncated tail transform stays above that bound at
    ``samples`` random (xi, lambda) pairs, each judged with its truncation
    bound B as |v| (1 - B) against the bound; (c) when the cycle is pure
    two-digit, the tail conditions are exactly the per-level class
    conditions already verified, and the finite head is checked for
    completeness directly.  PASS is never returned on a bound below
    BOUND_FLOOR or on a failed confirmation.
    """
    sig = tuple(int(s) for s in sigma) if sigma is not None else ()
    diag = [f"seed={seed} samples={samples} depth={depth}"]

    bad = system.invalid_levels()
    if bad:
        for where, lvl in bad:
            diag.append(
                f"{where} (p={lvl.p}, D={lvl.digits}): "
                + "; ".join(lvl.digits.violations)
            )
        return Certificate(
            system_id, sig, Verdict.CONDITIONS_FAILED, None, None, None,
            "\n".join(diag),
        )
    for where, lvl in system.distinct_levels():
        for w in lvl.digits.warnings:
            diag.append(f"warning at {where} (p={lvl.p}, D={lvl.digits}): {w}")

    if not system.cycle:
        raise ValueError("certification needs an infinite system (nonempty cycle)")

    if any(lvl.phi >= 3 for lvl in system.cycle):
        outcome = _certify_infinite_branch(
            system, sig, levels_to_scan, samples, depth, seed, diag
        )
    else:
        outcome = _certify_two_digit_tail(system, sig, samples, seed, diag)
    return Certificate(system_id, sig, *outcome, "\n".join(diag))


def _certify_infinite_branch(system, sig, levels_to_scan, samples, depth, seed, diag):
    """(verdict, n_k, tail bound, next-level bound) of the sampled tail check."""
    candidates = [n_k for n_k in range(7, max(levels_to_scan, 8))
                  if system.phi(n_k + 1) >= 3]
    if not candidates:
        diag.append(f"no checkpoint with Phi(n_k+1) >= 3 in 7..{levels_to_scan - 1}")
        return Verdict.INCONCLUSIVE, None, None, None

    # Prefer the smallest viable checkpoint: the tail constant is anchored
    # there, and the spectrum sampled against stays small.
    best = None  # (product, n_k, eps_tail, eps_next)
    for n_k in candidates:
        eps_tail = tail_constant(system, n_k)
        eps_next = epsilon_next_level(system, n_k, sig)
        if best is None or eps_tail * eps_next > best[0]:
            best = (eps_tail * eps_next, n_k, eps_tail, eps_next)
        if eps_tail * eps_next >= BOUND_FLOOR:
            break
    product, n_k, eps_tail, eps_next = best
    diag.append(
        f"checkpoint n_k={n_k}: tail bound {eps_tail:.6g}, "
        f"next-level bound {eps_next:.6g}, product {product:.6g}"
    )
    if product < BOUND_FLOOR:
        diag.append("chained bound below the numeric floor; not certified")
        return Verdict.INCONCLUSIVE, n_k, eps_tail, eps_next

    rng = np.random.default_rng(seed)
    factors, _ = level_factors(system, n_k, sig)
    # drawn sample by sample, xi before lambda, so a seed keeps its pairs
    xs = np.array([rng.uniform(-1.0, 1.0)
                   + sum(f[rng.integers(len(f))] for f in factors)
                   for _ in range(samples)])
    val, err = fourier_tail(system, n_k, xs, depth)
    # the true tail t has |t| >= |val| (1 - err): that must clear the product
    lower = np.abs(val) * (1.0 - err)
    failures = int(np.count_nonzero(lower < product))
    diag.append(f"sampled tail minimum {np.min(lower, initial=math.inf):.6g} "
                f"vs bound {product:.6g}")
    if failures:
        diag.append(f"{failures} sampled pairs fell below the chained bound")
        return Verdict.INCONCLUSIVE, n_k, eps_tail, eps_next
    return Verdict.PASS, n_k, eps_tail, eps_next


def _certify_two_digit_tail(system, sig, samples, seed, diag):
    """(verdict, None, None, None) of the head completeness check."""
    head = max((i for i, lvl in enumerate(system.preamble, start=1) if lvl.phi >= 3),
               default=0)
    diag.append(
        f"pure two-digit tail beyond level {head}; "
        "per-level tail conditions hold by classification"
    )
    if head > 0:
        rng = np.random.default_rng(seed)
        pts = level_spectrum(system, head, sig)
        xs = rng.uniform(-5.0, 5.0, max(samples, 1))
        worst = np.max(np.abs(q_sum_finite(system, head, pts, xs) - 1.0))
        diag.append(f"head completeness |Q - 1| <= {worst:.3g} at level {head}")
        if worst > BOUND_FLOOR:
            return Verdict.INCONCLUSIVE, None, None, None
    return Verdict.PASS, None, None, None
