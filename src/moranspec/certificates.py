"""Quantitative spectrality certificates.

The infinite statement "the candidate set is a spectrum" reduces to a tail
bound: along a checkpoint subsequence n_k, the tail transform must stay
above a positive epsilon uniformly over shifted spectrum points.  This
module implements the ingredient bounds (the two-variable cosine product
minimum, the universal tail product constant, the exact next-level factor
bound) and chains them into a finite-depth numeric certificate with an
honest verdict: each sampled tail value is judged with its truncation bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .core import (
    LevelClass,
    MoranStructureError,
    MoranSystem,
    fourier_tail,
)
from .spectrum import SigmaPrefix, level_factors, level_spectrum, q_sum_finite

#: Bounds below this are treated as numerically indistinguishable from zero.
BOUND_FLOOR = 1e-9
#: Rounding allowance subtracted from the closed-form angle-box minimum.
_ROUNDING_MARGIN = 1e-12


def lambda_norm_check(
    system: MoranSystem, k: int, sigma: SigmaPrefix | None = None
) -> Fraction:
    """Exact max over level-k spectrum points of |lambda| / P_k.

    The factor decomposition makes the extremes additive, so no point
    enumeration is needed.  The value never exceeds 1 for admissible
    systems.
    """
    factors, _ = level_factors(system, k, sigma)
    hi = sum(max(f) for f in factors)
    lo = sum(min(f) for f in factors)
    return Fraction(max(hi, -lo), system.P(k))


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
    P, p = system.P(n_k), nxt.p
    if 3 * ds.a * (P + 1) >= p * P:  # w2 > w1 >= pi/3: (pi/3, -pi/3) is a zero
        return 0.0
    w1, w2 = (math.pi * (d * (P + 1) / (p * P)) for d in (ds.a, ds.b))
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


@dataclass(frozen=True)
class Certificate:
    """Outcome of the spectrality certification pipeline."""

    verdict: Verdict
    checkpoint: int | None  # the n_k used (infinite-branch case only)
    tail_bound: float | None  # epsilon: tail product beyond n_k + 1
    next_level_bound: float | None  # epsilon': level n_k + 1 factor
    diagnostics: str

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
    BOUND_FLOOR or on a failed confirmation.  ``samples`` and ``depth``
    must be at least 1, ``levels_to_scan`` (checkpoints 7, 8, ...) at least 8.
    """
    for name, value, least in (("samples", samples, 1), ("depth", depth, 1),
                               ("scan levels", levels_to_scan, 8)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}")
    sig = tuple(int(s) for s in sigma) if sigma is not None else ()
    diag = [f"seed={seed} samples={samples} depth={depth}"]

    bad = system.invalid_levels()
    if bad:
        for where, lvl in bad:
            diag.append(
                f"{where} (p={lvl.p}, D={lvl.digits}): "
                + "; ".join(lvl.digits.violations)
            )
        return Certificate(Verdict.CONDITIONS_FAILED, None, None, None, "\n".join(diag))
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
    return Certificate(*outcome, "\n".join(diag))


def _certify_infinite_branch(system, sig, levels_to_scan, samples, depth, seed, diag):
    """(verdict, n_k, tail bound, next-level bound) of the sampled tail check."""
    # Prefer the smallest viable checkpoint: the tail constant is anchored
    # there, and the spectrum sampled against stays small.
    best = None  # (product, n_k, eps_tail, eps_next)
    for n_k in range(7, levels_to_scan):
        if system.phi(n_k + 1) < 3:
            continue
        eps_tail = tail_constant(n_k)
        eps_next = epsilon_next_level(system, n_k, sig)
        if best is None or eps_tail * eps_next > best[0]:
            best = (eps_tail * eps_next, n_k, eps_tail, eps_next)
        if eps_tail * eps_next >= BOUND_FLOOR:
            break
    if best is None:
        diag.append(f"no checkpoint with Phi(n_k+1) >= 3 in 7..{levels_to_scan - 1}")
        return Verdict.INCONCLUSIVE, None, None, None
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
    xi = rng.uniform(-1.0, 1.0, samples)
    lam = sum(np.array(f, dtype=object)[rng.integers(len(f), size=samples)]
              for f in factors)
    xs = (xi + lam).astype(float)
    val, err = fourier_tail(system, n_k, xs, depth)
    # the true tail t has |t| >= |val| (1 - err): that must clear the product
    lower = np.abs(val) * (1.0 - err)
    failures = int(np.count_nonzero(lower < product))
    diag.append(f"sampled tail minimum {lower.min():.6g} "
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
        xs = rng.uniform(-5.0, 5.0, samples)
        worst = np.max(np.abs(q_sum_finite(system, head, pts, xs) - 1.0))
        diag.append(f"head completeness |Q - 1| <= {worst:.3g} at level {head}")
        if worst > BOUND_FLOOR:
            return Verdict.INCONCLUSIVE, None, None, None
    return Verdict.PASS, None, None, None
