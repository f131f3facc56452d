"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from moranspec import (
    IntervalUnion,
    certify,
    classify_level,
    construct_L,
    density_histogram,
    density_verdict,
    f_min_points,
    fourier_tail,
    is_hadamard,
    level_spectrum,
    mask_eval,
    normalize_level,
    q_sum_finite,
    support_cover,
    tail_constant,
    tiling_defects,
    uniformity_check,
    zero_set_contains,
)
from moranspec.density import VERDICT_NOT_SPECTRAL
from conftest import (exp_matrix_residual, level_atoms, random_t1_level, random_t2_level,
                      random_t3_level, unitarity_residual)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d} [{'pass' if ok else 'FAIL'}]: {detail}")
    assert ok, detail


def test_criterion_01_finite_level_exactness(final_system):
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_q = 0.0
    worst_res = 0.0
    prefixes = [(), (-1,), (1, -1), (-1, -1, -1)]
    for sigma in prefixes:
        for n in range(1, 7):
            pts = level_spectrum(final_system, n, sigma)
            for xi in rng.uniform(-5, 5, 100):
                worst_q = max(worst_q, abs(
                    q_sum_finite(final_system, n, pts, xi) - 1.0))
            worst_res = max(worst_res, exp_matrix_residual(
                level_atoms(final_system, n), pts.points))
    elapsed = time.perf_counter() - start
    ok = worst_q < 1e-9 and worst_res < 1e-10 and elapsed < 10
    report(1, ok, f"levels 1..6, {len(prefixes)} sign prefixes: "
                  f"max|Q-1| = {worst_q:.2e}, unitarity residual = "
                  f"{worst_res:.2e}, {elapsed:.2f} s")


def test_criterion_02_exact_orthogonality(final_system):
    start = time.perf_counter()
    pts = level_spectrum(final_system, 6).points
    assert len(pts) == 216
    misses = 0
    pairs = 0
    for a, b in itertools.combinations(pts, 2):
        pairs += 1
        if zero_set_contains(final_system, a - b) is None:
            misses += 1
    elapsed = time.perf_counter() - start
    ok = misses == 0 and elapsed < 5
    report(2, ok, f"{pairs} pairwise differences checked exactly, "
                  f"{misses} misses, {elapsed:.2f} s")


def test_criterion_03_hadamard_construction(rng):
    worst = 0.0
    count = 0
    agree = True
    for gen in (random_t1_level, random_t2_level, random_t3_level):
        for _ in range(50):
            p, digits = gen(rng)
            lvl = classify_level(p, digits)
            L = construct_L(lvl)
            res = unitarity_residual(p, digits, L)
            worst = max(worst, res)
            exact = is_hadamard(lvl, L)
            agree &= exact and (res < 1e-9)
            count += 1
    ok = worst < 1e-12 and agree
    report(3, ok, f"{count} random triples across the three classes: "
                  f"max residual = {worst:.2e}, exact path agrees: {agree}")


def test_criterion_04_cosine_product_minimum():
    start = time.perf_counter()
    xs = np.linspace(-math.pi, math.pi, 2001)
    grid = (np.cos(xs)[:, None] * np.cos(xs)[None, :]
            * np.cos(xs[:, None] - xs[None, :]))
    gmin = float(grid.min())
    value, minimizers = f_min_points()
    nodes = xs[np.argwhere(grid <= value + 1e-4)]
    recovered = all(
        float(np.min(np.hypot(nodes[:, 0] - mx, nodes[:, 1] - my))) < 1e-2
        for mx, my in minimizers
    )
    spurious = float(np.max(np.min(
        [np.hypot(nodes[:, 0] - mx, nodes[:, 1] - my) for mx, my in minimizers],
        axis=0)))
    elapsed = time.perf_counter() - start
    ok = (abs(gmin - value) < 1e-4 and recovered and spurious < 5e-2
          and elapsed < 5)
    report(4, ok, f"2001^2 grid: min = {gmin:.7f} (target {value}), all 8 "
                  f"minimizers recovered within 1e-2, {elapsed:.2f} s")


def test_criterion_05_nonuniform_density(nonuniform_system):
    start = time.perf_counter()
    hist = density_histogram(nonuniform_system, 14, 4096)
    width = (float(hist.hull[1]) - float(hist.hull[0])) / 4096
    plateaus = [
        (0, Fraction(1, 2), Fraction(4, 27)),
        (Fraction(3, 4), 1, Fraction(4, 27)),
        (3, Fraction(13, 4), Fraction(4, 27)),
        (Fraction(1, 2), Fraction(3, 4), Fraction(8, 27)),
        (1, Fraction(3, 2), Fraction(8, 27)),
        (Fraction(11, 4), 3, Fraction(8, 27)),
        (Fraction(3, 2), Fraction(11, 4), Fraction(4, 9)),
    ]
    worst = 0.0
    for lo, hi, value in plateaus:
        i0 = math.ceil((float(lo) + 2 * width) / width)
        i1 = math.floor((float(hi) - 2 * width) / width)
        mean = float(hist.density[i0:i1].mean())
        worst = max(worst, abs(mean - float(value)) / float(value))
    uniform = uniformity_check(hist.density, 0.1)
    verdict = density_verdict(hist)
    elapsed = time.perf_counter() - start
    ok = (worst < 0.02 and not uniform and verdict == VERDICT_NOT_SPECTRAL
          and elapsed < 30)
    report(5, ok, f"level-14 histogram: plateau error = {worst:.2%}, "
                  f"uniform = {uniform}, verdict = {verdict!r}, "
                  f"{elapsed:.2f} s")


def test_criterion_06_unit_interval_tiling(final_system):
    cover = support_cover(final_system, 10)
    exact = cover == IntervalUnion.from_intervals([(0, 1)])
    tiles = tiling_defects(cover) == (0, 0)
    report(6, exact and tiles, f"level-10 cover equals [0,1]: {exact}, tiles the line: {tiles}")


def test_criterion_07_bessel_bound(alternating_system):
    grid = np.linspace(-1, 1, 200)
    spectra = [level_spectrum(alternating_system, n) for n in range(1, 9)]
    top = np.array(spectra[-1].points, dtype=float)
    # one transform evaluation for the largest spectrum; level-n sums are
    # subset sums of the same matrix since the spectra nest
    F, _ = fourier_tail(alternating_system, 0, grid[:, None] + top[None, :], 30)
    sq = np.abs(F) ** 2
    col = {p: k for k, p in enumerate(spectra[-1].points)}
    q_by_level = np.stack([
        sq[:, [col[p] for p in s.points]].sum(axis=1) for s in spectra
    ])
    bessel_ok = bool(np.all(q_by_level[-1] <= 1 + 1e-6))
    monotone_ok = bool(np.all(np.diff(q_by_level, axis=0) >= -1e-12))
    ok = bessel_ok and monotone_ok
    report(7, ok, f"Q against depth 30 over 200 grid points: max = "
                  f"{float(q_by_level[-1].max()):.9f} <= 1 + 1e-6: "
                  f"{bessel_ok}, monotone in level: {monotone_ok}")


def test_criterion_08_normalization_invariance(rng):
    worst = 0.0
    for _ in range(20):
        gen = (random_t1_level, random_t2_level, random_t3_level)[
            int(rng.integers(3))]
        p, digits = gen(rng)
        raw_p = -p if rng.uniform() < 0.5 else p
        raw_digits = tuple(-d for d in digits) if rng.uniform() < 0.7 else digits
        if raw_p > 0 and min(raw_digits) >= 0:
            raw_p = -raw_p  # keep a sign or negative digit in every case
        q, shifted = normalize_level(raw_p, raw_digits)
        xs = rng.uniform(-30, 30, 1000)
        before = np.abs(mask_eval(raw_digits, xs / raw_p))
        after = np.abs(mask_eval(shifted, xs / q))
        worst = max(worst, float(np.max(np.abs(before - after))))
    ok = worst < 1e-12
    report(8, ok, f"20 sign/shift normalizations: max |mask| deviation = "
                  f"{worst:.2e} over 1000 points each")


def test_criterion_09_tail_constant():
    base = 0.5 * (43 * math.pi / 96) ** 2
    oracle = math.prod(1 - base / 4.0 ** t for t in range(250))
    got = tail_constant(7)
    vals = [tail_constant(nk) for nk in range(7, 13)]
    monotone = all(b > a for a, b in zip(vals, vals[1:]))
    ok = abs(got - oracle) < 1e-12 and got > 0 and monotone
    report(9, ok, f"tail constant at checkpoint 7 = {got:.6e} "
                  f"(oracle {oracle:.6e}), monotone over 7..12: {monotone}")


def test_criterion_10_certification_verdicts(alternating_system,
                                             pure_t3_system,
                                             nonuniform_system):
    certs = [
        certify(alternating_system),
        certify(pure_t3_system),
        certify(nonuniform_system),
    ]
    codes = [c.exit_code for c in certs]
    verdicts = [c.verdict.value for c in certs]
    ok = codes == [0, 0, 2]
    report(10, ok, f"verdicts = {verdicts}, exit codes = {codes} "
                   f"(expected [0, 0, 2])")
