"""Seeded inputs, op lists and output checks for the three workloads.

A workload is run as a sequence of passes.  Each pass draws fresh systems
from ``numpy.random.default_rng((seed, pass))``, writes them as ``.moran``
files into a work directory and returns its op list: CLI argument vectors,
each with the exit codes and the stdout line that count as a correct
outcome.  The program sees only the files, and the same seed gives the same
files and ops.

``measure`` and ``spectral`` fix the *shape* of a pass (scales and classes
per slot, levels, op kinds) and let the seed move only the digits within
it, so one pass costs about the same under every seed and run-to-run spread
measures the program, not the draw.  ``certify`` draws scales too, over 20
small systems a pass and many passes a run.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Exit codes documented in the README.
EXIT_OK, EXIT_FAILED, EXIT_INCONCLUSIVE = 0, 2, 3

#: Correct-outcome lines fixed by the README and the paper.
MASS_ONE = r"^total mass: 1\.000000000000$"
ORTHO_PASS = r"  failures: 0$"
QSUM_COMPLETE = r"^  complete at tolerance"
CONDITIONS_FAILED = r"^verdict: CONDITIONS_FAILED$"


@dataclass(frozen=True)
class Op:
    """One CLI call and what counts as its correct outcome."""

    name: str  # stable label that names the op when it fails
    argv: tuple[str, ...]
    codes: frozenset[int] = frozenset({EXIT_OK})
    expect: str | None = None  # regex that must match a stdout line

    def failure(self, code: int, out: str) -> str | None:
        """Why the outcome is wrong, or None when it is correct."""
        if code not in self.codes:
            return f"exit {code}, expected one of {sorted(self.codes)}"
        if self.expect and not re.search(self.expect, out, re.M):
            return f"no stdout line matches {self.expect!r}"
        return None


def moran_text(preamble, cycle, note: str) -> str:
    def entries(levels):
        return " ".join(f"({p},{{{','.join(map(str, ds))}}})" for p, ds in levels)

    text = f"# {note}\n"
    if preamble:
        text += f"preamble: {entries(preamble)}\n"
    return text + f"cycle: {entries(cycle)}\n"


# -- level generators ---------------------------------------------------------
# T1/T2/T3 follow the admissibility rules of the random generators in
# tests/conftest.py; T1 keeps four digits.


def t1_level(rng):
    return 4 * int(rng.integers(2, 9)), (0, 1, 2, 3)


def t2_level(rng):
    while True:
        b = int(rng.integers(2, 21))
        a = int(rng.integers(1, b))
        if math.gcd(a, b) == 1 and {a % 3, b % 3} == {1, 2}:
            break
    k_min = b // 2 + 1  # b/(3k) < 2/3 strictly
    return 3 * int(rng.integers(k_min, k_min + 12)), (0, a, b)


def t2_boundary_level(rng):
    """T2 level with b/p exactly 2/3, the README's boundary ratio."""
    while True:
        k = int(rng.integers(2, 12))
        b = 2 * k
        a = int(rng.integers(1, b))
        if math.gcd(a, b) == 1 and {a % 3, b % 3} == {1, 2}:
            return 3 * k, (0, a, b)


def t3_level(rng):
    while True:
        p = int(rng.integers(2, 65))
        d = int(rng.integers(1, p))
        if (p // math.gcd(d, p)) % 2 == 0:
            return p, (0, d)


def odd_cofactor_level(rng):
    """Two digits over an odd scale: p/gcd(d,p) is odd, so the level is invalid."""
    p = 2 * int(rng.integers(1, 8)) + 1
    return p, (0, int(rng.integers(1, p)))


def fixed_scale_level(rng, cls: str, p: int):
    """A ``cls`` level over the given scale; the seed draws only its digits.

    T1 has the four consecutive digits, T2 the (a, b) pairs of the test
    generators' range (b <= 20) with b/p strictly below 2/3, and T3 a digit d
    with p/gcd(d, p) even.
    """
    if cls == "T1":
        return p, (0, 1, 2, 3)
    if cls == "T2":
        choices = [(a, b) for b in range(2, 21) if 3 * b < 2 * p
                   for a in range(1, b)
                   if math.gcd(a, b) == 1 and {a % 3, b % 3} == {1, 2}]
    else:
        choices = [(d,) for d in range(1, p) if (p // math.gcd(d, p)) % 2 == 0]
    return p, (0,) + choices[int(rng.integers(len(choices)))]


def complete_residue_level(rng, p: int):
    """Digits r + p*k_r, one per residue r mod p, with k_0 = 0 and k_r in {0,1}.

    Distinct residues make every digit word land on its own atom, so the
    family is collision-free by construction, and the measure is absolutely
    continuous with density and tiling questions that depend on the draw.
    """
    return p, (0,) + tuple(r + p * int(rng.integers(0, 2)) for r in range(1, p))


_GEN = {"T1": t1_level, "T2": t2_level, "T3": t3_level}


def _levels(rng, classes):
    return [_GEN[c](rng) for c in classes]


def _level_for(scales, atoms: int) -> int:
    """Largest level whose atom count P_n stays within ``atoms`` (cycle scales)."""
    n, P = 0, 1
    while P * scales[n % len(scales)] <= atoms:
        P *= scales[n % len(scales)]
        n += 1
    return n


# -- measure: atoms, support covers, densities, tilings ----------------------
# Complete-residue cycles with fixed scales: the seed moves digits, not atom
# counts, so every draw builds the same number of Fraction atoms.  Every
# cycle multiplies to 12 per period, so a rung builds the same number of
# atoms in every slot and its density ops cost about the same.  Pooled over
# a run, op_p90_ms then falls inside the band of top-rung ops and op_p50_ms
# inside the middle rung's, not on an edge between two op kinds whose share
# of the run moves with the draw.  Orders and period lengths differ, so
# covers and histograms see supports of different shapes.  The two corpus
# systems add an inadmissible but absolutely continuous measure and the
# unit-interval tile.
MEASURE_SCALES = ((2, 6), (6, 2), (3, 4), (4, 3), (2, 2, 3), (3, 2, 2))
#: Atom counts of the density ladder: 12^2, 12^3, 12^4.
MEASURE_ATOMS = (144, 1728, 20736)
#: Below the CLI default of 10000, so that the sampled tiling check
#: (samples * (2*window + 1) probes) stays small next to the atoms it covers.
TILING_SAMPLES = "2000"
CORPUS_MEASURE = (
    # (corpus file, density level, tiling level)
    ("unit_interval_tile", 11, 9),
    ("nonuniform_density", 14, 10),
)


def measure_pass(rng, work: Path, data: Path) -> list[Op]:
    ops = []
    for slot, scales in enumerate(MEASURE_SCALES):
        cycle = [complete_residue_level(rng, p) for p in scales]
        path = work / f"measure{slot}.moran"
        path.write_text(moran_text((), cycle, "complete residue digits"))
        lo, mid, hi = (_level_for(scales, a) for a in MEASURE_ATOMS)
        for level in (lo, mid, hi):
            argv = ["density", str(path), "--level", str(level)]
            if level == mid and slot % 2 == 0:
                argv += ["-o", str(work / f"density{slot}.csv")]
            ops.append(Op(f"measure{slot}.density@{level}", tuple(argv),
                          expect=MASS_ONE))
        # Even slots tile at a density level (the atoms repeat), odd slots at
        # a level no density op uses, so the repeat share stays in (0, 1).
        tile = lo if slot % 2 == 0 else lo - 1
        ops.append(Op(f"measure{slot}.tiling@{tile}",
                      ("tiling", str(path), "--level", str(tile),
                       "--samples", TILING_SAMPLES)))
    for name, dlevel, tlevel in CORPUS_MEASURE:
        path = str(data / f"{name}.moran")
        ops.append(Op(f"{name}.density@{dlevel}",
                      ("density", path, "--level", str(dlevel),
                       "-o", str(work / f"{name}.csv")), expect=MASS_ONE))
        ops.append(Op(f"{name}.tiling@{tlevel}",
                      ("tiling", path, "--level", str(tlevel),
                       "--samples", TILING_SAMPLES)))
    return ops


# -- spectral: spectra, exact orthogonality, Q-sums --------------------------
# Classes and scales are fixed per slot, as in ``measure``: the spectrum size
# at each level, the pair count and the size of the numbers the zero set is
# asked about are the same for every draw, so one top-rung ``ortho`` costs
# about the same under every seed.  The seed moves the digits, which changes the
# differences (through the T3 digit's 2-adic part) and the transforms.  The
# slots cover every class at a witness level and both a preamble and a pure
# cycle.  Both sign prefixes are used because sigma flips the T3 factors and
# so the difference set.  Every digit draw of every slot was run through
# ``qsum`` at both levels and both signs: the largest max|Q-1| is 2.8e-10,
# below the README's 1e-9 default.  Larger scales leave that range; the
# README's "Known program defect" gives a level-6 (T3, T2) system at scales
# 36 and 57 on which ``qsum`` says NOT complete.
SPECTRAL_SLOTS = (
    # (preamble, cycle, low level, high level); levels are (class, scale)
    ((), (("T3", 12), ("T2", 21)), 4, 6),  # 36 and 216 points
    ((("T3", 12),), (("T2", 39), ("T1", 16)), 3, 5),  # 24 and 288 points
    ((("T3", 12), ("T2", 39)), (("T1", 16),), 4, 5),  # mixed_classes shape: 96, 384
    ((), (("T1", 20), ("T3", 22)), 3, 5),  # 32 and 256 points
)
SIGMAS = ("--sigma=+-", "--sigma=-+")


def spectral_pass(rng, work: Path) -> list[Op]:
    ops = []
    for slot, (pre, cyc, lo, hi) in enumerate(SPECTRAL_SLOTS):
        path = work / f"spectral{slot}.moran"
        path.write_text(moran_text(
            [fixed_scale_level(rng, c, p) for c, p in pre],
            [fixed_scale_level(rng, c, p) for c, p in cyc],
            f"classes {'/'.join(c for c, _ in pre + cyc)}"))
        name = f"spectral{slot}"
        for sigma in SIGMAS:
            tag = sigma[-2:]
            ops.append(Op(f"{name}.spectrum@{hi}{tag}",
                          ("spectrum", str(path), "--level", str(hi), sigma)))
            ops.append(Op(f"{name}.ortho@{lo}{tag}",
                          ("ortho", str(path), "--level", str(lo), sigma),
                          expect=ORTHO_PASS))
            for level in (lo, hi):
                ops.append(Op(f"{name}.qsum@{level}{tag}",
                              ("qsum", str(path), "--level", str(level), sigma),
                              expect=QSUM_COMPLETE))
        # The top rung once per system, the sign prefix alternating by slot:
        # one more ortho@hi costs as much as the rest of the system's ops.
        # Slot 0, the cheapest, runs it under both signs, so that op_p90_ms
        # falls well inside the band of its 2 of the pass's 37 ops.
        for sigma in SIGMAS if slot == 0 else (SIGMAS[slot % 2],):
            ops.append(Op(f"{name}.ortho@{hi}{sigma[-2:]}",
                          ("ortho", str(path), "--level", str(hi), sigma),
                          expect=ORTHO_PASS))
    return ops


# -- certify: many small systems through validate, hadamard and certify ------
# Mostly admissible systems whose cycle has a level with three or more digits
# (the sampled tail-bound branch), plus pure two-digit tails behind a
# three-digit head, systems with one inadmissible level (exit 2 is fixed),
# and systems whose only three-digit level sits at the boundary ratio 2/3,
# so that exit codes 0, 2 and 3 all occur.  Certify runs at README defaults.
CERTIFY_MIX = (
    # (kind, systems per pass)
    ("tail", 10),
    ("two_digit", 3),
    ("inadmissible", 4),
    ("boundary", 3),
)


def _certify_system(rng, kind: str):
    if kind == "tail":
        pre = _levels(rng, ("T3",) * int(rng.integers(0, 2)))
        cyc = _levels(rng, [("T1", "T2", "T3")[int(rng.integers(3))]])
        cyc.insert(int(rng.integers(2)), _GEN[("T1", "T2")[int(rng.integers(2))]](rng))
        return pre, cyc, True
    if kind == "two_digit":
        return [t2_level(rng)], _levels(rng, ("T3",) * int(rng.integers(1, 3))), True
    if kind == "inadmissible":
        pre, cyc, _ = _certify_system(rng, "tail")
        cyc[int(rng.integers(len(cyc)))] = odd_cofactor_level(rng)
        return pre, cyc, False
    if kind == "boundary":
        return [], [t3_level(rng), t2_boundary_level(rng)], True
    raise ValueError(kind)


def certify_pass(rng, work: Path) -> list[Op]:
    ops = []
    for kind, count in CERTIFY_MIX:
        for i in range(count):
            pre, cyc, admissible = _certify_system(rng, kind)
            name = f"{kind}{i}"
            path = work / f"{name}.moran"
            path.write_text(moran_text(pre, cyc, kind))
            ops.append(Op(f"{name}.validate", ("validate", str(path))))
            ops.append(Op(f"{name}.hadamard", ("hadamard", str(path))))
            if admissible:
                certify = Op(f"{name}.certify", ("certify", str(path)),
                             frozenset({EXIT_OK, EXIT_FAILED, EXIT_INCONCLUSIVE}))
            else:
                certify = Op(f"{name}.certify", ("certify", str(path)),
                             frozenset({EXIT_FAILED}), CONDITIONS_FAILED)
            ops.append(certify)
    return ops


WORKLOADS = ("measure", "spectral", "certify")


def make_pass(workload: str, seed: int, index: int, work: Path, data: Path) -> list[Op]:
    """Write pass ``index`` of a workload into ``work`` and return its ops."""
    rng = np.random.default_rng((seed, index))
    if workload == "measure":
        return measure_pass(rng, work, data)
    if workload == "spectral":
        return spectral_pass(rng, work)
    if workload == "certify":
        return certify_pass(rng, work)
    raise ValueError(f"unknown workload {workload!r}")
