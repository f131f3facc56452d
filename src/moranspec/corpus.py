"""Built-in example corpus: system files plus expected-outcome sidecars.

Each ``data/*.moran`` file ships with a ``*.expect.json`` sidecar listing
checks and their expected outcomes.  The runner executes every check and
reports expected vs observed; the corpus doubles as the regression backbone
for the documented example systems.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np

from .certificates import certify
from .core import MoranSystem, parse_system
from .density import (
    IntervalUnion,
    density_histogram,
    density_verdict,
    support_cover,
    tiling_check,
    uniformity_check,
)
from .spectrum import check_orthogonal, level_spectrum, q_sum_finite


def _data_root():
    return resources.files("moranspec") / "data"


def example_names() -> list[str]:
    return sorted(
        p.name[: -len(".moran")]
        for p in _data_root().iterdir()
        if p.name.endswith(".moran")
    )


def load_example(name: str) -> tuple[MoranSystem, dict]:
    root = _data_root()
    system = parse_system((root / f"{name}.moran").read_text())
    expect = json.loads((root / f"{name}.expect.json").read_text())
    return system, expect


@dataclass(frozen=True)
class CheckResult:
    example: str
    check: str
    expected: str
    observed: str
    ok: bool


def _plateau_error(hist, plateaus) -> float:
    """Worst relative deviation of plateau-interior mean densities."""
    lo_hull, hi_hull = hist.hull
    width = (hi_hull - lo_hull) / len(hist.density)
    worst = 0.0
    for lo, hi, value in plateaus:
        lo, hi, value = Fraction(lo), Fraction(hi), Fraction(value)
        inner_lo, inner_hi = lo + 2 * width, hi - 2 * width
        first = int(-(-(inner_lo - lo_hull) // width))  # ceil division
        last = int((inner_hi - lo_hull) // width)
        if last <= first:
            raise ValueError(f"plateau [{lo}, {hi}] too narrow for the bin count")
        mean = float(np.mean(hist.density[first:last]))
        worst = max(worst, abs(mean - float(value)) / float(value))
    return worst


def run_check(system: MoranSystem, name: str, params: dict, seed: int = 0) -> CheckResult:
    kind = params["check"]
    if kind == "admissible":
        obs = system.is_admissible()
        return CheckResult(name, kind, str(params["expect"]), str(obs),
                           obs == params["expect"])
    if kind == "certify":
        cert = certify(system, seed=seed, system_id=name)
        return CheckResult(name, kind, params["expect"], cert.verdict.value,
                           cert.verdict.value == params["expect"])
    if kind == "orthogonality":
        pts = level_spectrum(system, params["level"])
        report = check_orthogonal(system, pts)
        return CheckResult(name, f"{kind}@{params['level']}",
                           f"{params['expect_failures']} failures",
                           f"{len(report.failures)} failures",
                           len(report.failures) == params["expect_failures"])
    if kind == "qsum":
        pts = level_spectrum(system, params["level"])
        xs = np.linspace(-5.0, 5.0, params["grid"])
        qs = q_sum_finite(system, params["level"], pts, xs)
        worst = float(np.max(np.abs(qs - 1.0)))
        return CheckResult(name, f"{kind}@{params['level']}",
                           f"|Q-1| < {params['tol']:g}", f"|Q-1| <= {worst:.3g}",
                           worst < params["tol"])
    if kind == "cover_equals":
        cover = support_cover(system, params["level"])
        target = IntervalUnion.from_intervals(
            [(Fraction(params["target"][0]), Fraction(params["target"][1]))]
        )
        return CheckResult(name, f"{kind}@{params['level']}",
                           str(params["target"]),
                           "match" if cover == target else f"{len(cover.intervals)} intervals",
                           cover == target)
    if kind == "cover_hausdorff":
        lvl = params["level"]
        cover = support_cover(system, lvl)
        target = IntervalUnion.from_intervals(
            [(Fraction(params["target"][0]), Fraction(params["target"][1]))]
        )
        dist = cover.hausdorff_distance(target)
        budget = Fraction(params["max_mult"]).limit_denominator() * system.tail_max_sum(lvl)
        return CheckResult(name, f"{kind}@{lvl}",
                           f"dist <= {float(budget):.3g}", f"dist = {float(dist):.3g}",
                           dist <= budget)
    if kind == "tiling":
        cover = support_cover(system, params["level"])
        obs = tiling_check(cover, params["window"], params["samples"])
        return CheckResult(name, f"{kind}@{params['level']}", str(params["expect"]),
                           str(obs), obs == params["expect"])
    if kind == "density_plateaus":
        hist = density_histogram(system, params["level"], params["bins"])
        worst = _plateau_error(hist, params["plateaus"])
        return CheckResult(name, f"{kind}@{params['level']}",
                           f"rel err <= {params['rtol']:g}", f"rel err = {worst:.3g}",
                           worst <= params["rtol"])
    if kind == "uniformity":
        hist = density_histogram(system, params["level"], params["bins"])
        obs = uniformity_check(hist, params["tol"])
        return CheckResult(name, f"{kind}@{params['level']}", str(params["expect"]),
                           str(obs), obs == params["expect"])
    if kind == "density_verdict":
        hist = density_histogram(system, params["level"], params["bins"])
        obs = density_verdict(hist)
        return CheckResult(name, f"{kind}@{params['level']}", params["expect"], obs,
                           obs == params["expect"])
    raise ValueError(f"unknown check kind {kind!r}")


def run_example(name: str, seed: int = 0) -> list[CheckResult]:
    system, expect = load_example(name)
    return [run_check(system, name, params, seed=seed) for params in expect["checks"]]


def run_all(seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    for name in example_names():
        out.extend(run_example(name, seed=seed))
    return out
