"""Command-line interface.

One executable, ``moranspec``, with subcommands for validation, spectrum
construction, orthogonality and completeness checks, Hadamard companions,
spectrality certification, density estimation, tiling checks, and the
built-in example suite.  Reports go to stdout; optional CSV files carry the
plot data.  Exit codes: 0 success, 64 usage error, 66 unreadable or
malformed system file, 2/3 for failed/inconclusive certification.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import re
import sys

from .certificates import certify
from .core import (LevelClass, MoranError, MoranSystem, _factor_extremes, float_text,
                   fraction_text, np, parse_system)
from .density import (
    EDGE_EXCLUDE,
    VERDICT_SPARSE,
    VERDICT_UNIFORM,
    density_histogram,
    density_verdict,
    support_cover,
    tiling_defects,
    uniformity_check,
)
from .hadamard import construct_L, is_hadamard
from .spectrum import SpectrumLevel, check_orthogonal, level_spectrum, q_sum_finite

EXIT_OK = 0
EXIT_USAGE = 64
EXIT_FILE = 66
EXIT_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer that SIGPIPE ends
MAX_BUILT_POINTS = 2**20  # spectrum points (qsum: a time bound); qsum grid, density bins
MAX_BINNED_ATOMS = 2**28  # density bins its atoms block by block: a time bound


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e7" as an option; it is a number, as "-5" and "-.5" are
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise UsageError(message)


def parse_sigma(text: str) -> tuple[int, ...]:
    """Sign prefix from '+-+' or '+1,-1,+1' style input."""
    text = text.strip()
    if not text:
        return ()
    if set(text) <= {"+", "-"}:
        return tuple(1 if c == "+" else -1 for c in text)
    try:
        vals = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse sigma prefix {text!r}")
    if any(v not in (-1, 1) for v in vals):
        raise UsageError("sigma entries must be +1 or -1")
    return vals


def finite_float(text: str) -> float:
    """argparse type for a float that is neither infinite nor nan."""
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def tolerance(text: str) -> float:
    """argparse type for a finite float that is not negative."""
    if (value := finite_float(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def count_text(n: int) -> str:
    """n in decimal, or its digit count where CPython's int-to-str digit limit refuses n."""
    try:
        return str(n)
    except ValueError:
        digits = int(n.bit_length() * math.log10(2))  # the digit count, or one less
        return f"<{digits + (10 ** digits <= n)} digits>"


def write_csv(path: str, header: list[str], columns) -> None:
    """CSV of equal-length columns, written in blocks of 2**13 rows.

    Commands write it before their report, so a path that cannot be written
    leaves stdout empty.  A pipe at ``path`` whose reader leaves is such a path:
    its BrokenPipeError becomes an OSError that names it, not stdout's.

    A float64 array column is written as %.15g, and any other column by str.
    Where at most half of a block's floats are distinct, each distinct bit
    pattern is formatted once (so -0.0 and nan stay as they are); else the
    block's one % format formats them in place, with no string per cell.
    """
    rows = len(columns[0]) if columns else 0
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for k in range(0, rows, 2**13):
                specs, cells = zip(*(_csv_cells(col[k:k + 2**13]) for col in columns))
                line = ",".join(specs) + "\n"
                fh.write(line * len(cells[0]) % tuple(itertools.chain.from_iterable(zip(*cells))))
    except BrokenPipeError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None


def _csv_cells(col) -> tuple[str, list]:
    """A block column's % conversion and the values it takes."""
    if not (isinstance(col, np.ndarray) and col.dtype == np.float64):
        return "%s", col
    _, first, inverse = np.unique(col.view(np.int64), return_index=True, return_inverse=True)
    if 2 * len(first) > len(col):
        return "%.15g", col.tolist()
    text = (("%.15g," * len(first))[:-1] % tuple(col[first].tolist())).split(",")
    return "%s", list(map(text.__getitem__, inverse.tolist()))


def load_system(path: str) -> MoranSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileNotFoundError(f"cannot read {path}: {exc}") from exc
    return parse_system(text)


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> _Parser:
    parser = _Parser(prog="moranspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's own parser, which main hands its argv

    def add(name, help_text, with_file=True, output=False, level=False, sigma=False):
        p = sub.add_parser(name, help=help_text)
        if with_file:
            p.add_argument("system", help="path to a .moran system file")
        if output:
            p.add_argument("-o", "--output", default=None, help="CSV output path")
        if level:
            p.add_argument("--level", type=int, default=6)
        if sigma:
            p.add_argument("--sigma", default="", help=None if sigma is True else sigma)
        return p

    add("validate", "parse a system file and print per-level classification")
    add("spectrum", "construct the level-n candidate spectrum", output=True, level=True,
        sigma="sign prefix, e.g. '+-+' (leading '-' needs --sigma=-+)")
    add("ortho", "exact pairwise orthogonality of the level-n spectrum", level=True, sigma=True)

    p = add("qsum", "quadratic sum Q(xi) of the level-n spectrum on a grid; at depth = "
            "level, decided exactly from the orthogonality of the level factors",
            output=True, level=True, sigma=True)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--xmin", type=finite_float, default=-5.0)
    p.add_argument("--xmax", type=finite_float, default=5.0)
    p.add_argument("--depth", type=int, default=0,
                   help="evaluate against this tail depth instead of the level")
    p.add_argument("--tol", type=tolerance, default=1e-9,
                   help="completeness tolerance on |Q - 1| of a float evaluation "
                        "(default 1e-9); an exact decision passes at any tolerance")

    add("hadamard", "companion sets and exact Hadamard verdicts per level")

    add("certify", "assemble the spectrality certificate", sigma=True)

    p = add("density", "histogram density estimate over the support hull",
            output=True, level=True)
    p.add_argument("--bins", type=int, default=4096)
    p.add_argument("--tol", type=tolerance, default=0.1,
                   help="relative tolerance for the uniformity check")

    p = add("tiling", "check integer-translate tiling of the support cover", level=True)
    p.add_argument("--samples", type=int, default=None,
                   help="ignored: the tiling decision is exact")

    p = add("examples", "run the built-in example corpus", with_file=False)
    p.add_argument("--name", default=None, help="run a single example by name")
    return parser


def cmd_validate(args) -> int:
    system = load_system(args.system)
    print(f"{'level':<12}{'p':>6}  {'digits':<20}{'class':<9}notes")
    for where, lvl in system.distinct_levels():
        notes = "; ".join(lvl.violations + lvl.warnings)
        print(f"{where:<12}{lvl.p:>6}  {lvl.digit_text:<20}{lvl.cls.value:<9}{notes}")
    bad = system.invalid_levels()
    print(f"admissible: {'yes' if not bad else 'no'}")
    return EXIT_OK


def refused_count(system: MoranSystem, args, cap: int, what: str) -> int:
    """Exact count q = Phi(1)...Phi(level) of the level's atoms or points; refuses q > cap."""
    if (q := system.phi_product(args.level)) > cap:
        raise UsageError(f"level {args.level} {what.format(count_text(q))}, more than "
                         f"the {args.command} cap of {cap}")
    return q


def built_spectrum(args) -> tuple[MoranSystem, SpectrumLevel, int]:
    """System, level spectrum and exact point count q; refuses q > MAX_BUILT_POINTS.

    The levels and the cap are checked before any factor, as long as P_level, is built.
    """
    system = load_system(args.system)
    sigma = parse_sigma(args.sigma)
    system.check_admissible(args.level)
    q = refused_count(system, args, MAX_BUILT_POINTS, "spectrum has {} points")
    return system, level_spectrum(system, args.level, sigma), q


def cmd_spectrum(args) -> int:
    _, pts, q = built_spectrum(args)
    lo, hi = _factor_extremes(pts.factors)  # the points print by str: refuse before the first
    top, limit = max(-lo, hi), sys.get_int_max_str_digits()
    if limit and top.bit_length() > 3 * limit and top >= 10**limit:  # 8**limit < 10**limit
        raise UsageError(f"level {args.level} spectrum points reach {count_text(top)}, past "
                         f"Python's int-to-str limit of {limit} digits")
    if args.output:
        write_csv(args.output, ["index", "lambda"], [range(q), pts.points])
    print(f"level {args.level} spectrum: {q} points, "
          f"sigma prefix {pts.sigma}")
    print(" ".join(map(str, pts.points)))
    if args.output:
        print(f"wrote {args.output}")
    return EXIT_OK


def cmd_ortho(args) -> int:
    system = load_system(args.system)
    pts = level_spectrum(system, args.level, parse_sigma(args.sigma))
    report = check_orthogonal(system, pts)
    print(f"points: {count_text(report.point_count)}  pairs: {count_text(report.pairs_checked)}  "
          f"failures: {len(report.failures)}")
    print(f"witness levels used: {list(report.witness_levels)}")
    if report.failures:
        for a, b in report.failures[:20]:
            print(f"  pair ({a}, {b}): difference {a - b} misses the zero set")
        return 1
    print("orthogonality: exact pass")
    return EXIT_OK


def cmd_qsum(args) -> int:
    system, pts, q = built_spectrum(args)
    if args.depth < 0:
        raise UsageError("--depth must be nonnegative (0 means the level)")
    depth = args.depth or args.level
    if depth < args.level:
        raise UsageError("--depth must be at least the spectrum level")
    if not 1 <= args.grid <= MAX_BUILT_POINTS:
        raise UsageError(f"--grid must be between 1 and {MAX_BUILT_POINTS}")
    if not math.isfinite(args.xmax - args.xmin):  # linspace would step by inf
        raise UsageError(f"--xmin {args.xmin} to --xmax {args.xmax} spans past the float range")
    # q orthogonal exponentials on a measure of at most q atoms are a basis: Q = 1
    exact = depth == args.level and check_orthogonal(system, pts).passed
    if args.output or not exact:  # an exact Q = 1 needs an array only for the CSV
        xs = np.linspace(args.xmin, args.xmax, args.grid)
        qs = np.ones(args.grid) if exact else q_sum_finite(system, depth, pts, xs)
    if args.output:
        write_csv(args.output, ["xi", "Q"], [xs, qs])
    lo, hi, dev = (1.0, 1.0, 0.0) if exact else (
        qs.min(), qs.max(), float(np.max(np.abs(qs - 1.0))))
    print(f"Q over [{args.xmin}, {args.xmax}] at {args.grid} points, "
          f"level {args.level}, depth {depth}:")
    print(f"  min {lo:.12f}  max {hi:.12f}  max|Q-1| {dev:.3g}")
    if exact:
        print(f"  decided exactly: the {q} points are orthogonal for the level-{depth} "
              f"measure, so Q = 1 at every xi")
    if depth == args.level:
        verdict = "complete" if exact or dev < args.tol else "NOT complete"
        print(f"  {verdict} at tolerance {args.tol:g}")
    if args.output:
        print(f"wrote {args.output}")
    return EXIT_OK


def cmd_hadamard(args) -> int:
    system = load_system(args.system)
    for where, lvl in system.distinct_levels():
        if lvl.cls is LevelClass.INVALID:
            print(f"{where}: p={lvl.p} D={lvl.digit_text} not admissible "
                  f"({'; '.join(lvl.violations)})")
            continue
        L = construct_L(lvl)
        print(f"{where}: p={lvl.p} D={lvl.digit_text} L={{{','.join(map(str, L))}}} "
              f"hadamard={'yes' if is_hadamard(lvl, L) else 'no'}")
    return EXIT_OK


def cmd_certify(args) -> int:
    system = load_system(args.system)
    cert = certify(system, sigma=parse_sigma(args.sigma))
    print(f"verdict: {cert.verdict.value}")
    print(cert.diagnostics)
    return cert.exit_code


def cmd_density(args) -> int:
    system = load_system(args.system)
    refused_count(system, args, MAX_BINNED_ATOMS, "has {} atoms")
    if args.bins > MAX_BUILT_POINTS:
        raise UsageError(f"--bins {args.bins}, more than the --bins cap of {MAX_BUILT_POINTS}")
    if 0 < args.bins <= 2 * EDGE_EXCLUDE:  # bins <= 0: density_histogram refuses them
        raise UsageError(f"--bins {args.bins} leaves no interior bin: the uniformity "
                         f"verdict drops {EDGE_EXCLUDE} at each end")
    hist = density_histogram(system, args.level, args.bins)
    if args.output:
        write_csv(args.output, ["bin_center", "density"], [hist.centers, hist.density])
    lo, hi = hist.hull
    print(f"level {args.level}: {hist.atom_count} atoms on [{fraction_text(lo)}, "
          f"{fraction_text(hi)}], "
          f"{len(hist.density)} bins")
    print(f"total mass: {hist.total_mass:.12f}")
    print(f"empty bin fraction: {hist.empty_fraction:.3f}")
    verdict = density_verdict(hist, args.tol)
    # the verdict decides uniformity, unless sparse support decided it first
    uniform = verdict == VERDICT_UNIFORM or (
        verdict == VERDICT_SPARSE and uniformity_check(hist.density, args.tol))
    print(f"uniform within {args.tol:g}: {'yes' if uniform else 'no'}")
    print(f"verdict: {verdict}")
    if args.output:
        print(f"wrote {args.output}")
    return EXIT_OK


def cmd_tiling(args) -> int:
    cover = support_cover(load_system(args.system), args.level)
    lo, hi = cover.hull
    print(f"support cover at level {args.level}: {len(cover.ends) // 2} interval(s), "
          f"hull [{fraction_text(lo)}, {fraction_text(hi)}], "
          f"length {float_text(cover.total_length)}")
    gap, overlap = tiling_defects(cover)
    print(f"tiling by integer translates: {'no' if gap or overlap else 'yes'} "
          f"(gap {fraction_text(gap)}, overlap {fraction_text(overlap)})")
    return EXIT_OK


def cmd_examples(args) -> int:
    from . import corpus  # its only user: no other command loads it, or json
    results = corpus.run_example(args.name) if args.name else corpus.run_all()
    width = max(len(r.example) for r in results) + 2
    cwidth = max(len(r.check) for r in results) + 2
    ok_all = True
    for r in results:
        mark = "ok" if r.ok else "MISMATCH"
        ok_all &= r.ok
        print(f"{r.example:<{width}}{r.check:<{cwidth}}"
              f"expected: {r.expected:<28} observed: {r.observed:<28} {mark}")
    print(f"examples: {'all reproduced' if ok_all else 'MISMATCHES FOUND'}")
    return EXIT_OK if ok_all else 1


_COMMANDS = {
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
    "ortho": cmd_ortho,
    "qsum": cmd_qsum,
    "hadamard": cmd_hadamard,
    "certify": cmd_certify,
    "density": cmd_density,
    "tiling": cmd_tiling,
    "examples": cmd_examples,
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and (command := parser.commands.get(argv[0])) is not None:
            # the one parse: what the top-level parser would hand this command's parser
            args, rest = command.parse_known_args(argv[1:])
            if rest:
                parser.error(f"unrecognized arguments: {' '.join(rest)}")
            args.command = argv[0]
        else:  # no command name first: none, --help, an unknown command or --
            args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout shows here, not in the interpreter's exit
        return code
    except BrokenPipeError:  # the reader of stdout left first, as `| head` does
        # the interpreter's last flush would fail again: it goes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (UsageError, ValueError) as exc:
        # library ValueErrors (LevelRangeError too) reject argument values
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a system file that cannot be read, or an -o that cannot be written
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except MoranError as exc:
        print(f"system file error: {exc}", file=sys.stderr)
        return EXIT_FILE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
