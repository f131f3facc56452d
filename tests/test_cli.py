import argparse
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from moranspec import (certificates, cli, core, corpus, density, density_histogram,
                       level_spectrum, parse_system, q_sum_finite, spectrum)
from moranspec.cli import main, parse_sigma
from moranspec.spectrum import OrthogonalityReport

from conftest import row_formatter_csv

FINAL = "cycle: (2,{0,1}) (3,{0,1,2})\n"
ALTERNATING = "cycle: (9,{0,1,2}) (4,{0,2})\n"
PURE_T3 = "preamble: (4,{0,2})\ncycle: (4,{0,1})\n"
NONUNIFORM = "preamble: (2,{0,1,2}) (2,{0,5,6})\ncycle: (2,{0,3})\n"
FINITE = "preamble: (4,{0,2}) (12,{0,1,2})\n"
MIXED = "preamble: (4,{0,2}) (12,{0,1,2})\ncycle: (8,{0,1,2,3})\n"
# level-6 spectrum points reach about P_6 = 8.6e9, far beyond P_1 = 36
LARGE_POINTS = "cycle: (36,{0,31}) (57,{0,1,20})\n"
# P_400 = 8**400 is far past the largest float
T1_CYCLE = "cycle: (8,{0,1,2,3})\n"
# 1/2 + 0/4 = 0/2 + 2/4: digit words collide
COLLIDING = "cycle: (2,{0,1,2})\n"
# copies one unit apart under a one-unit hull: the cover has (3**n + 1)/2 intervals
CANTOR = "cycle: (4,{0,1,3})\n"
# digits and scales with hundreds of digits: hulls past the float range, at its edge
# (the sum of the last two bin edges overflows) and whose float width rounds to 0
HUGE_DIGIT = "cycle: (2,{0,1" + "0" * 400 + "})\n"
EDGE_DIGIT = "cycle: (2,{0,15" + "0" * 307 + "})\n"
HUGE_SCALE = "cycle: (1" + "0" * 330 + ",{0,1})\n"
# a 3,001-digit scale: the level-1 cover's gap and the level-2 points pass 4,300 digits
LONG_SCALE = "cycle: (1" + "0" * 3000 + ",{0,1})\n"
# two 2,201-digit scales after P_1 = 2: the level-1 hull ends near 1/2 over 4,401 digits
LONG_HULL = "preamble: (2,{0,1}) cycle: (1" + "0" * 2199 + "1,{0,1}) (1" + "0" * 2199 + "3,{0,1})\n"
#: certify's stdout and exit code on each corpus system under three sign prefixes, and
#: on one system given as text under a 200-entry prefix
CERTIFY_GOLDEN = json.loads((Path(__file__).parent / "data" / "certify_stdout.json").read_text())
#: ortho, qsum and hadamard stdout and exit code on each corpus system; ortho and qsum
#: at levels 0-8 under the same three sign prefixes
EXACT_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "ortho_qsum_hadamard_stdout.json").read_text())
#: stdout, stderr and exit code of argvs at the edges of the command line ("{mixed}" is
#: the corpus file mixed_classes.moran), as printed at COLUMNS = 80 by the recording Python
ARGV_GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_argv_golden.json").read_text())


@pytest.fixture
def system_file(tmp_path):
    def write(text, name="system.moran"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestSigmaParsing:
    def test_signs(self):
        assert parse_sigma("+-+") == (1, -1, 1)

    def test_numbers(self):
        assert parse_sigma("1,-1,1") == (1, -1, 1)

    def test_empty(self):
        assert parse_sigma("") == ()


class TestValidate:
    def test_table(self, system_file, capsys):
        assert main(["validate", system_file(FINAL)]) == 0
        out = capsys.readouterr().out
        assert "T3" in out and "T2" in out and "boundary-ratio" in out
        assert "admissible: yes" in out

    def test_invalid_listed(self, system_file, capsys):
        assert main(["validate", system_file(NONUNIFORM)]) == 0
        out = capsys.readouterr().out
        assert "invalid" in out and "admissible: no" in out

    def test_run_as_module(self):
        src = Path(cli.__file__).resolve().parent.parent
        path = corpus._data_root() / "unit_interval_tile.moran"
        proc = subprocess.run([sys.executable, "-m", "moranspec", "validate", str(path)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert "admissible: yes" in proc.stdout

    @pytest.mark.parametrize("command, options, read", [
        # as `| head -c 20`: the write fails in a report line
        pytest.param("ortho", ["--level", "100000"], 20, id="head-c-20"),
        # a reader gone before any byte: the write fails in the last flush
        pytest.param("validate", [], 0, id="closed-first"),
    ])
    def test_closed_stdout(self, system_file, command, options, read):
        # a reader that leaves first ends the run with exit 141 and no message
        src = Path(cli.__file__).resolve().parent.parent
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "moranspec", command, system_file("cycle: (2,{0,1})\n"),
             *options], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**env, "PYTHONPATH": str(src)})
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()


#: Runs cli.main on each argv of a JSON list; prints one JSON line per call with its
#: exit code, its stdout, the numpy submodules loaded so far and whether the corpus is.
FRESH_MAIN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from moranspec import cli
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    print(json.dumps({"exit": code, "stdout": out.getvalue(),
                      "numpy": sorted(m for m in sys.modules if m.startswith("numpy.")),
                      "corpus": "moranspec.corpus" in sys.modules}))
"""


def run_fresh(code: str, *args: str) -> str:
    """stdout of ``code`` run by a fresh isolated interpreter (``-I``), which has no numpy yet."""
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(src), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLazyNumpy:
    """numpy loads at first use; the tests here import it first, so these start fresh."""

    def test_exact_commands_load_no_numpy(self, capsys):
        # nor the example corpus, which only the examples command loads
        data = corpus._data_root()
        mixed = str(data / "mixed_classes.moran")
        exact = [["hadamard", str(data / "skewed_two_digit.moran")],
                 ["qsum", str(data / "pure_two_digit.moran"), "--level", "4"]]  # depth = level
        cases = [(["validate", mixed], 0), (["ortho", mixed, "--level", "6"], 0),
                 (["certify", str(data / "nonuniform_density.moran")], 2),  # inadmissible
                 (["certify", str(data / "pure_two_digit.moran")], 0),  # two-digit tail
                 (["certify", mixed], 0),  # the exact zero walk
                 (["--help"], 0), (["validate", "/does/not/exist.moran"], 66),
                 (["ortho", mixed, "--level", "-3"], 64), (["qsum", mixed, "--xmin", "nan"], 64),
                 *((argv, 0) for argv in exact)]
        out = run_fresh(FRESH_MAIN, json.dumps([argv for argv, _ in cases]))
        for (argv, code), line in zip(cases, out.splitlines(), strict=True):
            result = json.loads(line)
            assert (result["exit"], result["numpy"], result["corpus"]) == (code, [], False), argv
            if argv in exact:  # as printed with numpy imported first
                assert main(argv) == 0
                assert capsys.readouterr().out == result["stdout"], argv

    @pytest.mark.parametrize("argv", [
        ["hadamard", "mixed_classes"],  # decided in integers: loads no numpy
        ["certify", "unit_interval_tile"],  # the exact zero walk: loads no numpy
        ["qsum", "pure_two_digit", "--level", "4", "--depth", "6", "--grid", "50", "-o"],
        pytest.param(["qsum", "pure_two_digit", "--level", "4", "--grid", "50", "-o"],
                     id="qsum-exact"),  # depth = level: the CSV alone loads numpy
        ["density", "nonuniform_density", "--level", "10", "--bins", "256", "-o"],
    ], ids=lambda argv: argv[0])
    def test_output_identical_to_numpy_imported_first(self, tmp_path, capsys, argv):
        csv = tmp_path / "out.csv"
        argv = [argv[0], str(corpus._data_root() / f"{argv[1]}.moran"), *argv[2:]]
        argv += [str(csv)] if argv[-1] == "-o" else []
        fresh = json.loads(run_fresh(FRESH_MAIN, json.dumps([argv])))
        fresh_csv = csv.read_bytes() if csv.exists() else None
        assert bool(fresh["numpy"]) == (argv[0] not in ("hadamard", "certify"))  # else lazily
        assert main(argv) == fresh["exit"] == 0
        assert capsys.readouterr().out == fresh["stdout"]
        assert (csv.read_bytes() if csv.exists() else None) == fresh_csv

    def test_numpy_imported_after_moranspec_is_the_handle(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import moranspec\n"
                "assert not [m for m in sys.modules if m.startswith('numpy.')]\n"
                "import numpy\n"
                "assert moranspec.core.np is numpy and type(numpy) is type(sys)\n"
                "print(numpy.arange(5).sum(), abs(moranspec.mask_eval((0, 1), 0.0)))")
        assert run_fresh(code) == "10 1.0\n"

    def test_missing_numpy_is_named(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); sys.modules['numpy'] = None\n"
                "try:\n    import moranspec\nexcept ModuleNotFoundError as exc:\n"
                "    print(exc.name)")
        assert run_fresh(code) == "numpy\n"

    def test_numpy_imported_first_is_the_handle(self):
        code = ("import sys, numpy; sys.path.insert(0, sys.argv[1]); import moranspec\n"
                "print(moranspec.core.np is numpy)")
        assert run_fresh(code) == "True\n"
        assert core.np is np  # conftest and this module import numpy first

    def test_start_up_imports_neither_dataclasses_nor_inspect(self):
        # each adds milliseconds to every command's start-up, for nothing the package needs
        argv = ["validate", str(corpus._data_root() / "mixed_classes.moran")]
        code = FRESH_MAIN + "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))\n"
        result, loaded = run_fresh(code, json.dumps([argv])).splitlines()
        assert (json.loads(result)["exit"], loaded) == (0, "[]")


class TestSpectrumCommands:
    def test_spectrum_points(self, system_file, capsys):
        assert main(["spectrum", system_file(FINAL), "--level", "2"]) == 0
        out = capsys.readouterr().out
        assert "-2 -1 0 1 2 3" in out

    def test_spectrum_sigma(self, system_file, capsys):
        assert main(["spectrum", system_file(FINAL), "--level", "1",
                     "--sigma", "-"]) == 0
        assert "-1 0" in capsys.readouterr().out

    def test_ortho(self, system_file, capsys):
        assert main(["ortho", system_file(FINAL), "--level", "4"]) == 0
        assert "exact pass" in capsys.readouterr().out

    def test_ortho_count_past_int_str_limit(self, capsys):
        # q(q-1)/2 pairs at level 4000 has more digits than str() converts by default (4300)
        path = str(corpus._data_root() / "mixed_classes.moran")
        assert main(["ortho", path, "--level", "4000"]) == 0
        out = capsys.readouterr().out
        points, pairs = re.match(r"points: (\d+)  pairs: <(\d+) digits>  failures: 0\n",
                                 out).groups()
        q = int(points)
        assert 10 ** (int(pairs) - 1) <= q * (q - 1) // 2 < 10 ** int(pairs)
        assert out.endswith("orthogonality: exact pass\n")

    @pytest.mark.parametrize("n, text", [(0, "0"), (10**4300 - 1, str(10**4300 - 1)),
                                         (10**4300, "<4301 digits>"),
                                         (2**20000, "<6021 digits>"),
                                         (10**9000 - 1, "<9000 digits>"),
                                         (10**9000, "<9001 digits>")],
                             ids=["0", "10^4300-1", "10^4300", "2^20000", "10^9000-1", "10^9000"])
    def test_count_text(self, n, text):
        assert cli.count_text(n) == text

    def test_qsum_csv(self, system_file, tmp_path, capsys):
        out_csv = tmp_path / "q.csv"
        assert main(["qsum", system_file(FINAL), "--level", "4",
                     "--grid", "20", "-o", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "xi,Q"
        assert len(lines) == 21
        qs = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(abs(q - 1) < 1e-9 for q in qs)

    @pytest.mark.parametrize("sigma", ["--sigma=+-", "--sigma=-+"])
    def test_qsum_large_points_complete(self, system_file, capsys, sigma):
        assert main(["qsum", system_file(LARGE_POINTS), "--level", "6",
                     sigma]) == 0
        out = capsys.readouterr().out
        assert "  complete at tolerance 1e-09" in out
        assert float(re.search(r"max\|Q-1\| (\S+)", out).group(1)) < 1e-12
        # decided exactly, so complete at any tolerance
        assert main(["qsum", system_file(LARGE_POINTS), "--level", "6", sigma, "--tol", "0"]) == 0
        assert "\n  complete at tolerance 0\n" in capsys.readouterr().out

    def test_qsum_decided_exactly_builds_no_point(self, capsys, monkeypatch):
        calls = []
        for module, name in ((cli, "q_sum_finite"), (spectrum, "_outer_sums")):
            monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
        # each corpus system at its last admissible level up to 6, and 2**20 points
        for name, level, q in [("mixed_classes", 6, 1536), ("pure_two_digit", 6, 64),
                               ("unit_interval_tile", 6, 216), ("skewed_two_digit", 1, 2),
                               ("nonuniform_density", 0, 1), ("pure_two_digit", 20, 2**20)]:
            path = str(corpus._data_root() / f"{name}.moran")
            assert main(["qsum", path, "--level", str(level)]) == 0
            out = capsys.readouterr().out
            assert f"  decided exactly: the {q} points are orthogonal" in out
            assert "  min 1.000000000000  max 1.000000000000  max|Q-1| 0\n" in out
            assert "\n  complete at tolerance 1e-09\n" in out
        assert calls == []

    def test_qsum_failing_orthogonality_takes_float_route(self, system_file, capsys, monkeypatch):
        calls = []

        def failing(system, pts):
            calls.append(pts.level)
            return OrthogonalityReport(len(pts), 0, ((0, 1),), ())

        monkeypatch.setattr(cli, "check_orthogonal", failing)
        assert main(["qsum", system_file(FINAL), "--level", "4", "--grid", "7", "--tol", "0"]) == 0
        out = capsys.readouterr().out
        assert calls == [4] and "decided exactly" not in out
        dev = float(re.search(r"max\|Q-1\| (\S+)", out).group(1))
        assert 0 < dev < 1e-12  # the float sum, not an exact 1
        assert "\n  NOT complete at tolerance 0\n" in out

    def test_qsum_complete_far_from_origin(self, capsys):
        # per-point float arguments once read max|Q-1| 2.9e-9 here: NOT complete
        path = str(corpus._data_root() / "mixed_classes.moran")
        assert main(["qsum", path, "--level", "4", "--xmin", "1e7", "--xmax", "2e7"]) == 0
        out = capsys.readouterr().out
        assert "  complete at tolerance 1e-09" in out
        assert float(re.search(r"max\|Q-1\| (\S+)", out).group(1)) < 1e-13

    def test_qsum_negative_numbers_with_exponent(self, capsys):
        # argparse alone reads "-2e7" as an option: "expected one argument"
        path = str(corpus._data_root() / "mixed_classes.moran")
        assert main(["qsum", path, "--level", "4", "--xmin", "-2e7", "--xmax", "-1e7"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Q over [-20000000.0, -10000000.0] at 200 points")
        assert "  complete at tolerance 1e-09" in out
        args = cli.build_parser().parse_args(["qsum", path, "--xmin", "-1E-9", "--xmax", "-.5e+1"])
        assert (args.xmin, args.xmax) == (-1e-9, -5.0)

    def test_qsum_with_depth(self, system_file, capsys):
        assert main(["qsum", system_file(ALTERNATING), "--level", "3",
                     "--grid", "11", "--xmin", "-1", "--xmax", "1",
                     "--depth", "20"]) == 0
        assert "max" in capsys.readouterr().out

    def test_qsum_depth_past_float_range(self, system_file, capsys):
        path = system_file(T1_CYCLE)
        assert main(["qsum", path, "--level", "2", "--depth", "400"]) == 0
        deep = capsys.readouterr().out.splitlines()
        assert main(["qsum", path, "--level", "2", "--depth", "20"]) == 0
        shallow = capsys.readouterr().out.splitlines()
        assert "depth 400" in deep[0] and deep[1:] == shallow[1:]


class TestArgvSurface:
    @pytest.mark.parametrize("case", ARGV_GOLDEN["cases"], ids=lambda c: c["name"])
    def test_output_unchanged(self, capsys, monkeypatch, case):
        if "%d.%d" % sys.version_info[:2] != ARGV_GOLDEN["python"]:
            pytest.skip(f"argparse text as printed by Python {ARGV_GOLDEN['python']}")
        monkeypatch.setenv("COLUMNS", str(ARGV_GOLDEN["columns"]))
        mixed = str(corpus._data_root() / "mixed_classes.moran")
        try:
            code = main([arg.replace("{mixed}", mixed) for arg in case["argv"]])
        except SystemExit as exc:  # --help
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])

    @pytest.mark.parametrize("argv", [
        ["validate", "{}"], ["spectrum", "{}", "--level", "2"], ["ortho", "{}", "--lev", "2"],
        ["qsum", "{}", "--level", "1", "--grid", "3", "--xmin", "-1e7"], ["hadamard", "{}"],
        ["certify", "{}", "--sigma=-+"], ["density", "{}", "--level", "2", "--bins", "64"],
        ["tiling", "{}", "--level", "2"], ["examples", "--name", "nope"],
        ["validate"], ["ortho", "{}", "--seed", "3"], ["spectrum", "{}", "--level", "x"],
    ], ids=lambda argv: "-".join(argv).replace("{}", "file"))
    def test_one_parse_per_call(self, system_file, capsys, monkeypatch, argv):
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def spy(parser, *args, **kwargs):
            calls.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        main([arg.replace("{}", system_file(FINAL)) for arg in argv])
        assert calls == [f"moranspec {argv[0]}"]


class TestRepeatedCalls:
    def test_each_call_sees_only_its_own_arguments(self, system_file, capsys):
        # one parser serves every call in a process
        path = system_file(FINAL)
        assert main(["spectrum", path, "--level", "3"]) == 0
        assert capsys.readouterr().out.startswith("level 3 spectrum: 12 points")
        assert main(["spectrum", path]) == 0
        assert capsys.readouterr().out.startswith("level 6 spectrum: 216 points")
        assert main(["qsum", path, "--grid", "0"]) == 64
        assert "--grid" in capsys.readouterr().err
        assert main(["qsum", path, "--level", "2", "--grid", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Q over [-5.0, 5.0] at 5 points, level 2, depth 2:")
        assert "complete at tolerance 1e-09" in out
        assert main(["ortho", path, "--level", "2", "--sigma", "-"]) == 0
        capsys.readouterr()
        assert main(["spectrum", path, "--level", "1"]) == 0
        assert "sigma prefix (1,)" in capsys.readouterr().out


class TestHadamardCommand:
    def test_levels_printed(self, system_file, capsys):
        assert main(["hadamard", system_file(FINAL)]) == 0
        out = capsys.readouterr().out
        assert "L={0,1}" in out and "L={0,1,-1}" in out

    def test_invalid_level_reported(self, system_file, capsys):
        assert main(["hadamard", system_file(NONUNIFORM)]) == 0
        assert "not admissible" in capsys.readouterr().out

    def test_non_hadamard_companion_prints_no(self, system_file, capsys, monkeypatch):
        # the printed verdict is is_hadamard's on the printed L
        monkeypatch.setattr(cli, "construct_L", lambda lvl: (0, 2) if lvl.p == 2 else (0, 1, -1))
        assert main(["hadamard", system_file(FINAL)]) == 0
        assert capsys.readouterr().out == ("cycle[1]: p=2 D={0,1} L={0,2} hadamard=no\n"
                                           "cycle[2]: p=3 D={0,1,2} L={0,1,-1} hadamard=yes\n")


@pytest.mark.parametrize("command", ["ortho", "qsum", "hadamard"])
@pytest.mark.parametrize("system", sorted({c["system"] for c in EXACT_GOLDEN}))
def test_ortho_qsum_hadamard_stdout_unchanged(capsys, command, system):
    path = str(corpus._data_root() / f"{system}.moran")
    cases = [c for c in EXACT_GOLDEN if (c["command"], c["system"]) == (command, system)]
    assert len(cases) == (1 if command == "hadamard" else 27)
    for case in cases:
        options = ([] if command == "hadamard"
                   else ["--level", str(case["level"]), f"--sigma={case['sigma']}"])
        assert main([command, path, *options]) == case["exit"], options
        assert capsys.readouterr().out == case["stdout"], options


class TestCertifyCommand:
    def test_pass_exit_zero(self, system_file, capsys):
        assert main(["certify", system_file(ALTERNATING)]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out and "seed" not in out

    def test_pure_t3_exit_zero(self, system_file):
        assert main(["certify", system_file(PURE_T3)]) == 0

    def test_conditions_failed_exit_two(self, system_file, capsys):
        assert main(["certify", system_file(NONUNIFORM)]) == 2
        assert "CONDITIONS_FAILED" in capsys.readouterr().out

    def test_inconclusive_exit_three(self, system_file, capsys, monkeypatch):
        # a tail zero in every class's range leaves the system unproved
        monkeypatch.setattr(certificates, "zero_in_range",
                            lambda tail, lo, hi: core.ZeroWitness(1, core.LevelClass.T2, lo))
        assert main(["certify", system_file(FINAL)]) == 3
        out = capsys.readouterr().out
        assert out.startswith("verdict: INCONCLUSIVE\n")
        assert "y in [-437/2160, 1733/2160]: tail zero y = -437/2160 at tail level 1" in out

    def test_long_prefix_range_past_the_digit_limit(self, system_file):
        # from 3,985 signs on, the class range's integers pass CPython's 4,300-digit
        # limit for int-to-text: an end that passes it is printed as ~ its float
        path = system_file("preamble: (4,{0,2}) cycle: (4,{0,1}) (3,{0,1,2})\n")
        src = Path(cli.__file__).resolve().parent.parent
        proc = subprocess.run([sys.executable, "-m", "moranspec", "certify", path,
                               "--sigma=" + "+-" * 1992 + "+"], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("verdict: PASS\n")
        assert proc.stdout.endswith(", ~0.636364] holds no tail zero\n")

    @pytest.mark.parametrize("case", CERTIFY_GOLDEN, ids=lambda c: c["system"] + (
        c["sigma"] if len(c["sigma"]) < 10 else f"-{len(c['sigma'])}-signs"))
    def test_corpus_stdout_unchanged(self, capsys, system_file, case):
        path = (system_file(case["text"]) if "text" in case
                else str(corpus._data_root() / f"{case['system']}.moran"))
        assert main(["certify", path, f"--sigma={case['sigma']}"]) == case["exit"]
        assert capsys.readouterr().out == case["stdout"]

    def test_deterministic_output(self, system_file, capsys):
        path = system_file(ALTERNATING)
        main(["certify", path])
        first = capsys.readouterr().out
        main(["certify", path])
        assert capsys.readouterr().out == first


class TestDensityTilingCommands:
    def test_density_verdict_line(self, system_file, tmp_path, capsys):
        out_csv = tmp_path / "d.csv"
        assert main(["density", system_file(NONUNIFORM), "--level", "12",
                     "--bins", "1024", "-o", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "not spectral by uniformity criterion" in out
        header = out_csv.read_text().splitlines()[0]
        assert header == "bin_center,density"

    def test_tiling_yes(self, system_file, capsys):
        # --samples is accepted and ignored: the decision is exact
        assert main(["tiling", system_file(FINAL), "--level", "8",
                     "--samples", "2000"]) == 0
        assert ("tiling by integer translates: yes (gap 0, overlap 0)"
                in capsys.readouterr().out)

    def test_tiling_no_reports_overlap(self, system_file, capsys):
        assert main(["tiling", system_file(NONUNIFORM), "--level", "6"]) == 0
        assert ("tiling by integer translates: no (gap 0, overlap 9/4)"
                in capsys.readouterr().out)

    def test_tiling_many_intervals(self, capsys):
        path = str(corpus._data_root() / "pure_two_digit.moran")
        assert main(["tiling", path, "--level", "12"]) == 0
        out = capsys.readouterr().out
        assert "4096 interval(s), hull [0, 7/12], length 8.13802e-05" in out
        assert "tiling by integer translates: no (gap 12287/12288, overlap 0)" in out

    def test_colliding_words_count_with_multiplicity(self, system_file, capsys):
        path = system_file(COLLIDING)
        assert main(["density", path, "--level", "8"]) == 0
        out = capsys.readouterr().out
        assert "level 8: 6561 atoms on [0, 2], 4096 bins" in out
        assert "total mass: 1.000000000000" in out
        assert main(["tiling", path, "--level", "8"]) == 0
        assert "1 interval(s), hull [0, 2], length 2" in capsys.readouterr().out

    def test_tiling_one_interval_over_more_atoms_than_the_cap(self, system_file, capsys,
                                                              monkeypatch):
        # 6**10 words, never more than 6 intervals in flight once merged
        monkeypatch.setattr(density, "MAX_COVER_INTERVALS", 6)
        assert main(["tiling", system_file(FINAL), "--level", "20"]) == 0
        out = capsys.readouterr().out
        assert "support cover at level 20: 1 interval(s), hull [0, 1], length 1" in out
        assert "tiling by integer translates: yes (gap 0, overlap 0)" in out

    @pytest.mark.parametrize("text, level, parts", [
        pytest.param(HUGE_DIGIT, 2, ["1 interval(s)", "length 1e+400", "no (gap 0, overlap 9999"],
                     id="length-past-float-range"),
        pytest.param(LONG_SCALE, 1, ["2 interval(s)", "length 2e-6000", "no (gap ~1, overlap 0)"],
                     id="gap-past-digit-limit"),
    ])
    def test_tiling_prints_bounded_values(self, system_file, capsys, text, level, parts):
        assert main(["tiling", system_file(text), "--level", str(level)]) == 0
        out, err = capsys.readouterr()
        assert all(part in out for part in parts) and err == ""

    def test_density_hull_past_digit_limit(self, system_file, tmp_path, capsys):
        out_csv = tmp_path / "d.csv"
        assert main(["density", system_file(LONG_HULL), "--level", "1", "--bins", "8",
                     "-o", str(out_csv)]) == 0
        assert "level 1: 2 atoms on [0, ~0.5], 8 bins" in capsys.readouterr().out

    def test_tiling_cover_cap_counts_merged_intervals(self, system_file, capsys, monkeypatch):
        # at level 5 the last step starts from 81 rows, 41 once merged: 3 * 41 = 123
        path = system_file(CANTOR)
        monkeypatch.setattr(density, "MAX_COVER_INTERVALS", 123)
        assert main(["tiling", path, "--level", "5"]) == 0
        assert "support cover at level 5: 122 interval(s)" in capsys.readouterr().out
        monkeypatch.setattr(density, "MAX_COVER_INTERVALS", 122)
        assert main(["tiling", path, "--level", "5"]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "a level 5 support cover step of 123 intervals, more than the cover cap of 122" in err


def csv_columns(rows) -> list:
    """The columns of rows for write_csv: float columns as float64 arrays."""
    return [np.array(c) if isinstance(c[0], float) else c for c in zip(*rows)]


class TestWriteCsv:
    @pytest.mark.parametrize("rows", [
        pytest.param([], id="zero-rows"),
        pytest.param([(0.1, -0.0), (float("inf"), float("nan")), (5e-324, 1e300),
                      (np.float64(1) / 3, -2.5e-7)], id="float-specials"),
        pytest.param(list(enumerate([-(2**70), 2**63, 2**64 + 1, -5, 0, 7])),
                     id="ints-past-int64"),
        pytest.param([(k, float(k) / 7, -k) for k in range(2**13 + 5)],
                     id="mixed-columns-two-blocks"),
        pytest.param(list(zip(np.linspace(-1, 1, 2**14).tolist(),
                              np.random.default_rng(5).normal(size=2**14).tolist())),
                     id="floats-two-full-blocks"),
    ])
    def test_matches_row_formatter(self, tmp_path, rows):
        path = tmp_path / "rows.csv"
        cli.write_csv(str(path), ["a", "b"], csv_columns(rows))
        assert path.read_text().split("\n") == row_formatter_csv(["a", "b"], rows).split("\n")

    @pytest.mark.parametrize("name", corpus.example_names())
    def test_density_file(self, tmp_path, capsys, name):
        out_csv = tmp_path / "d.csv"
        path = str(corpus._data_root() / f"{name}.moran")
        assert main(["density", path, "--level", "12", "-o", str(out_csv)]) == 0
        hist = density_histogram(corpus.load_example(name)[0], 12, 4096)
        assert out_csv.read_text().split("\n") == row_formatter_csv(
            ["bin_center", "density"],
            zip(hist.centers.tolist(), hist.density.tolist())).split("\n")

    def test_spectrum_and_qsum_files(self, system_file, tmp_path, capsys):
        system, path, out_csv = parse_system(MIXED), system_file(MIXED), tmp_path / "s.csv"
        assert main(["spectrum", path, "--level", "5", "-o", str(out_csv)]) == 0
        pts = level_spectrum(system, 5).points
        assert out_csv.read_text().split("\n") == row_formatter_csv(
            ["index", "lambda"], enumerate(pts)).split("\n")
        xs = np.linspace(-5.0, 5.0, 9)
        # at depth = level, Q is decided exactly: every value is 1
        assert main(["qsum", path, "--level", "3", "--grid", "9", "-o",
                     str(out_csv)]) == 0
        assert out_csv.read_text().split("\n") == row_formatter_csv(
            ["xi", "Q"], zip(xs.tolist(), [1.0] * 9)).split("\n")
        # past the level, the float sum is written
        assert main(["qsum", path, "--level", "3", "--depth", "4", "--grid", "9", "-o",
                     str(out_csv)]) == 0
        qs = q_sum_finite(system, 4, level_spectrum(system, 3), xs)
        assert out_csv.read_text().split("\n") == row_formatter_csv(
            ["xi", "Q"], zip(xs.tolist(), qs.tolist())).split("\n")


class TestExamplesCommand:
    def test_single_example(self, capsys):
        assert main(["examples", "--name", "pure_two_digit"]) == 0
        out = capsys.readouterr().out
        assert "all reproduced" in out

    def test_full_suite(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "all reproduced" in out
        assert "MISMATCH" not in out


class TestErrorPaths:
    def test_usage_error(self, capsys):
        assert main(["niet"]) == 64

    def test_missing_subcommand_arguments(self, capsys):
        assert main(["qsum"]) == 64

    def test_missing_file(self, capsys):
        assert main(["validate", "/does/not/exist.moran"]) == 66

    def test_malformed_file(self, system_file, capsys):
        assert main(["validate", system_file("cycle: (2,{0,1}) garbage")]) == 66

    def test_structural_error_file(self, system_file, capsys):
        assert main(["validate", system_file("cycle: (1,{0,1})")]) == 66

    @pytest.mark.parametrize("text, message", [
        pytest.param(f"cycle: ({'9' * 5000},{{0,1}})",
                     "entry 1 of 'cycle:' has an integer past", id="scale-5000-digits"),
        pytest.param(f"cycle: (2,{{0,1}}) ({'2' * 4},{{0,{'1' * 5000}}})",
                     "entry 2 of 'cycle:' has an integer past", id="digit-5000-digits"),
        # int() reads both, the grammar neither: only ASCII decimal integers
        pytest.param("cycle: (4,{0,1_0})", "bad digit list {0,1_0}", id="digit-underscore"),
        # an entry the grammar rejects is named by its position and text
        pytest.param("cycle: (\uff14,{0,1})", "entry 1 of 'cycle:' is not (p,{d,...}) in ASCII "
                     "decimal integers: '(\uff14,{0,1})'", id="full-width-scale"),
        pytest.param("cycle: (2,{0,1}) (+4,{0,1})", "entry 2 of 'cycle:' is not (p,{d,...})",
                     id="plus-scale"),
        pytest.param("preamble: (2.5,{0,1})", "entry 1 of 'preamble:' is not (p,{d,...})",
                     id="decimal-point-scale"),
        pytest.param("(2.5,{0,1})", "entry before any 'preamble:' or 'cycle:' header is not "
                     "(p,{d,...}) in ASCII decimal integers: '(2.5,{0,1})'",
                     id="decimal-point-before-header"),
        pytest.param(f"cycle: (2.{'5' * 5000},{{0,1}})", "entry 1 of 'cycle:' is not",
                     id="decimal-point-5000-digits"),
    ])
    def test_bad_integer_file(self, system_file, capsys, text, message):
        assert main(["validate", system_file(text)]) == 66
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"system file error: {message}")
        assert len(err) < 200  # the problem is named, not the 5000-digit text echoed

    @pytest.mark.parametrize("command", ["spectrum", "qsum", "density"])
    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_unwritable_output_file(self, system_file, tmp_path, capsys, command, target):
        # an -o that cannot be opened for writing is a file error, named on one line;
        # the file is written before the report, so stdout stays empty
        path = tmp_path if target == "directory" else tmp_path / "missing" / "out.csv"
        assert main([command, system_file(FINAL), "--level", "3", "-o", str(path)]) == 66
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("file error: ") and str(path) in err and err.count("\n") == 1

    def test_output_pipe_reader_leaves(self, system_file, tmp_path, capsys):
        # an -o FIFO that stops taking data is a file that could not be written
        # (exit 66, named), not stdout's reader leaving (141): stdout stays as it is
        fifo = tmp_path / "out.csv"
        os.mkfifo(fifo)

        def read_one_byte():
            with open(fifo, "rb") as fh:
                fh.read(1)

        reader = threading.Thread(target=read_one_byte, daemon=True)
        reader.start()
        try:
            code = main(["spectrum", system_file("cycle: (4,{0,1})\n"), "--level", "14",
                         "-o", str(fifo)])
        finally:
            reader.join(timeout=60)
        out, err = capsys.readouterr()
        assert (code, out) == (66, "")
        assert err.startswith(f"file error: cannot write {fifo}: ") and err.count("\n") == 1
        assert "Broken pipe" in err

    @pytest.mark.parametrize("command", ["spectrum", "ortho", "qsum"])
    def test_inadmissible_level(self, system_file, capsys, command):
        path = system_file("cycle: (9,{0,1,2}) (5,{0,1})\n")
        assert main([command, path, "--level", "2"]) == 66
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("system file error: level 2 not admissible: p/gcd(d,p) = 5")

    def test_huge_level_refused_before_building(self, system_file):
        # levels and cap are checked before any factor as long as P_level is built,
        # and ortho decides its level from the companions, with no factor built
        level = ["--level", "1000000"]
        mixed, finite = system_file(MIXED, "mixed.moran"), system_file(FINITE, "finite.moran")
        bad = system_file("cycle: (9,{0,1,2}) (5,{0,1})\n", "bad.moran")
        cases = [(["spectrum", mixed, *level], 64), (["qsum", mixed, *level], 64),
                 (["density", mixed, *level], 64), (["spectrum", bad, *level], 66),
                 (["qsum", bad, *level], 66), (["qsum", finite, *level], 64),
                 (["ortho", mixed, "--level", "200000"], 0)]
        # a regression would build factors as long as P_level: the limits stop it early
        child = ("import resource\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
                 "resource.setrlimit(resource.RLIMIT_CPU, (30, 30))\n" + FRESH_MAIN +
                 # the peak RSS of this process image alone (ru_maxrss counts the forking one)
                 "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n")
        start = time.perf_counter()
        *lines, peak_kib = run_fresh(child, json.dumps([argv for argv, _ in cases])).splitlines()
        wall = time.perf_counter() - start
        results = [json.loads(line) for line in lines]
        assert [(r["exit"], r["numpy"]) for r in results] == [(code, []) for _, code in cases]
        assert wall < len(cases)  # well under 1 s a refusal, process start included
        assert int(peak_kib) < 50 * 1024

    def test_huge_depth_and_cover_refused_before_building(self):
        # a huge --depth names its last level without forming P_depth, and a cover
        # step past the cap is refused from the shifts, before any row is built
        data = corpus._data_root()
        cases = [(["qsum", "pure_two_digit", "--level", "4", "--depth", "1000000000"], 0),
                 (["tiling", "mixed_classes", "--level", "70"], 64),
                 (["tiling", "skewed_two_digit", "--level", "40"], 64)]
        argvs = [[cmd, str(data / f"{name}.moran"), *rest] for (cmd, name, *rest), _ in cases]
        child = ("import resource\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
                 "resource.setrlimit(resource.RLIMIT_CPU, (30, 30))\n" + FRESH_MAIN)
        start = time.perf_counter()
        results = [json.loads(line) for line in run_fresh(child, json.dumps(argvs)).splitlines()]
        assert [r["exit"] for r in results] == [code for _, code in cases]
        assert time.perf_counter() - start < 2 * len(cases)

    def test_atom_limit_is_inclusive(self, system_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_BINNED_ATOMS", 6)
        monkeypatch.setattr(density, "MAX_COVER_INTERVALS", 8)
        assert main(["density", system_file(FINAL), "--level", "2"]) == 0
        assert "level 2: 6 atoms" in capsys.readouterr().out
        assert main(["density", system_file(FINAL), "--level", "3"]) == 64
        assert "has 12 atoms, more than the density cap of 6" in capsys.readouterr().err
        # pure two-digit steps never merge: level n holds 2**n intervals
        assert main(["tiling", system_file(PURE_T3), "--level", "3"]) == 0
        assert "level 3: 8 interval(s)" in capsys.readouterr().out
        assert main(["tiling", system_file(PURE_T3), "--level", "4"]) == 64
        assert ("a level 4 support cover step of 16 intervals, more than the cover cap of 8"
                in capsys.readouterr().err)

    def test_spectrum_size_limit_is_inclusive(self, system_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_BUILT_POINTS", 6)
        assert main(["spectrum", system_file(FINAL), "--level", "2"]) == 0
        assert "level 2 spectrum: 6 points" in capsys.readouterr().out
        assert main(["qsum", system_file(FINAL), "--level", "3"]) == 64
        assert "has 12 points, more than the qsum cap of 6" in capsys.readouterr().err

    @pytest.mark.parametrize("text, argv, message", [
        pytest.param(FINITE, ["certify"], "infinite system", id="certify-finite"),
        pytest.param(FINAL, ["density", "--level", "0"], "level must be at least 1",
                     id="density-level-0"),
        pytest.param(FINAL, ["tiling", "--level", "0"], "level must be at least 1",
                     id="tiling-level-0"),
        pytest.param(FINAL, ["ortho", "--level", "-1"], "nonnegative",
                     id="ortho-level-minus-1"),
        pytest.param(FINAL, ["qsum", "--grid", "0"], "--grid", id="qsum-grid-0"),
        pytest.param(FINAL, ["density", "--bins", "0"], "bins must be positive",
                     id="density-bins-0"),
        pytest.param(FINITE, ["spectrum", "--level", "5"],
                     "level 5 requested from a finite system of 2 levels",
                     id="spectrum-past-end"),
        pytest.param(FINITE, ["qsum", "--level", "2", "--depth", "4"],
                     "level 4 requested from a finite system of 2 levels",
                     id="qsum-depth-past-end"),
        # certify draws no samples, scans no levels and truncates no tail: the flags are gone
        pytest.param(FINAL, ["certify", "--samples", "0"],
                     "unrecognized arguments: --samples 0", id="certify-samples-0"),
        pytest.param(FINAL, ["certify", "--samples", "-3"],
                     "unrecognized arguments: --samples -3", id="certify-samples-minus-3"),
        pytest.param(PURE_T3, ["certify", "--depth", "30"],
                     "unrecognized arguments: --depth 30", id="certify-depth-30"),
        pytest.param(FINAL, ["qsum", "--xmax", "inf"],
                     "argument --xmax: must be a finite number", id="qsum-xmax-inf"),
        pytest.param(FINAL, ["qsum", "--xmin", "nan"],
                     "argument --xmin: must be a finite number", id="qsum-xmin-nan"),
        pytest.param(FINAL, ["qsum", "--tol", "nan"],
                     "argument --tol: must be a finite number", id="qsum-tol-nan"),
        pytest.param(FINAL, ["density", "--tol", "nan"],
                     "argument --tol: must be a finite number", id="density-tol-nan"),
        pytest.param(FINAL, ["qsum", "--level", "4", "--tol", "-1e-9"],
                     "argument --tol: must be nonnegative, got '-1e-9'", id="qsum-tol-negative"),
        pytest.param(FINAL, ["density", "--tol", "-0.1"],
                     "argument --tol: must be nonnegative, got '-0.1'",
                     id="density-tol-negative"),
        # EDGE_EXCLUDE = 2 bins dropped at each end leave no bin to judge uniformity by
        pytest.param(FINAL, ["density", "--level", "8", "--bins", "4"],
                     "--bins 4 leaves no interior bin", id="density-bins-4"),
        pytest.param(FINAL, ["density", "--bins", "1"],
                     "--bins 1 leaves no interior bin", id="density-bins-1"),
        # a sign prefix is no number: a leading '-' still needs --sigma=-+
        pytest.param(FINAL, ["spectrum", "--sigma", "-+"],
                     "argument --sigma: expected one argument", id="spectrum-sigma-leading-minus"),
        pytest.param(FINAL, ["ortho", "--seed", "3"],
                     "unrecognized arguments: --seed 3", id="ortho-seed"),
        pytest.param(FINAL, ["tiling", "--seed", "9"],
                     "unrecognized arguments: --seed 9", id="tiling-seed"),
        pytest.param(FINAL, ["certify", "-o", "x.csv"],
                     "unrecognized arguments: -o x.csv", id="certify-output"),
        pytest.param(FINAL, ["tiling", "-o", "x.csv"],
                     "unrecognized arguments: -o x.csv", id="tiling-output"),
        pytest.param(FINAL, ["certify", "--scan-levels", "3"],
                     "unrecognized arguments: --scan-levels 3", id="certify-scan-levels-3"),
        pytest.param(FINAL, ["qsum", "--depth", "-3"],
                     "--depth must be nonnegative", id="qsum-depth-minus-3"),
        # q = 2 * 3 * 4**68 points: refused before any is built
        pytest.param(MIXED, ["spectrum", "--level", "70"],
                     f"level 70 spectrum has {6 * 4**68} points", id="spectrum-level-70"),
        pytest.param(MIXED, ["qsum", "--level", "70"],
                     f"level 70 spectrum has {6 * 4**68} points", id="qsum-level-70"),
        # the same count of atoms: refused before any is built
        pytest.param(MIXED, ["density", "--level", "70"],
                     f"level 70 has {6 * 4**68} atoms, more than the density cap of {2**28}",
                     id="density-level-70"),
        # the 4-digit cycle steps never merge: 4**13 intervals at the 13th
        pytest.param(MIXED, ["tiling", "--level", "70"],
                     f"step of {4**13} intervals, more than the cover cap of {2**24}",
                     id="tiling-level-70"),
        pytest.param(FINITE, ["density", "--level", "5"],
                     "level 5 requested from a finite system of 2 levels",
                     id="density-past-end"),
        # the bin widths, centers and densities must be finite and nonzero floats
        pytest.param(HUGE_DIGIT, ["density", "--level", "2"],
                     "level 2 support hull [0, 1e+400] is out of the float range of 4096 bins",
                     id="density-hull-past-float-range"),
        pytest.param(EDGE_DIGIT, ["density", "--level", "2", "--bins", "8"],
                     "level 2 support hull [0, 1.5e+308] is out of the float range of 8 bins",
                     id="density-centers-past-float-range"),
        pytest.param(HUGE_SCALE, ["density", "--level", "1"],
                     "level 1 support hull [0, 1e-330] is out of the float range of 4096 bins",
                     id="density-width-rounds-to-0"),
        # the float transforms stop at 2**57 pi max(D)/p, which must be a positive float
        pytest.param("cycle: (1" + "0" * 400 + ",{0,1})\n",
                     ["qsum", "--level", "1", "--depth", "2", "--grid", "3"],
                     "the max digit ratio 1e-400 is out of the float range of the mask "
                     "product's stop", id="qsum-digit-ratio-rounds-to-0"),
        pytest.param(HUGE_DIGIT, ["qsum", "--level", "0", "--depth", "2"],
                     "the max digit ratio 5e+399 is out of the float range of the mask "
                     "product's stop", id="qsum-digit-ratio-past-float-range"),
        # the points are the payload: one past the int-to-str limit cannot be shortened
        pytest.param(LONG_SCALE, ["spectrum", "--level", "2"],
                     "level 2 spectrum points reach <6000 digits>, past Python's int-to-str "
                     "limit of 4300 digits", id="spectrum-points-past-digit-limit"),
        # sizes past the caps are refused before any array is allocated
        pytest.param(FINAL, ["density", "--bins", "100000000000"],
                     f"--bins 100000000000, more than the --bins cap of {2**20}",
                     id="density-bins-1e11"),
        pytest.param(FINAL, ["qsum", "--level", "2", "--grid", "100000000000"],
                     f"--grid must be between 1 and {2**20}",
                     id="qsum-grid-1e11"),
        # each end is finite, but the span is not: linspace would step by inf
        pytest.param(FINAL, ["qsum", "--level", "1", "--grid", "3",
                             "--xmin", "-1e308", "--xmax", "1e308"],
                     "--xmin -1e+308 to --xmax 1e+308 spans past the float range",
                     id="qsum-span-past-float-range"),
        pytest.param(FINAL, ["certify", "--seed", "0"],
                     "unrecognized arguments: --seed 0", id="certify-seed"),
        pytest.param(None, ["examples", "--seed", "0"],
                     "unrecognized arguments: --seed 0", id="examples-seed"),
        pytest.param(None, ["examples", "--name", "nope"],
                     "unknown example 'nope'; known: mixed_classes, nonuniform_density",
                     id="examples-unknown-name"),
    ])
    def test_bad_argument_values(self, system_file, capsys, text, argv, message):
        files = [] if text is None else [system_file(text)]
        assert main([argv[0], *files, *argv[1:]]) == 64
        out, err = capsys.readouterr()
        assert err.startswith("usage error: ") and message in err
        assert out == ""  # a rejected command prints no report line

    @pytest.mark.parametrize("text, argv", [
        pytest.param(LONG_SCALE, ["spectrum", "--level", "2"], id="spectrum"),
        pytest.param(HUGE_SCALE, ["density", "--level", "1"], id="density"),
    ])
    def test_refused_before_the_csv(self, system_file, tmp_path, capsys, text, argv):
        out_csv = tmp_path / "out.csv"
        assert main([argv[0], system_file(text), *argv[1:], "-o", str(out_csv)]) == 64
        assert capsys.readouterr().out == "" and not out_csv.exists()
