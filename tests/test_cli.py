import re

import pytest

from moranspec.cli import main, parse_sigma

FINAL = "cycle: (2,{0,1}) (3,{0,1,2})\n"
ALTERNATING = "cycle: (9,{0,1,2}) (4,{0,2})\n"
PURE_T3 = "preamble: (4,{0,2})\ncycle: (4,{0,1})\n"
NONUNIFORM = "preamble: (2,{0,1,2}) (2,{0,5,6})\ncycle: (2,{0,3})\n"
FINITE = "preamble: (4,{0,2}) (12,{0,1,2})\n"
# level-6 spectrum points reach about P_6 = 8.6e9, far beyond P_1 = 36
LARGE_POINTS = "cycle: (36,{0,31}) (57,{0,1,20})\n"
# P_400 = 8**400 is far past the largest float
T1_CYCLE = "cycle: (8,{0,1,2,3})\n"


@pytest.fixture
def system_file(tmp_path):
    def write(text, name="system.moran"):
        path = tmp_path / name
        path.write_text(text)
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


class TestHadamardCommand:
    def test_levels_printed(self, system_file, capsys):
        assert main(["hadamard", system_file(FINAL)]) == 0
        out = capsys.readouterr().out
        assert "L={0,1}" in out and "L={0,1,-1}" in out

    def test_invalid_level_reported(self, system_file, capsys):
        assert main(["hadamard", system_file(NONUNIFORM)]) == 0
        assert "not admissible" in capsys.readouterr().out


class TestCertifyCommand:
    def test_pass_exit_zero(self, system_file, capsys):
        assert main(["certify", system_file(ALTERNATING)]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out and "seed: 0" in out

    def test_pure_t3_exit_zero(self, system_file):
        assert main(["certify", system_file(PURE_T3)]) == 0

    def test_conditions_failed_exit_two(self, system_file, capsys):
        assert main(["certify", system_file(NONUNIFORM)]) == 2
        assert "CONDITIONS_FAILED" in capsys.readouterr().out

    def test_inconclusive_exit_three(self, system_file, capsys):
        assert main(["certify", system_file(FINAL)]) == 3
        assert "INCONCLUSIVE" in capsys.readouterr().out

    def test_deterministic_output(self, system_file, capsys):
        path = system_file(ALTERNATING)
        main(["certify", path, "--seed", "3"])
        first = capsys.readouterr().out
        main(["certify", path, "--seed", "3"])
        assert capsys.readouterr().out == first

    def test_depth_past_float_range(self, system_file, capsys):
        path = system_file(T1_CYCLE)
        assert main(["certify", path, "--depth", "400"]) == 0
        deep = capsys.readouterr().out
        assert main(["certify", path]) == 0
        assert deep == capsys.readouterr().out.replace("depth=30", "depth=400")


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
        assert main(["tiling", system_file(FINAL), "--level", "8",
                     "--samples", "2000"]) == 0
        assert "tiling by integer translates" in capsys.readouterr().out


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

    @pytest.mark.parametrize("text, argv, message", [
        pytest.param(FINITE, ["certify"], "infinite system", id="certify-finite"),
        pytest.param(FINAL, ["density", "--level", "0"], "at least 1",
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
    ])
    def test_bad_argument_values(self, system_file, capsys, text, argv, message):
        assert main([argv[0], system_file(text), *argv[1:]]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err
