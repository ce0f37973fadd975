import json

import pytest

from eitcool.cli import main, read_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoint:
    def test_equal_drive_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "point", "--omega-g", "15", "--omega-r", "15",
            "--n-max", "6", "--estimators", "eq1,eq15,eq17",
        )
        assert code == 0
        assert "1.8850308642e-02" in out  # eq17 at the benchmark point
        assert "delta = 112.5" in out

    def test_delta_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "point", "--omega-g", "15", "--omega-r", "15",
            "--estimators", "eq1", "--delta-override", "100",
        )
        assert code == 0
        assert "delta = 100" in out

    def test_all_estimators_failing_gives_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "point", "--eta-g", "0", "--eta-r", "0",
            "--estimators", "numeric_full", "--n-max", "4",
        )
        assert code == 2
        assert "numerical failure" in err

    def test_bad_configuration_gives_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "point", "--omega-g", "-3")
        assert code == 1
        assert "configuration error" in err

    @pytest.mark.parametrize("names", ["eq99", "eq1,eq99"])
    def test_unknown_estimator_gives_exit_1(self, capsys, names):
        code, out, err = run_cli(capsys, "point", "--estimators", names)
        assert code == 1
        assert "unknown estimator 'eq99'" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("--omega-g", "nan"),
        ("--omega-g", "nan", "--estimators", "eq1"),
        ("--omega-r", "inf", "--estimators", "eq1"),
        ("--delta-override", "nan", "--estimators", "eq1"),
    ])
    def test_non_finite_input_gives_exit_1(self, capsys, argv):
        code, out, err = run_cli(capsys, "point", *argv)
        assert code == 1
        assert "must be finite" in err
        assert out == ""

    def test_unknown_flag_gives_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "point", "--frobnicate", "1")
        assert code == 1


class TestSweepCommand:
    def test_stdout_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--vary", "gamma_g", "--grid", "2,5,10",
            "--omega-g", "15", "--omega-r", "15",
            "--estimators", "eq1,eq15", "--n-max", "4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("vary,value,")
        assert len(lines) == 4

    def test_missing_grid_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--vary", "gamma_g")
        assert code == 1

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        code, _, _ = run_cli(
            capsys, "sweep", "--vary", "eta_g", "--grid", "0.1,0.2",
            "--omega-g", "15", "--omega-r", "15",
            "--estimators", "eq15", "--format", "json",
            "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["rows"]) == 2


class TestConfigFile:
    def test_file_values_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# benchmark-ish point\n"
            "omega_g = 10\n"
            "omega_r = 10\n"
            "estimators = eq1\n"
        )
        code, out, _ = run_cli(capsys, "point", "--config", str(cfg))
        assert code == 0
        assert "delta = 50" in out
        # flag wins over the file
        code, out, _ = run_cli(
            capsys, "point", "--config", str(cfg), "--omega-g", "15", "--omega-r", "15"
        )
        assert code == 0
        assert "delta = 112.5" in out

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("omega_g 10\n")
        with pytest.raises(Exception):
            read_config(str(cfg))

    def test_missing_file_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "point", "--config", "/nonexistent.cfg")
        assert code == 1


class TestFig3Command:
    def test_panel_with_formula_estimators(self, capsys, tmp_path):
        out_path = tmp_path / "panel_f.csv"
        code, _, _ = run_cli(
            capsys, "fig3", "--panel", "f", "--estimators", "eq1,eq15",
            "--n-max", "4", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 10  # header plus nine grid points

    def test_unknown_panel(self, capsys):
        code, _, _ = run_cli(capsys, "fig3", "--panel", "q")
        assert code == 1


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "selftest passed" in out
        assert "FAIL" not in out
