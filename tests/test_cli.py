import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from eitcool.cli import main, make_parser, read_config


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

    @pytest.mark.parametrize("out", [None, "p.csv", "p.svg"],
                             ids=["stdout", "csv", "svg"])
    @pytest.mark.parametrize("command", [
        ("point",),
        ("sweep", "--vary", "omega_g", "--grid", "2,4"),
    ], ids=["point", "sweep"])
    def test_all_estimators_failing_gives_exit_2(self, capsys, tmp_path, command, out):
        # the exit code does not depend on the command or the output format
        argv = [*command, "--eta-g", "0", "--eta-r", "0",
                "--estimators", "numeric_full", "--n-max", "4"]
        if out:
            argv += ["--format", out[-3:], "--out", str(tmp_path / out)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "numerical failure" in err

    @pytest.mark.parametrize("fmt", ["json", "svg"])
    def test_format_without_out(self, capsys, tmp_path, fmt):
        # json prints the document --out would write; svg needs a file
        argv = ["point", "--estimators", "eq1", "--format", fmt]
        code, out, err = run_cli(capsys, *argv)
        if fmt == "svg":
            assert (code, out) == (1, "")
            assert "--out" in err
        else:
            assert code == 0
            path = tmp_path / "p.json"
            run_cli(capsys, *argv, "--out", str(path))
            assert out == path.read_text()
            assert json.loads(out)["rows"][0]["nbar"]["eq1"] > 0

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


@pytest.mark.parametrize("argv", [
    ("point",),
    ("sweep", "--vary", "gamma_g", "--grid", "2,5"),
])
def test_cutoff_below_two_gives_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--n-max", "1")
    assert code == 1
    assert "phonon cutoff must be >= 2" in err
    assert out == ""


class TestSweepCommand:
    @pytest.mark.parametrize("fmt", [None, "json", "svg"],
                             ids=["default", "json", "svg"])
    def test_stdout_csv(self, capsys, tmp_path, fmt):
        # without --out: CSV by default, the JSON document --out would
        # write for json, and exit 1 for svg
        argv = ["sweep", "--vary", "gamma_g", "--grid", "2,5,10",
                "--omega-g", "15", "--omega-r", "15",
                "--estimators", "eq1,eq15", "--n-max", "4"]
        if fmt:
            argv += ["--format", fmt]
        code, out, err = run_cli(capsys, *argv)
        if fmt is None:
            assert code == 0
            lines = out.strip().splitlines()
            assert lines[0].startswith("vary,value,")
            assert len(lines) == 4
        elif fmt == "json":
            assert code == 0
            path = tmp_path / "sweep.json"
            run_cli(capsys, *argv, "--out", str(path))
            assert out == path.read_text()
            assert len(json.loads(out)["rows"]) == 3
        else:
            assert (code, out) == (1, "")
            assert "--out" in err

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


    def test_closed_pipe_exits_141_without_traceback(self):
        # as in `eitcool sweep ... | head -c 60`: the output is far larger than
        # a pipe holds, so the sweep is still writing when the reader leaves
        grid = ",".join(str(2.0 + 0.001 * i) for i in range(3000))
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "eitcool.cli", "sweep", "--vary", "omega_g",
             "--grid", grid, "--estimators", "eq1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path),
        )
        head = proc.stdout.read(60)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert head.startswith(b"vary,value,")
        assert (proc.returncode, err) == (141, b"")


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

    @pytest.mark.parametrize("line, message", [
        ("hamiltonian = foo", "invalid choice: 'foo'"),
        ("omega_q = 3", "--omega-q=3"),
        ("delta = 5", "--delta=5"),
        ("config = other.cfg", "cannot name another one"),
    ])
    def test_bad_key_or_value_gives_exit_1(self, capsys, tmp_path, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"estimators = numeric_full\nn_max = 4\n{line}\n")
        code, out, err = run_cli(capsys, "point", "--config", str(cfg))
        assert code == 1
        assert message in err
        assert out == ""

    def test_negative_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta_override = -5\nestimators = eq1\n")
        code, out, _ = run_cli(capsys, "point", "--config", str(cfg))
        assert code == 0
        assert "delta = -5 (resonance condition overridden)" in out

    def test_required_flag_from_file_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "fig3.cfg"
        out_path = tmp_path / "panel.csv"
        cfg.write_text(f"panel = a\nestimators = eq1\nn_max = 4\nout = {out_path}\n")
        code, _, _ = run_cli(capsys, "fig3", "--config", str(cfg))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 10 and lines[1].startswith("omega_g,")
        code, _, _ = run_cli(capsys, "fig3", "--config", str(cfg), "--panel", "f")
        assert code == 0
        assert out_path.read_text().splitlines()[1].startswith("gamma_g,")

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


def readme_commands() -> list[list[str]]:
    """Arguments of every `eitcool ...` command in README.md's code blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```\w*\n(.*?)^```", text, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            tokens = shlex.split(line, comments=True)
            if tokens[:1] == ["eitcool"]:
                commands.append(tokens[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 5
    for argv in commands:
        make_parser().parse_args(argv)
