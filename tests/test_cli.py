import math
import subprocess
import sys

import pytest

from wvsim import analytic, cli
from wvsim.cli import build_parser, build_config, main, parse_config_file

from conftest import REFERENCE


def run_cli(args):
    return main(list(args))


def read_rows(path):
    """Data rows of an output file: skip '#' header lines, return the CSV
    column-name list and the list of row field-lists."""
    lines = path.read_text().splitlines()
    data = [line for line in lines if not line.startswith("#")]
    header = data[0].split(",")
    return header, [line.split(",") for line in data[1:]]


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "n = 7\n"
            "alpha = 0.62\n"
            "beta = 2.53\n"
            "\n"
            "delta = 5.84\n"
            "trials = 1000\n"
            "seed = 5\n"
        )
        values = parse_config_file(str(cfg))
        assert values == {
            "n": 7, "alpha": 0.62, "beta": 2.53, "delta": 5.84, "trials": 1000, "seed": 5,
        }

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 1\n")
        assert run_cli(["wv", "--config", str(cfg)]) == 1

    def test_bad_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = seven\n")
        assert run_cli(["wv", "--config", str(cfg)]) == 1


class TestConfigPrecedence:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 2.0\nseed = 9\n")
        args = build_parser().parse_args(["wv", "--config", str(cfg), "--delta", "3.5"])
        config = build_config(args)
        assert config.params.delta == 3.5
        assert config.seed == 9

    def test_preset_overrides_file_params(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1.0\n")
        args = build_parser().parse_args(["wv", "--config", str(cfg), "--preset", "b"])
        config = build_config(args)
        assert config.params.alpha == 0.62
        assert config.params.delta == 3.18

    def test_degrees_converts_cli_angles(self):
        args = build_parser().parse_args(["wv", "--alpha", "90", "--beta", "45", "--degrees"])
        config = build_config(args)
        assert config.params.alpha == pytest.approx(math.pi / 2)
        assert config.params.beta == pytest.approx(math.pi / 4)

    def test_default_grid_spans_protocol(self):
        args = build_parser().parse_args(["wv", "--preset", "a"])
        config = build_config(args)
        assert config.grid.half_span >= 7 + 8 * 5.84 - 1e-9


class TestWvCommand:
    def test_reference_row(self, tmp_path):
        out = tmp_path / "wv.csv"
        assert run_cli(["wv", "--preset", "a", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        row = dict(zip(header, rows[0]))
        assert float(row["weak_value"]) == pytest.approx(18.7, abs=0.05)
        assert float(row["pointer_std"]) == pytest.approx(4.5, abs=0.05)
        assert float(row["expectation"]) == pytest.approx(2.27, abs=0.01)

    def test_orthogonal_postselection_exit_code(self):
        # alpha = pi/2 with beta = 0: both coupling weights vanish.
        assert run_cli(["wv", "--alpha", "1.5707963267948966", "--beta", "0"]) == 2

    def test_invalid_input_exit_code(self):
        assert run_cli(["wv", "--n", "0"]) == 1
        assert run_cli(["wv", "--delta", "-1"]) == 1
        assert run_cli(["click", "--preset", "d", "--trials", str(2**63)]) == 1


class TestTableCommand:
    def test_reference_columns_and_simulation(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run_cli(["table", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert [r[0] for r in rows] == ["a", "b", "c", "d"]
        for fields in rows:
            row = dict(zip(header, fields))
            wv_ref, std_ref = REFERENCE[row["label"]]
            assert float(row["weak_value"]) == pytest.approx(wv_ref, abs=0.05)
            assert float(row["pointer_std"]) == pytest.approx(std_ref, abs=0.05)
            assert abs(float(row["sim_mean"]) - float(row["weak_value"])) < 3 * float(
                row["sim_stderr"]
            )


class TestClickCommand:
    def test_quick_click(self, tmp_path):
        out = tmp_path / "click.csv"
        assert run_cli(["click", "--preset", "d", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        row = dict(zip(header, rows[0]))
        assert row["anomalous"] in ("true", "false")
        assert float(row["uncertainty"]) == pytest.approx(3.6, abs=0.05)

    def test_no_click_within_budget(self, tmp_path):
        out = tmp_path / "click.csv"
        code = run_cli(["click", "--preset", "a", "--trials", "10", "--out", str(out)])
        assert code == 2
        assert "no_click" in out.read_text()

    def test_trivial_single_block(self, tmp_path):
        out = tmp_path / "click.csv"
        assert run_cli([
            "click", "--n", "1", "--alpha", "0", "--beta", "0", "--delta", "1",
            "--out", str(out),
        ]) == 0
        header, rows = read_rows(out)
        row = dict(zip(header, rows[0]))
        assert abs(float(row["click_x"]) - 1.0) < 5.0  # within a few widths of +1


class TestSweepCommand:
    def test_anchor_point(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli([
            "sweep", "2.43", "2.63", "3", "--preset", "a", "--delta", "5.8",
            "--out", str(out),
        ]) == 0
        header, rows = read_rows(out)
        row = dict(zip(header, rows[1]))
        assert float(row["beta"]) == pytest.approx(2.53, abs=1e-12)
        assert float(row["weak_value"]) == pytest.approx(18.7, abs=0.1)
        assert float(row["pointer_std"]) == pytest.approx(4.5, abs=0.1)
        assert float(row["initial_width"]) == 5.8

    def test_two_step_degenerate_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "0.5", "1.0", "2", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 2

    def test_rejects_single_step(self):
        assert run_cli(["sweep", "0.5", "1.0", "1"]) == 1

    def test_rejects_infinite_bound_before_building_grid(self, capsys):
        # np.linspace(0.3, inf, 5) warns "invalid value"; under the suite's
        # warnings-as-errors that escaped main as an exception.
        assert run_cli(["sweep", "0.3", "inf", "5"]) == 1
        err = capsys.readouterr().err
        assert "must be finite" in err and "Warning" not in err

    def test_orthogonal_points_become_empty_fields(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli([
            "sweep", "0", "1", "2", "--alpha", "1.5707963267948966", "--out", str(out),
        ]) == 0
        _, rows = read_rows(out)
        assert rows[0][1] == "" and rows[0][2] == "" and rows[0][3] == ""
        assert rows[1][1] != ""

    def test_uncertainty_near_width_away_from_anomaly(self, tmp_path):
        # At beta = alpha the final width stays close to the initial width.
        out = tmp_path / "sweep.csv"
        assert run_cli([
            "sweep", "0.62", "0.62", "2", "--preset", "a", "--delta", "5.8",
            "--out", str(out),
        ]) == 0
        _, rows = read_rows(out)
        wv = float(rows[0][1])
        std = float(rows[0][2])
        assert abs(wv) <= 7  # ordinary reading inside the spectrum
        assert abs(std - 5.8) / 5.8 < 0.2


class TestOracleCommand:
    def test_toy_config_passes(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = run_cli([
            "oracle", "--n", "2", "--alpha", "0.3", "--beta", "0.9", "--delta", "1.5",
            "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().splitlines()[-1].endswith("PASS")

    def test_corrupted_coupling_fails(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = run_cli([
            "oracle", "--n", "2", "--alpha", "0.3", "--beta", "0.9", "--delta", "1.5",
            "--corrupt-mu", "1e-3", "--out", str(out),
        ])
        assert code == 3
        assert out.read_text().splitlines()[-1].endswith("FAIL")

    def test_joint_budget_refuses_before_sequential_work(self, monkeypatch, capsys):
        # n = 13 at dx = 0.001 touches 8192 x 119441 joint entries, over the
        # budget: the oracle must refuse it before spending time on the
        # sequential evolution.
        calls = []
        real = cli.evolve_sequential

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "evolve_sequential", counting)
        assert run_cli(["oracle", "--n", "13", "--grid_dx", "0.001"]) == 2
        assert "budget" in capsys.readouterr().err
        assert calls == []


class TestKernelCalls:
    @pytest.mark.parametrize("argv, rows", [
        (["wv", "--preset", "a"], 1),
        (["sweep", "2.4", "2.6", "5", "--preset", "a"], 1),
        (["table"], 4),
        (["click", "--preset", "d"], 1),
        (["oracle", "--n", "2", "--alpha", "0.3", "--beta", "0.9", "--delta", "1.5"], 1),
    ])
    def test_one_double_sum_per_row(self, monkeypatch, capsys, argv, rows):
        # Every output row evaluates the closed-form moment integrals once;
        # a sweep evaluates all its rows in one call.
        calls = []
        real = analytic._moment_integrals

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(analytic, "_moment_integrals", counting)
        assert run_cli(argv) == 0
        assert len(calls) == rows


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wvsim.cli", "wv", "--preset", "d"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "weak_value" in proc.stdout

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wvsim.cli", "wv", "--bogus"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
