import math
import pathlib
import re
import subprocess
import sys

import pytest

from wvsim import PRESETS, DetectorModel, GridSpec, analytic, cli, first_click, grid, montecarlo
from wvsim.cli import COMMAND_KEYS, build_parser, build_config, main, parse_config_file

from conftest import REFERENCE

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# Header lines each command adds after its settings.
EXTRAS = {
    "wv": (),
    "table": ("target_clicks",),
    "click": (),
    "sweep": ("beta_min", "beta_max", "steps"),
    "oracle": ("corrupt_mu",),
}


def run_cli(args):
    return main(list(args))


def exit_code(argv):
    """main's exit code, including the parser's usage errors."""
    try:
        return run_cli(argv)
    except SystemExit as exc:
        return exc.code


def argv_of(command, *flags):
    """A command line of `command`, with the positionals it needs."""
    positionals = ["0.5", "1.0", "2"] if command == "sweep" else []
    return [command, *positionals, *flags]


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

    def test_unknown_key(self, tmp_path, capsys):
        # No setting moves the grid's span (n + 8 delta): grid_half_span is
        # no key.
        cfg = tmp_path / "run.cfg"
        for line in ("gamma = 1", "grid_half_span = 60"):
            cfg.write_text(line + "\n")
            for command in COMMAND_KEYS:
                assert run_cli(argv_of(command, "--config", str(cfg))) == 1
                assert "unknown key" in capsys.readouterr().err

    def test_bad_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = seven\n")
        assert run_cli(["wv", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("command", list(COMMAND_KEYS))
    def test_one_file_with_every_key_runs_every_command(self, command, tmp_path):
        # A config file holds one shared key set; each command reads its
        # own keys and echoes exactly those, in table order, then its
        # extras.
        out = tmp_path / "out.csv"
        settings = {
            "n": "7", "alpha": "0.52", "beta": "0.88", "delta": "3.09", "grid_dx": "0.05",
            "pixel_pitch": "0.05", "trials": "10000000000000", "seed": "7",
        }
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()) + f"out = {out}\n")
        assert len(parse_config_file(str(cfg))) == len(cli._CONFIG_KEYS) == 9
        assert run_cli(argv_of(command, "--config", str(cfg))) == 0
        header = [line[2:].split(" = ") for line in out.read_text().splitlines()
                  if line.startswith("# ")]
        assert header[0] == ["command", command]
        keys = [key for key, _ in header[1:]]
        assert keys == [*COMMAND_KEYS[command], *EXTRAS[command]]
        for key, value in header[1:len(COMMAND_KEYS[command]) + 1]:
            assert value == settings[key]

    def test_unread_key_is_ignored(self, tmp_path):
        # wv reads no trials, so a trials value click would refuse is
        # neither checked nor echoed there.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 0\n")
        assert run_cli(["wv", "--config", str(cfg)]) == 0
        assert run_cli(["click", "--config", str(cfg)]) == 1


class TestConfigKeys:
    # For every (command, key) of COMMAND_KEYS, plus out for every command,
    # the flag and the file key share a type, and a value its type refuses
    # exits 1 by either route.
    GOOD = {int: "3", float: "0.25", str: "run.csv"}
    BAD = {int: ["x", "2.5"], float: ["x", ""], str: ["missing/x.csv"]}

    @pytest.mark.parametrize("key, kind", list(cli._CONFIG_KEYS.items()))
    def test_flag_and_file_share_the_type(self, key, kind, tmp_path, capsys):
        commands = [c for c, keys in COMMAND_KEYS.items() if key in keys + ("out",)]
        assert commands
        cfg = tmp_path / "run.cfg"
        for command in commands:
            cfg.write_text(f"{key} = {self.GOOD[kind]}\n")
            from_file = parse_config_file(str(cfg))[key]
            args = build_parser().parse_args(argv_of(command, f"--{key}", self.GOOD[kind]))
            from_flag = getattr(args, key)
            assert type(from_file) is type(from_flag) is kind
            assert from_file == from_flag == kind(self.GOOD[kind])
            for bad in self.BAD[kind]:
                if kind is str:
                    bad = str(tmp_path / bad)
                cfg.write_text(f"{key} = {bad}\n")
                assert run_cli(argv_of(command, "--config", str(cfg))) == 1
                assert exit_code(argv_of(command, f"--{key}", bad)) == 1
                err = capsys.readouterr().err
                assert err.count("error: ") == 2, (command, bad)
                assert "Traceback" not in err

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, keys in COMMAND_KEYS.items()
        for key in cli._CONFIG_KEYS if key not in keys + ("out",)
    ] + [("table", "preset"), ("table", "degrees")])
    def test_flag_of_another_command_is_refused(self, command, key, capsys):
        assert exit_code(argv_of(command, f"--{key}", "1")) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "unrecognized arguments" in err
        assert "Traceback" not in err


class TestFileErrors:
    @pytest.mark.parametrize("flag, name", [
        ("--config", "missing.cfg"),
        ("--config", "adir"),
        ("--config", "latin1.cfg"),
        ("--out", "missing/x.csv"),
        ("--out", "adir"),
    ])
    def test_refused_without_traceback(self, flag, name, tmp_path, capsys):
        (tmp_path / "adir").mkdir()
        (tmp_path / "latin1.cfg").write_bytes(b"n = 7\n# caf\xe9\n")
        path = str(tmp_path / name)
        assert run_cli(["wv", flag, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot ")
        assert path in err
        assert "Traceback" not in err


class TestConfigPrecedence:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 2.0\nseed = 9\n")
        args = build_parser().parse_args(["click", "--config", str(cfg), "--delta", "3.5"])
        values = build_config(args)
        assert values["delta"] == 3.5
        assert values["seed"] == 9

    def test_preset_overrides_file_params(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1.0\n")
        args = build_parser().parse_args(["wv", "--config", str(cfg), "--preset", "b"])
        values = build_config(args)
        assert values["alpha"] == 0.62
        assert values["delta"] == 3.18

    def test_degrees_converts_cli_angles(self):
        args = build_parser().parse_args(["wv", "--alpha", "90", "--beta", "45", "--degrees"])
        values = build_config(args)
        assert values["alpha"] == pytest.approx(math.pi / 2)
        assert values["beta"] == pytest.approx(math.pi / 4)

    def test_default_grid_spans_protocol(self):
        # Every grid is GridSpec.for_protocol at the library's default
        # spacing unless grid_dx is set; no setting moves its span, and the
        # pixel pitch default is the library's too.
        values = build_config(build_parser().parse_args(["click", "--preset", "a"]))
        assert "grid_half_span" not in values
        assert values["grid_dx"] == GridSpec.for_protocol(PRESETS["a"]).dx
        assert values["pixel_pitch"] == DetectorModel().pixel_pitch

    @pytest.mark.parametrize("command", list(COMMAND_KEYS))
    def test_returns_the_settings_the_command_reads(self, command):
        values = build_config(build_parser().parse_args(argv_of(command)))
        assert list(values) == [*COMMAND_KEYS[command], "out"]


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

    def test_angle_whose_double_overflows(self, capsys):
        # 2 alpha overflows a float; the expectation still comes out finite.
        assert run_cli(["wv", "--alpha", "1.7976931348623157e308", "--beta", "0.62",
                        "--delta", "3"]) == 0
        expectation = capsys.readouterr().out.splitlines()[-1].split(",")[-1]
        assert float(expectation) == pytest.approx(7 * 0.9999507580093402, rel=2.3e-16)

    @pytest.mark.parametrize("delta", ["1e160", "1e-200"])
    def test_width_outside_domain_is_refused(self, delta, capsys):
        # Outside the declared widths the width integrand overflows
        # (pointer_std = inf) or underflows: refused as invalid input.
        assert run_cli(["wv", "--preset", "a", "--delta", delta]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "delta must be in [1e-150, 1e+150]" in captured.err
        assert "Warning" not in captured.err


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

    def test_pixel_index_overflow_is_refused(self, capsys):
        # Clicks at ~20 give indices near 2e301, past what int64 holds.
        assert run_cli(["table", "--pixel_pitch", "1e-300"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not below 2**62; use a larger pixel_pitch" in captured.err


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

    @pytest.mark.parametrize("pitch", ["1e-300", "5e-324"])
    def test_pixel_index_overflow_is_refused(self, pitch, capsys):
        assert run_cli(["click", "--preset", "d", "--pixel_pitch", pitch]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not below 2**62; use a larger pixel_pitch" in captured.err
        assert "Warning" not in captured.err


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
        assert "beta_max must be finite, got inf" in err and "Warning" not in err

    @pytest.mark.parametrize("bounds, betas", [
        (["1.7976931348623157e308", "-1.7976931348623157e308", "3"],
         [1.7976931348623157e308, 0.0, -1.7976931348623157e308]),
        (["0", "1.7976931348623157e308", "4"],
         [0.0, 5.9923104495410527e307, 1.1984620899082105e308, 1.7976931348623157e308]),
    ])
    def test_span_past_the_float_range(self, bounds, betas, capsys):
        # np.linspace overflows over such a span, which escaped main as a
        # warning; the grid is laid out in quarters instead.
        assert run_cli(["sweep", "--", *bounds]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if line[0] != "#"]
        assert [float(row.split(",")[0]) for row in rows[1:]] == betas

    def test_oversized_sweep_is_refused(self, capsys):
        steps = cli.MAX_SWEEP_STEPS + 1
        assert run_cli(["sweep", "--n", "7", "0.3", "3.0", str(steps)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"over the {cli.MAX_SWEEP_STEPS}-step budget" in captured.err

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

    @pytest.mark.parametrize("corrupt", ["nan", "inf", "1e300"])
    def test_corruption_must_be_small_and_finite(self, corrupt, monkeypatch, capsys):
        # Unchecked, a NaN reads as nonzero amplitude in the truncation check
        # and inf or 1e300 overflow the state with numpy warnings; the check
        # runs before any grid work.
        def no_grid_work(*args):
            raise AssertionError("grid work before the corrupt_mu check")

        monkeypatch.setattr(cli, "initial_state", no_grid_work)
        assert run_cli(["oracle", "--preset", "a", f"--corrupt-mu={corrupt}"]) == 1
        err = capsys.readouterr().err
        assert "error: corrupt_mu must be finite" in err and "Warning" not in err

    def test_node_budget_refuses_before_sequential_work(self, monkeypatch, capsys):
        # Preset a at dx = 1e-6 has 107 million nodes, over the node budget:
        # the oracle must refuse it before spending time on the sequential
        # evolution.
        calls = []
        real = cli.evolve_sequential

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "evolve_sequential", counting)
        assert run_cli(["oracle", "--grid_dx", "1e-6"]) == 2
        assert f"over the {grid.MAX_GRID_NODES}-node budget" in capsys.readouterr().err
        assert calls == []

    def test_one_initial_gaussian_per_oracle(self, monkeypatch, capsys):
        # Both routes start from the one Gaussian the oracle builds.
        built = []
        real = grid.init_gaussian

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(grid, "init_gaussian", counting)
        assert run_cli(["oracle", "--preset", "a", "--grid_dx", "0.05"]) == 0
        assert len(built) == 1


class TestLatticeRule:
    # 1/dx within GridSpec's relative 1e-9 of an integer q: a pointer unit
    # is exactly q nodes, however far 1/dx itself sits from q.
    def test_oracle_on_near_integer_spacing(self, capsys):
        assert run_cli(["oracle", "--preset", "a", "--grid_dx", "0.0010000000001"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "verdict,,,PASS"
        assert captured.err == ""

    def test_click_on_near_integer_spacing(self, capsys):
        assert run_cli(["click", "--preset", "a", "--grid_dx", "0.0100000000005"]) == 0
        assert capsys.readouterr().err == ""


class TestUnderflowingGridState:
    # mu = cos(pi/2) ~ 6e-17 and nu = 0: the post-selected grid state's
    # squared norm underflows to zero, a failed post-selection.
    @pytest.mark.parametrize("argv", [
        ["click", "--n", "60", "--alpha", "0", "--beta", "1.5707963267948966", "--grid_dx", "0.5"],
        ["oracle", "--n", "12", "--alpha", "0", "--beta", "1.5707963267948966", "--grid_dx", "0.5"],
    ])
    def test_exit_2_with_an_error_line(self, argv, capsys):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: post-selected grid state underflows to zero norm\n"


class TestOversizedGrid:
    @pytest.mark.parametrize("argv", [
        ["click", "--delta", "1e12"],
        ["click", "--grid_dx", "1e-9"],
        ["table", "--grid_dx", "1e-8"],
        ["click", "--grid_dx", "1e-320"],
        ["click", "--delta", "1e150", "--grid_dx", "1e-200"],
    ])
    def test_refused_before_allocating(self, argv, capsys):
        # Grids of 1e10 to 1e15 nodes, and node counts past float range,
        # are refused from the node count before any node array exists.
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"over the {grid.MAX_GRID_NODES}-node budget" in captured.err
        assert "Traceback" not in captured.err


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

    def test_one_click_never_enters_the_vector_pass(self, monkeypatch):
        # One click takes its uniform from its own trial stream; the
        # vectorised Philox pass, with its fixed cost, serves runs only.
        def refuse(*args):
            raise AssertionError("one click entered the vectorised Philox pass")

        monkeypatch.setattr(montecarlo, "_first_uniforms", refuse)
        params = PRESETS["d"]
        spec = GridSpec.for_protocol(params, dx=0.05)
        assert first_click(9, 5000, params, spec, DetectorModel()) is not None
        assert run_cli(["click", "--preset", "d"]) == 0


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


class TestReadme:
    def test_key_table_matches_the_parser(self):
        # README's per-command table of settings and header extras is the
        # CLI's table: the docs cannot drift from the parser.
        section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1:-1] for line in section.splitlines()
                if line.startswith("| `")]
        table = {re.findall(r"`([^`]+)`", cells[0])[0]:
                 [tuple(re.findall(r"`([^`]+)`", cell)) for cell in cells[1:]]
                 for cells in rows}
        assert {c: keys for c, (keys, _) in table.items()} == COMMAND_KEYS
        assert {c: extras for c, (_, extras) in table.items()} == EXTRAS
