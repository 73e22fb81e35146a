"""Command-line front end.

Subcommands
-----------
wv      analytic weak value, pointer width and pass probability (one CSV row)
table   the four bundled presets a-d, analytic plus simulated columns
click   run trials until the first accepted click and judge its anomaly
sweep   weak value and pointer width over a post-selection angle grid
oracle  grid cross-check: sequential vs joint evolution vs closed forms

Configuration is a flat `key = value` file (keys: n, alpha, beta, delta,
grid_dx, grid_half_span, pixel_pitch, trials, seed, out); command-line
flags with the same names override file values, and --preset a|b|c|d
loads a bundled parameter set.  Angles are radians unless --degrees is
given, which converts angle values supplied on the command line (config
files stay radians).  Every output starts with a comment header echoing
the resolved configuration, so a rerun with the same header inputs
reproduces the file byte for byte.

Exit codes: 0 success, 1 invalid input, 2 numerical or physics error,
3 verification failure.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .analytic import ProtocolParams, conditional_moments, expectation_sigma_sum, sweep_beta
from .errors import InvalidParameterError, ProtocolError
from .grid import GridSpec, evolve_joint, evolve_sequential, moments
from .montecarlo import MAX_TRIALS, DetectorModel, anomaly_report, first_click, run_trials
from .presets import PRESETS

DEFAULT_SEED = 101
DEFAULT_TRIALS = 100_000_000
DEFAULT_DX = 0.01
DEFAULT_PIXEL_PITCH = 0.1

# Ensemble size target of the `table` command: trials per row are chosen
# so that roughly this many clicks survive post-selection.
TABLE_TARGET_CLICKS = 5000

_CONFIG_KEYS = (
    "n", "alpha", "beta", "delta",
    "grid_dx", "grid_half_span", "pixel_pitch", "trials", "seed", "out",
)
_INT_KEYS = {"n", "trials", "seed"}


@dataclass
class ExperimentConfig:
    params: ProtocolParams
    grid: GridSpec
    detector: DetectorModel
    trials: int
    seed: int
    output_path: str | None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def parse_config_file(path: str) -> dict:
    """Flat `key = value` lines; blank lines and '#' comments are skipped."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise InvalidParameterError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in _CONFIG_KEYS:
                raise InvalidParameterError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                if key == "out":
                    values[key] = raw
                elif key in _INT_KEYS:
                    values[key] = int(raw)
                else:
                    values[key] = float(raw)
            except ValueError as exc:
                raise InvalidParameterError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from exc
    return values


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Resolve defaults, config file, preset and flags, in that order."""
    preset = PRESETS[args.preset] if args.preset else PRESETS["a"]
    values = {
        "n": preset.n,
        "alpha": preset.alpha,
        "beta": preset.beta,
        "delta": preset.delta,
        "grid_dx": DEFAULT_DX,
        "grid_half_span": None,
        "pixel_pitch": DEFAULT_PIXEL_PITCH,
        "trials": DEFAULT_TRIALS,
        "seed": DEFAULT_SEED,
        "out": None,
    }
    if args.config:
        values.update(parse_config_file(args.config))
    if args.preset:
        p = PRESETS[args.preset]
        values.update(n=p.n, alpha=p.alpha, beta=p.beta, delta=p.delta)
    degrees = math.pi / 180.0 if getattr(args, "degrees", False) else 1.0
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag * degrees if key in ("alpha", "beta") else flag
    if not (0 <= values["seed"] < 2 ** 64):
        raise InvalidParameterError("seed must fit in 64 unsigned bits")
    if not (1 <= values["trials"] <= MAX_TRIALS):
        raise InvalidParameterError("trials must be in [1, 2**63 - 2]")
    params = ProtocolParams(
        n=int(values["n"]), alpha=values["alpha"], beta=values["beta"], delta=values["delta"]
    )
    if values["grid_half_span"] is None:
        grid = GridSpec.for_protocol(params, dx=values["grid_dx"])
    else:
        grid = GridSpec(dx=values["grid_dx"], half_span=values["grid_half_span"])
    detector = DetectorModel(pixel_pitch=values["pixel_pitch"])
    return ExperimentConfig(
        params=params,
        grid=grid,
        detector=detector,
        trials=int(values["trials"]),
        seed=int(values["seed"]),
        output_path=values["out"],
    )


def _header(command: str, config: ExperimentConfig, extra: dict | None = None) -> list[str]:
    p, g, d = config.params, config.grid, config.detector
    pairs = [
        ("command", command),
        ("n", p.n),
        ("alpha", repr(p.alpha)),
        ("beta", repr(p.beta)),
        ("delta", repr(p.delta)),
        ("grid_dx", repr(g.dx)),
        ("grid_half_span", repr(g.half_span)),
        ("pixel_pitch", repr(d.pixel_pitch)),
        ("trials", config.trials),
        ("seed", config.seed),
    ]
    if extra:
        pairs.extend(extra.items())
    return [f"# {key} = {value}" for key, value in pairs]


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_wv(config: ExperimentConfig) -> int:
    """One analytic CSV row for the configured parameters."""
    p = config.params
    m = conditional_moments(p)
    row = [
        p.alpha, p.beta, p.delta, p.n,
        m.mean, m.std, m.probability,
        expectation_sigma_sum(p.n, p.alpha),
    ]
    lines = _header("wv", config)
    lines.append("alpha,beta,delta,n,weak_value,pointer_std,probability,expectation")
    lines.append(",".join(_fmt(v) for v in row))
    _emit(lines, config.output_path)
    return 0


def cmd_table(config: ExperimentConfig) -> int:
    """Analytic and simulated columns for the bundled presets a-d.

    Row i uses seed + i; trials per row are sized from the analytic pass
    probability to yield about TABLE_TARGET_CLICKS accepted clicks.
    """
    lines = _header("table", config, extra={"target_clicks": TABLE_TARGET_CLICKS})
    lines.append(
        "label,n,alpha,beta,delta,weak_value,pointer_std,probability,expectation,"
        "trials,accepted,first_click_x,sim_mean,sim_std,sim_stderr"
    )
    for i, (label, params) in enumerate(sorted(PRESETS.items())):
        m = conditional_moments(params)
        count = max(1, math.ceil(TABLE_TARGET_CLICKS / m.probability))
        grid = GridSpec.for_protocol(params, dx=config.grid.dx)
        summary = run_trials(config.seed + i, count, params, grid, config.detector)
        first = summary.first_click.position if summary.first_click else math.nan
        row = [
            label, params.n, params.alpha, params.beta, params.delta,
            m.mean, m.std, m.probability,
            expectation_sigma_sum(params.n, params.alpha),
            summary.trials, summary.accepted, first,
            summary.mean, summary.std, summary.stderr,
        ]
        lines.append(",".join(_fmt(v) for v in row))
    _emit(lines, config.output_path)
    return 0


def cmd_click(config: ExperimentConfig) -> int:
    """First accepted click within the trials budget, with anomaly verdict."""
    result = first_click(config.seed, config.trials, config.params, config.grid, config.detector)
    lines = _header("click", config)
    if result is None:
        lines.append("status,trials,click_x")
        lines.append(f"no_click,{config.trials},")
        _emit(lines, config.output_path)
        print(
            f"error: no accepted click within {config.trials} trials", file=sys.stderr
        )
        return 2
    trial_index, outcome = result
    lines.extend(_single_click_report(config, trial_index, outcome))
    _emit(lines, config.output_path)
    return 0


def _single_click_report(config: ExperimentConfig, trial_index: int, outcome) -> list[str]:
    rep = anomaly_report(outcome, config.params)
    header = (
        "trial_index,click_x,raw_x,uncertainty,eigenvalue_bound,gap,anomalous,exceeds_uncertainty"
    )
    row = [
        trial_index, outcome.position, outcome.raw_position,
        rep.uncertainty, rep.eigenvalue_bound, rep.gap,
        rep.anomalous, rep.exceeds_uncertainty,
    ]
    return [header, ",".join(_fmt(v) for v in row)]


def cmd_sweep(config: ExperimentConfig, beta_min: float, beta_max: float, steps: int) -> int:
    """Weak value, pointer width and probability over a beta grid."""
    if steps < 2:
        raise InvalidParameterError(f"steps must be >= 2, got {steps}")
    if not (math.isfinite(beta_min) and math.isfinite(beta_max)):
        raise InvalidParameterError("alpha and beta must be finite")
    p = config.params
    lines = _header(
        "sweep", config,
        extra={"beta_min": repr(beta_min), "beta_max": repr(beta_max), "steps": steps},
    )
    lines.append("beta,weak_value,pointer_std,probability,initial_width")
    width = _fmt(p.delta)
    betas = np.linspace(beta_min, beta_max, steps)
    for beta, wv, std, prob in sweep_beta(p.n, p.alpha, p.delta, betas):
        if math.isnan(prob):  # orthogonal post-selection
            lines.append(f"{beta:.17g},,,,{width}")
        else:
            lines.append(f"{beta:.17g},{wv:.17g},{std:.17g},{prob:.17g},{width}")
    _emit(lines, config.output_path)
    return 0


def cmd_oracle(config: ExperimentConfig, corrupt_mu: float = 0.0) -> int:
    """Cross-check the grid oracle against the closed forms.

    corrupt_mu deliberately perturbs the sequential evolution and must
    make the check fail; it exists as a negative control.
    """
    p, grid = config.params, config.grid
    # The joint route runs first: its work budget refuses an oversized
    # evolution before the sequential evolution does any work.
    joint, p_joint = evolve_joint(p, grid)
    seq, p_seq = evolve_sequential(p, grid, mu_offset=corrupt_mu)
    mean_seq, std_seq = moments(seq)
    m = conditional_moments(p)
    l2 = math.sqrt(
        float(np.sum(np.abs(seq.amplitudes - joint.amplitudes) ** 2)) * grid.dx
    )
    checks = [
        ("l2_sequential_vs_joint", l2, 1e-9),
        ("probability_sequential_vs_joint", abs(p_seq - p_joint), 1e-9),
        ("mean_grid_vs_analytic", abs(mean_seq - m.mean), 1e-6),
        ("std_grid_vs_analytic", abs(std_seq - m.std), 1e-6),
        ("probability_grid_vs_analytic", abs(p_seq - m.probability), 1e-9),
    ]
    lines = _header("oracle", config, extra={"corrupt_mu": repr(corrupt_mu)})
    lines.append("check,value,limit,status")
    all_ok = True
    for name, value, limit in checks:
        ok = value < limit
        all_ok = all_ok and ok
        lines.append(f"{name},{_fmt(value)},{_fmt(limit)},{'PASS' if ok else 'FAIL'}")
    lines.append(f"verdict,,,{'PASS' if all_ok else 'FAIL'}")
    _emit(lines, config.output_path)
    return 0 if all_ok else 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, per the exit-code contract
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value configuration file")
    common.add_argument("--preset", choices=sorted(PRESETS), help="bundled parameter set")
    common.add_argument("--degrees", action="store_true",
                        help="angle values on the command line are degrees")
    common.add_argument("--n", type=int)
    common.add_argument("--alpha", type=float)
    common.add_argument("--beta", type=float)
    common.add_argument("--delta", type=float)
    common.add_argument("--grid_dx", type=float)
    common.add_argument("--grid_half_span", type=float)
    common.add_argument("--pixel_pitch", type=float)
    common.add_argument("--trials", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="output file path")

    parser = _Parser(prog="wvsim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("wv", parents=[common], help="analytic weak value row")
    sub.add_parser("table", parents=[common], help="bundled presets a-d, analytic + simulated")
    sub.add_parser("click", parents=[common], help="first accepted click and anomaly verdict")
    sweep = sub.add_parser("sweep", parents=[common], help="beta sweep table")
    sweep.add_argument("beta_min", type=float)
    sweep.add_argument("beta_max", type=float)
    sweep.add_argument("steps", type=int)
    oracle = sub.add_parser("oracle", parents=[common], help="grid oracle cross-check")
    oracle.add_argument("--corrupt-mu", type=float, default=0.0, dest="corrupt_mu",
                        help="negative control: perturb the coupling and expect FAIL")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args)
        if args.command == "wv":
            return cmd_wv(config)
        if args.command == "table":
            return cmd_table(config)
        if args.command == "click":
            return cmd_click(config)
        if args.command == "sweep":
            degrees = math.pi / 180.0 if args.degrees else 1.0
            return cmd_sweep(config, args.beta_min * degrees, args.beta_max * degrees, args.steps)
        if args.command == "oracle":
            return cmd_oracle(config, corrupt_mu=args.corrupt_mu)
        raise InvalidParameterError(f"unknown command {args.command!r}")
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
