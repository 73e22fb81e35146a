"""Command-line front end.

Subcommands
-----------
wv      analytic weak value, pointer width and pass probability (one CSV row)
table   the four bundled presets a-d, analytic plus simulated columns
click   run trials until the first accepted click and judge its anomaly
sweep   weak value and pointer width over a post-selection angle grid
oracle  grid cross-check: sequential vs joint evolution vs closed forms

Each command reads the settings COMMAND_KEYS lists for it, and only
those: they are its flags, the values build_config resolves for it and
its header lines.  Every command takes --config (a flat `key = value`
file) and --out; --preset a|b|c|d loads a bundled parameter set where n
is read, and --degrees, where angles are read, converts angle values
supplied on the command line (config files stay radians).  Later
sources override earlier ones: defaults, config file, preset, flags.  A
config file may hold any key of any command; a command ignores the keys
it does not read.  Every output starts with a comment header echoing the
command, the settings it read and its own extras, so a rerun with the
same header inputs reproduces the file byte for byte.

Exit codes: 0 success, 1 invalid input, 2 numerical or physics error,
3 verification failure.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .analytic import ProtocolParams, conditional_moments, expectation_sigma_sum, sweep_beta
from .errors import InvalidParameterError, MemoryGuardError, ProtocolError
from .grid import DEFAULT_DX, GridSpec, evolve_joint, evolve_sequential, initial_state, moments
from .montecarlo import MAX_TRIALS, DetectorModel, anomaly_report, first_click, run_trials
from .presets import PRESETS

# Ensemble size target of the `table` command: trials per row are chosen
# so that roughly this many clicks survive post-selection.
TABLE_TARGET_CLICKS = 5000

# Refuse sweeps of more steps than this.  A sweep peaks at about 360 bytes
# per step (beta grid, kernel arrays, rows and output text; measured with
# tracemalloc at 1e5 and 4e5 steps, n = 7 and 30), so the budget caps it
# near 360 MB.
MAX_SWEEP_STEPS = 10 ** 6

# Configuration keys and their types: the keys a config file may hold and
# the flags of the same names.
_CONFIG_KEYS = {
    "n": int, "alpha": float, "beta": float, "delta": float,
    "grid_dx": float, "pixel_pitch": float, "trials": int, "seed": int, "out": str,
}

# The settings each command reads, in header order.  Every command also
# reads out, which is not echoed.
COMMAND_KEYS = {
    "wv": ("n", "alpha", "beta", "delta"),
    "table": ("grid_dx", "pixel_pitch", "seed"),
    "click": ("n", "alpha", "beta", "delta", "grid_dx", "pixel_pitch", "trials", "seed"),
    "sweep": ("n", "alpha", "delta"),
    "oracle": ("n", "alpha", "beta", "delta", "grid_dx"),
}

# Values of the settings that no config file, preset or flag sets: preset
# a's protocol, and the library's grid spacing and pixel pitch.
_DEFAULTS = {
    **vars(PRESETS["a"]),
    "grid_dx": DEFAULT_DX,
    "pixel_pitch": DetectorModel.pixel_pitch,
    "trials": 100_000_000,
    "seed": 101,
    "out": None,
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _file_error(action: str, path: str, exc: Exception) -> InvalidParameterError:
    reason = getattr(exc, "strerror", None) or exc
    return InvalidParameterError(f"cannot {action} {path}: {reason}")


def parse_config_file(path: str) -> dict:
    """Flat `key = value` lines; blank lines and '#' comments are skipped.
    An unreadable or non-UTF-8 file raises InvalidParameterError."""
    values: dict = {}
    try:
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
                    values[key] = _CONFIG_KEYS[key](raw)
                except ValueError as exc:
                    raise InvalidParameterError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise _file_error("read config file", path, exc) from exc
    return values


def build_config(args: argparse.Namespace) -> dict:
    """The settings args.command reads, plus out: defaults, config file,
    preset and flags, later sources overriding earlier ones."""
    keys = COMMAND_KEYS[args.command] + ("out",)
    values = dict(_DEFAULTS)
    if args.config:
        values.update(parse_config_file(args.config))
    if getattr(args, "preset", None):
        values.update(vars(PRESETS[args.preset]))
    degrees = math.pi / 180.0 if getattr(args, "degrees", False) else 1.0
    for key in keys:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag * degrees if key in ("alpha", "beta") else flag
    values = {key: values[key] for key in keys}
    if not (0 <= values.get("seed", 0) < 2 ** 64):
        raise InvalidParameterError("seed must fit in 64 unsigned bits")
    if not (1 <= values.get("trials", 1) <= MAX_TRIALS):
        raise InvalidParameterError("trials must be in [1, 2**63 - 2]")
    return values


def _protocol(values: dict) -> ProtocolParams:
    return ProtocolParams(n=values["n"], alpha=values["alpha"], beta=values["beta"],
                          delta=values["delta"])


def _header(command: str, values: dict, **extra) -> list[str]:
    """'#' lines: the command, the settings it read, then its extras."""
    settings = {key: values[key] for key in COMMAND_KEYS[command]}
    return [f"# command = {command}"] + [
        f"# {key} = {value!r}" for key, value in {**settings, **extra}.items()
    ]


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise _file_error("write", out_path, exc) from exc


def cmd_wv(values: dict) -> int:
    """One analytic CSV row for the configured parameters."""
    p = _protocol(values)
    m = conditional_moments(p)
    row = [
        p.alpha, p.beta, p.delta, p.n,
        m.mean, m.std, m.probability,
        expectation_sigma_sum(p.n, p.alpha),
    ]
    lines = _header("wv", values)
    lines.append("alpha,beta,delta,n,weak_value,pointer_std,probability,expectation")
    lines.append(",".join(_fmt(v) for v in row))
    _emit(lines, values["out"])
    return 0


def cmd_table(values: dict) -> int:
    """Analytic and simulated columns for the bundled presets a-d.

    Row i uses seed + i; trials per row are sized from the analytic pass
    probability to yield about TABLE_TARGET_CLICKS accepted clicks.
    """
    detector = DetectorModel(pixel_pitch=values["pixel_pitch"])
    lines = _header("table", values, target_clicks=TABLE_TARGET_CLICKS)
    lines.append(
        "label,n,alpha,beta,delta,weak_value,pointer_std,probability,expectation,"
        "trials,accepted,first_click_x,sim_mean,sim_std,sim_stderr"
    )
    for i, (label, params) in enumerate(sorted(PRESETS.items())):
        m = conditional_moments(params)
        count = max(1, math.ceil(TABLE_TARGET_CLICKS / m.probability))
        grid = GridSpec.for_protocol(params, dx=values["grid_dx"])
        summary = run_trials(values["seed"] + i, count, params, grid, detector)
        first = summary.first_click.position if summary.first_click else math.nan
        row = [
            label, params.n, params.alpha, params.beta, params.delta,
            m.mean, m.std, m.probability,
            expectation_sigma_sum(params.n, params.alpha),
            summary.trials, summary.accepted, first,
            summary.mean, summary.std, summary.stderr,
        ]
        lines.append(",".join(_fmt(v) for v in row))
    _emit(lines, values["out"])
    return 0


def cmd_click(values: dict) -> int:
    """First accepted click within the trials budget, with anomaly verdict."""
    p = _protocol(values)
    grid = GridSpec.for_protocol(p, dx=values["grid_dx"])
    detector = DetectorModel(pixel_pitch=values["pixel_pitch"])
    trials = values["trials"]
    result = first_click(values["seed"], trials, p, grid, detector)
    lines = _header("click", values)
    if result is None:
        lines.append("status,trials,click_x")
        lines.append(f"no_click,{trials},")
        _emit(lines, values["out"])
        print(f"error: no accepted click within {trials} trials", file=sys.stderr)
        return 2
    trial_index, outcome = result
    rep = anomaly_report(outcome, p)
    lines.append(
        "trial_index,click_x,raw_x,uncertainty,eigenvalue_bound,gap,anomalous,exceeds_uncertainty"
    )
    row = [
        trial_index, outcome.position, outcome.raw_position,
        rep.uncertainty, rep.eigenvalue_bound, rep.gap,
        rep.anomalous, rep.exceeds_uncertainty,
    ]
    lines.append(",".join(_fmt(v) for v in row))
    _emit(lines, values["out"])
    return 0


def cmd_sweep(values: dict, beta_min: float, beta_max: float, steps: int) -> int:
    """Weak value, pointer width and probability over a beta grid."""
    if steps < 2:
        raise InvalidParameterError(f"steps must be >= 2, got {steps}")
    if steps > MAX_SWEEP_STEPS:
        raise MemoryGuardError(
            f"sweep of {steps} steps, over the {MAX_SWEEP_STEPS}-step budget; reduce the steps"
        )
    for name, bound in (("beta_min", beta_min), ("beta_max", beta_max)):
        if not math.isfinite(bound):
            raise InvalidParameterError(f"{name} must be finite, got {bound}")
    lines = _header("sweep", values, beta_min=beta_min, beta_max=beta_max, steps=steps)
    lines.append("beta,weak_value,pointer_std,probability,initial_width")
    width = _fmt(values["delta"])
    if math.isfinite(2.0 * (beta_max - beta_min)):
        betas = np.linspace(beta_min, beta_max, steps)
    else:  # a span past half the float range, laid out in exact quarters
        betas = 4.0 * np.linspace(beta_min / 4.0, beta_max / 4.0, steps)
    for beta, wv, std, prob in sweep_beta(values["n"], values["alpha"], values["delta"], betas):
        if math.isnan(prob):  # orthogonal post-selection
            lines.append(f"{beta:.17g},,,,{width}")
        else:
            lines.append(f"{beta:.17g},{wv:.17g},{std:.17g},{prob:.17g},{width}")
    _emit(lines, values["out"])
    return 0


def cmd_oracle(values: dict, corrupt_mu: float = 0.0) -> int:
    """Cross-check the grid oracle against the closed forms.

    corrupt_mu deliberately perturbs the sequential evolution and must
    make the check fail; it exists as a negative control.  It must be
    finite with |corrupt_mu| <= 1: with |mu|, |nu| <= 1 each block then
    grows the state at most threefold, far from overflow at MAX_BLOCKS.
    """
    if not (math.isfinite(corrupt_mu) and abs(corrupt_mu) <= 1.0):
        raise InvalidParameterError(
            f"corrupt_mu must be finite with magnitude at most 1, got {corrupt_mu}")
    p = _protocol(values)
    grid = GridSpec.for_protocol(p, dx=values["grid_dx"])
    # Both routes start from one initial Gaussian.  initial_state runs the
    # routes' guard first, so a grid over the node budget is refused before
    # any node array exists.
    initial = initial_state(p, grid)
    joint, p_joint = evolve_joint(p, grid, initial=initial)
    seq, p_seq = evolve_sequential(p, grid, mu_offset=corrupt_mu, initial=initial)
    mean_seq, std_seq = moments(seq)
    m = conditional_moments(p)
    # The difference goes into the joint state, which nothing reads after.
    diff = np.subtract(seq.amplitudes, joint.amplitudes, out=joint.amplitudes)
    l2 = math.sqrt(float(np.sum(np.square(diff, out=diff))) * grid.dx)
    checks = [
        ("l2_sequential_vs_joint", l2, 1e-9),
        ("probability_sequential_vs_joint", abs(p_seq - p_joint), 1e-9),
        ("mean_grid_vs_analytic", abs(mean_seq - m.mean), 1e-6),
        ("std_grid_vs_analytic", abs(std_seq - m.std), 1e-6),
        ("probability_grid_vs_analytic", abs(p_seq - m.probability), 1e-9),
    ]
    lines = _header("oracle", values, corrupt_mu=corrupt_mu)
    lines.append("check,value,limit,status")
    all_ok = True
    for name, value, limit in checks:
        ok = value < limit
        all_ok = all_ok and ok
        lines.append(f"{name},{_fmt(value)},{_fmt(limit)},{'PASS' if ok else 'FAIL'}")
    lines.append(f"verdict,,,{'PASS' if all_ok else 'FAIL'}")
    _emit(lines, values["out"])
    return 0 if all_ok else 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, per the exit-code contract
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  COMMAND_KEYS
    gives each command its setting flags."""
    parser = _Parser(prog="wvsim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "wv": "analytic weak value row",
        "table": "bundled presets a-d, analytic + simulated",
        "click": "first accepted click and anomaly verdict",
        "sweep": "beta sweep table",
        "oracle": "grid oracle cross-check",
    }
    for command, keys in COMMAND_KEYS.items():
        cmd = sub.add_parser(command, help=helps[command])
        cmd.add_argument("--config", help="flat key = value configuration file")
        if "n" in keys:
            cmd.add_argument("--preset", choices=sorted(PRESETS), help="bundled parameter set")
        if "alpha" in keys:
            cmd.add_argument("--degrees", action="store_true",
                             help="angle values on the command line are degrees")
        for key in keys:
            cmd.add_argument(f"--{key}", type=_CONFIG_KEYS[key])
        cmd.add_argument("--out", help="output file path")
    sweep = sub.choices["sweep"]
    sweep.add_argument("beta_min", type=float)
    sweep.add_argument("beta_max", type=float)
    sweep.add_argument("steps", type=int)
    sub.choices["oracle"].add_argument(
        "--corrupt-mu", type=float, default=0.0, dest="corrupt_mu",
        help="negative control: perturb the coupling and expect FAIL")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        values = build_config(args)
        if args.command == "wv":
            return cmd_wv(values)
        if args.command == "table":
            return cmd_table(values)
        if args.command == "click":
            return cmd_click(values)
        if args.command == "sweep":
            degrees = math.pi / 180.0 if args.degrees else 1.0
            return cmd_sweep(values, args.beta_min * degrees, args.beta_max * degrees, args.steps)
        if args.command == "oracle":
            return cmd_oracle(values, corrupt_mu=args.corrupt_mu)
        raise InvalidParameterError(f"unknown command {args.command!r}")
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
