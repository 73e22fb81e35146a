"""Output checks: each CLI output is parsed and judged against the
high-precision reference, the program's own arithmetic contracts and,
for simulated columns, the statistics of the Monte Carlo.

Every checked unit is one operation: a table row, a click, a sweep point
or an oracle check of one preset (plus one pooled residual per click
run).  An operation fails on any problem.  Problems come in two kinds:

* ``accuracy``: a closed-form value off its high-precision reference by
  more than the documented 1e-6, or a point the closed form left empty.
  The floating-point double sum cancels (ROADMAP item 2), so these are
  expected, measured failures at the baseline and are counted, not excused;
* ``error``: anything else (a bad exit code, a missing row, broken
  arithmetic between columns, a statistical residual beyond Z_LIMIT).
  A run is ``correct`` only if no operation had an error.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import reference
import workloads

TOLERANCE = 1e-6   # documented closed-form accuracy: relative for P, absolute otherwise
Z_LIMIT = 5.0      # a statistical check fails beyond this many standard errors
EXACT = 1e-9       # arithmetic between printed columns

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "reference.json")


def load_reference(path: str = DATA) -> dict:
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    expected = [list(c) for c in workloads.SWEEP_CONFIGS]
    if ref["sweep_configs"] != expected or ref["sweep_steps"] != workloads.SWEEP_STEPS:
        raise ValueError(f"{path} is stale: regenerate it with bench/make_reference.py")
    return ref


def parse(text: str) -> tuple[dict, list[dict]]:
    """(header key -> value, data rows as column -> text) of a CLI output."""
    header, rows, columns = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            header[key] = value
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(dict(zip(columns, line.split(","))))
    return header, rows


def load_records(path: str) -> tuple[list, list]:
    """(commands as [argv, exit code, ns, stdout, start ns], probes as
    [start ns, ms]) from a worker's records file."""
    records, probes = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            kind, *fields = json.loads(line)
            (records if kind == "cmd" else probes).append(fields)
    return records, probes


def data_rows(text: str) -> int:
    return len(parse(text)[1])


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: int = 0
    accuracy: int = 0
    problems: list[str] = field(default_factory=list)
    diagnostics: dict[str, list[float]] = field(default_factory=dict)

    def op(self, label: str, accuracy=(), errors=()) -> None:
        """Count one operation with its problems (lists of messages)."""
        self.attempted += 1
        accuracy, errors = list(accuracy), list(errors)
        if accuracy or errors:
            self.failed += 1
            self.accuracy += bool(accuracy)
            self.errors += bool(errors)
            if len(self.problems) < 20:
                self.problems.append(f"{label}: " + "; ".join(errors + accuracy))

    def note(self, key: str, value: float) -> None:
        self.diagnostics.setdefault(key, []).append(value)

    @property
    def correct(self) -> bool:
        return self.errors == 0


def _num(text: str) -> float:
    return float(text) if text != "" else math.nan


def _off(value: float, ref: float, limit: float) -> bool:
    return not abs(value - ref) <= limit   # NaN counts as off


def _analytic(row: dict, ref: dict) -> list[str]:
    bad = []
    if _off(_num(row["weak_value"]), ref["weak_value"], TOLERANCE):
        bad.append(f"weak_value {row['weak_value']} vs {ref['weak_value']!r}")
    if _off(_num(row["pointer_std"]), ref["width"], TOLERANCE):
        bad.append(f"pointer_std {row['pointer_std']} vs {ref['width']!r}")
    if _off(_num(row["probability"]) / ref["probability"], 1.0, TOLERANCE):
        bad.append(f"probability {row['probability']} vs {ref['probability']!r}")
    return bad


def check_table(tally: Tally, rc: int, text: str, ref: dict) -> None:
    """Analytic columns against the reference; acceptance count, mean and
    std of the simulated columns against the reference distribution."""
    header, rows = parse(text)
    by_label = {row.get("label"): row for row in rows}
    pitch = float(header.get("pixel_pitch", "nan"))
    for label in workloads.PRESET_LABELS:
        row, r = by_label.get(label), ref["presets"][label]
        if rc != 0 or row is None:
            tally.op(f"table {label}", errors=[f"exit code {rc}, row missing"])
            continue
        errors = []
        if _off(_num(row["expectation"]), r["expectation"], EXACT):
            errors.append(f"expectation {row['expectation']}")
        trials, accepted = int(row["trials"]), int(row["accepted"])
        p = r["probability"]
        z_accept = (accepted - trials * p) / math.sqrt(trials * p * (1 - p))
        # Pixel centres add pitch^2 / 12 to the variance (Sheppard).
        var = r["width"] ** 2 + pitch ** 2 / 12
        z_mean = (_num(row["sim_mean"]) - r["weak_value"]) / _num(row["sim_stderr"])
        se_std = math.sqrt((r["mu4"] - r["width"] ** 4) / accepted) / (2 * math.sqrt(var))
        z_std = (_num(row["sim_std"]) - math.sqrt(var)) / se_std
        for key, z in (("z_accept", z_accept), ("z_mean", z_mean), ("z_std", z_std)):
            tally.note(key, z)
            if not abs(z) <= Z_LIMIT:
                errors.append(f"{key} {z:.2f}")
        tally.op(f"table seed {header.get('seed')} {label}", _analytic(row, r), errors)


def check_clicks(tally: Tally, records: list) -> None:
    """Each click's columns against each other and its setting's reference
    width, then one pooled standardized residual of all raw positions."""
    residuals = []
    for argv, rc, _, text, _ in records:
        header, rows = parse(text)
        if rc != 0 or len(rows) != 1:
            tally.op(f"click {argv}", errors=[f"exit code {rc}, {len(rows)} rows"])
            continue
        row, n, pitch = rows[0], int(header["n"]), float(header["pixel_pitch"])
        r = reference.moments(n, float(header["alpha"]), float(header["beta"]), float(header["delta"]))
        x, raw, gap = _num(row["click_x"]), _num(row["raw_x"]), _num(row["gap"])
        errors = []
        if _off(x, round(raw / pitch) * pitch, EXACT):
            errors.append(f"click_x {x} is not the pixel centre of raw_x {raw}")
        if _off(gap, x - n, EXACT):
            errors.append(f"gap {gap} != click_x - n")
        if row["eigenvalue_bound"] != str(n):
            errors.append(f"eigenvalue_bound {row['eigenvalue_bound']}")
        uncertainty = _num(row["uncertainty"])
        if row["anomalous"] != str(gap > 0).lower() or \
                row["exceeds_uncertainty"] != str(gap > uncertainty).lower():
            errors.append("anomaly verdict does not follow from gap and uncertainty")
        accuracy = []
        if _off(uncertainty, r.width, TOLERANCE):
            accuracy.append(f"uncertainty {row['uncertainty']} vs {r.width!r}")
        tally.op(f"click seed {header['seed']} beta {header['beta']}", accuracy, errors)
        residuals.append((raw - r.weak_value) / r.width)
    if residuals:
        z = sum(residuals) / math.sqrt(len(residuals))
        tally.note("z_pooled_clicks", z)
        tally.op("pooled click residual",
                 errors=[f"pooled z {z:.2f}"] if not abs(z) <= Z_LIMIT else [])


def check_sweep(tally: Tally, rc: int, text: str, ref: dict) -> None:
    """Every sweep point against the committed reference."""
    header, rows = parse(text)
    key = [int(header.get("n", -1)), float(header.get("alpha", "nan")),
           float(header.get("delta", "nan"))]
    if key not in ref["sweep_configs"]:
        tally.op(f"sweep {key}", errors=[f"exit code {rc}, no reference for this sweep"])
        return
    points = ref["sweep"][ref["sweep_configs"].index(key)]
    label = f"sweep n={key[0]} alpha={key[1]}"
    if rc != 0 or len(rows) != len(points):
        for _ in points:
            tally.op(label, errors=[f"exit code {rc}, {len(rows)} of {len(points)} rows"])
        return
    empty = failed = 0
    for row, point in zip(rows, points):
        errors = []
        if _off(float(row["beta"]), point["beta"], EXACT):
            errors.append(f"beta {row['beta']} vs {point['beta']!r}")
        if row["weak_value"] == "":
            empty += 1
            accuracy = ["empty"]
        else:
            accuracy = _analytic(row, point)
        failed += bool(accuracy or errors)
        tally.op(f"{label} beta={row['beta']}", accuracy, errors)
    tally.note(f"{label} failed points", failed)
    tally.note(f"{label} empty points", empty)


ORACLE_CHECKS = (
    "l2_sequential_vs_joint", "probability_sequential_vs_joint", "mean_grid_vs_analytic",
    "std_grid_vs_analytic", "probability_grid_vs_analytic",
)


def check_oracle(tally: Tally, rc: int, text: str, ref: dict, analytic_probability: dict) -> None:
    """Exit code, PASS lines and the grid probability against the reference.

    The oracle prints |P_grid - P_analytic|; with the program's own P_analytic
    (from `wv`) that bounds |P_grid - P_ref| / P_ref from above."""
    header, rows = parse(text)
    label = _preset_of(header, ref)
    checks = {row["check"]: row for row in rows}
    errors = [] if rc == 0 else [f"exit code {rc}"]
    for name in ORACLE_CHECKS + ("verdict",):
        if checks.get(name, {}).get("status") != "PASS":
            errors.append(f"{name} not PASS")
    if label is None:
        errors.append("parameters match no preset")
    elif "probability_grid_vs_analytic" in checks:
        p_ref = ref["presets"][label]["probability"]
        diff = _num(checks["probability_grid_vs_analytic"]["value"])
        bound = (diff + abs(analytic_probability.get(label, math.nan) - p_ref)) / p_ref
        tally.note("grid_probability_rel_error_bound", bound)
        if not bound <= TOLERANCE:
            errors.append(f"grid probability relative error up to {bound:.2e}")
    tally.op(f"oracle preset {label}", errors=errors)


def analytic_probabilities(after: list) -> dict:
    """Preset label -> the probability the program's `wv` command prints."""
    out = {}
    for argv, rc, text in after:
        _, rows = parse(text)
        if rc == 0 and rows:
            out[argv[argv.index("--preset") + 1]] = float(rows[0]["probability"])
    return out


def _preset_of(header: dict, ref: dict):
    for label, r in ref["presets"].items():
        if [int(header.get("n", -1)), float(header.get("alpha", "nan")),
                float(header.get("beta", "nan")), float(header.get("delta", "nan"))] == r["params"]:
            return label
    return None


def check_run(tally: Tally, name: str, records: list, after: list, ref: dict) -> None:
    """Check every output of one run of workload `name` into `tally`."""
    if name == "click_scan":
        check_clicks(tally, records)
        return
    probabilities = analytic_probabilities(after)
    for _, rc, _, text, _ in records:
        if name == "mc_table":
            check_table(tally, rc, text, ref)
        elif name == "beta_sweep":
            check_sweep(tally, rc, text, ref)
        elif name == "grid_oracle":
            check_oracle(tally, rc, text, ref, probabilities)
