"""Negative controls and a smoke run of the benchmark.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from wvsim import cli  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return checks.load_reference()


def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def replace_field(text: str, row_start: str, column: str, value: str) -> str:
    """Copy of a CLI output with one field of the row starting `row_start`."""
    lines = text.splitlines()
    columns = next(line for line in lines if not line.startswith("#")).split(",")
    i = next(k for k, line in enumerate(lines) if line.startswith(row_start))
    fields = lines[i].split(",")
    fields[columns.index(column)] = value
    lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_reference_reduces_to_single_block_closed_form():
    alpha, beta, delta = 0.62, 2.53, 5.84
    mu, nu = math.cos(alpha) * math.cos(beta), math.sin(alpha) * math.sin(beta)
    g = math.exp(-0.5 / delta ** 2)
    p = mu * mu + nu * nu + 2 * mu * nu * g
    m = reference.moments(1, alpha, beta, delta)
    assert m.probability == pytest.approx(p, rel=1e-13)
    assert m.weak_value == pytest.approx((mu * mu - nu * nu) / p, rel=1e-12)


def test_corrupted_oracle_counts_as_failed(ref):
    after = [[argv, *call(argv)] for argv in workloads.after_loop("grid_oracle")]
    probabilities = checks.analytic_probabilities(after)
    for corrupt, failed in ((0.0, 0), (1e-3, 1)):
        tally = checks.Tally()
        rc, out = call(["oracle", "--preset", "a", "--corrupt-mu", repr(corrupt)])
        checks.check_oracle(tally, rc, out, ref, probabilities)
        assert (tally.attempted, tally.failed, tally.correct) == (1, failed, not failed)


def test_perturbed_sweep_point_counts_as_failed(ref):
    config = (7, 0.52, 3.09)
    rc, out = call(workloads.sweep_argv(*config))
    base = checks.Tally()
    checks.check_sweep(base, rc, out, ref)
    assert base.attempted == workloads.SWEEP_STEPS
    points = ref["sweep"][ref["sweep_configs"].index(list(config))]
    beta = max(points, key=lambda p: p["probability"])["beta"]
    row = next(r for r in checks.parse(out)[1] if float(r["beta"]) == beta)
    bad = replace_field(out, row["beta"] + ",", "weak_value",
                        repr(float(row["weak_value"]) + 1e-5))
    tally = checks.Tally()
    checks.check_sweep(tally, rc, bad, ref)
    assert tally.attempted == base.attempted
    assert tally.failed == base.failed + 1


def test_table_count_shifted_by_six_sigma_counts_as_failed(ref):
    rc, out = call(["table", "--seed", "7"])
    base = checks.Tally()
    checks.check_table(base, rc, out, ref)
    assert (base.attempted, base.failed) == (4, 0)
    row = next(r for r in checks.parse(out)[1] if r["label"] == "a")
    p, trials = ref["presets"]["a"]["probability"], int(row["trials"])
    sigma = math.sqrt(trials * p * (1 - p))
    z = base.diagnostics["z_accept"][0]
    shifted = int(row["accepted"]) + round(math.copysign(6 * sigma, z))
    tally = checks.Tally()
    checks.check_table(tally, rc, replace_field(out, "a,", "accepted", str(shifted)), ref)
    assert (tally.attempted, tally.failed, tally.correct) == (4, 1, False)


def run_bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_smoke_run_prints_every_end_to_end_metric_with_unit():
    spec = declared()
    lines = run_bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0")
    final = json.loads(lines[-1])
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            assert any(line.startswith(f"{w['name']} {m['name']} ") and line.endswith(f" {m['unit']}")
                       for line in lines), (w["name"], m["name"])
            assert final["metrics"][f"{w['name']}.{m['name']}"]["unit"] == m["unit"]
            assert final["metrics"][f"{w['name']}.{m['name']}"]["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    spec = declared()
    lines = run_bench("--workload", "beta_sweep", "--seed", "3", "--seconds", "1", "--trace", "1")
    metrics = json.loads(lines[-1])["metrics"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v["unit"] for k, v in metrics.items()}
    assert metrics["analytic.share"]["value"] == max(
        metrics[f"{layer}.share"]["value"] for layer in ("cli", "analytic", "grid", "montecarlo"))
