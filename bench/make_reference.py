"""Regenerate bench/data/reference.json, the high-precision reference.

    python3 bench/make_reference.py

Computes the post-selection probability, weak value, pointer width and
central fourth moment of presets a-d and of every fixed beta_sweep point
with mpmath at reference.DIGITS digits, and checks each value against a
second evaluation at twice the digits.  The sweep grid is rebuilt with
numpy.linspace exactly as the program's `sweep` command builds it.
"""
from __future__ import annotations

import json
import math

import numpy as np

import checks
import reference
import workloads

# The presets of the program, restated here so the reference does not
# depend on the code it checks.
PRESETS = {
    "a": (7, 0.62, 2.53, 5.84),
    "b": (7, 0.62, 2.53, 3.18),
    "c": (7, 0.52, 2.62, 2.96),
    "d": (7, 0.52, 0.88, 3.09),
}


def checked_moments(n, alpha, beta, delta) -> reference.Moments:
    m = reference.moments(n, alpha, beta, delta)
    twice = reference.moments(n, alpha, beta, delta, digits=2 * reference.DIGITS)
    for a, b in zip(m, twice):
        if not abs(a - b) <= 1e-15 * abs(b):
            raise ArithmeticError(f"reference not converged at {(n, alpha, beta, delta)}")
    return m


def main() -> None:
    presets = {}
    for label, (n, alpha, beta, delta) in PRESETS.items():
        m = checked_moments(n, alpha, beta, delta)
        presets[label] = dict(params=[n, alpha, beta, delta], expectation=n * math.cos(2.0 * alpha),
                              **m._asdict())
    lo, hi = workloads.SWEEP_RANGE
    sweep = []
    for n, alpha, delta in workloads.SWEEP_CONFIGS:
        points = []
        for beta in np.linspace(lo, hi, workloads.SWEEP_STEPS):
            m = checked_moments(n, alpha, float(beta), delta)
            points.append(dict(beta=float(beta), probability=m.probability,
                               weak_value=m.weak_value, width=m.width))
        sweep.append(points)
    out = dict(
        digits=reference.DIGITS,
        presets=presets,
        sweep_range=list(workloads.SWEEP_RANGE),
        sweep_steps=workloads.SWEEP_STEPS,
        sweep_configs=[list(c) for c in workloads.SWEEP_CONFIGS],
        sweep=sweep,
    )
    with open(checks.DATA, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
