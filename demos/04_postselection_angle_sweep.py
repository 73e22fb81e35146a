"""Sweep the post-selection angle: where does the anomaly live?

Holding alpha = 0.62 and delta = 5.8 fixed at n = 7, the weak value and
the final pointer width trace out the trade-off: near beta = alpha the
reading is ordinary and the width stays near the initial beam width;
approaching the near-orthogonal region the weak value blows past the
spectrum while the pass probability collapses.
"""
import numpy as np

import wvsim

n, alpha, delta = 7, 0.62, 5.8
grid = np.round(np.arange(0.3, 3.01, 0.1), 10)
rows = wvsim.sweep_beta(n, alpha, delta, grid)

print(f"{'beta':>5} {'weak value':>11} {'final std':>10} {'P(pass)':>10}")
for point in rows:
    prob = " " * 10 if np.isnan(point.probability) else f"{point.probability:10.2e}"
    flag = "  <- anomalous" if abs(point.weak_value) > n else ""
    print(f"{point.beta:5.2f} {point.weak_value:11.3f} {point.std:10.3f} {prob}{flag}")

print()
anchor = min(rows, key=lambda r: abs(r.beta - 2.5))
print(f"near beta = 2.5: weak value {anchor.weak_value:.2f}, width {anchor.std:.2f}")
same = min(rows, key=lambda r: abs(r.beta - alpha))
print(f"near beta = alpha: weak value {same.weak_value:.2f}, "
      f"width {same.std:.2f} (initial width {delta})")
