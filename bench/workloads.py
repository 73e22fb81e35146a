"""The four benchmark workloads: the CLI argument lists each one sends.

Every workload is a closed loop: one caller sends its next command only
after the previous one has returned.  Commands come in cycles; a timed
run stops at the first cycle boundary after its time is up, so the mix of
commands in a run does not depend on where the clock ran out.  All inputs
derive from the workload seed; the program sees only the argument lists.
"""
from __future__ import annotations

import itertools
import random

NAMES = ("mc_table", "click_scan", "beta_sweep", "grid_oracle")

PRESET_LABELS = ("a", "b", "c", "d")

# beta_sweep: post-selection sweeps over a fixed grid, at three block counts
# (n = 30 lies inside the declared domain n <= 60) and the alpha and delta
# of presets a and d.  The grid is fixed so its reference can be committed.
SWEEP_RANGE = (0.3, 3.0)
SWEEP_STEPS = 200
SWEEP_BLOCKS = (7, 12, 30)
SWEEP_ANGLES = ((0.62, 5.84), (0.52, 3.09))  # (alpha, delta) of presets a and d
SWEEP_CONFIGS = tuple((n, alpha, delta) for n in SWEEP_BLOCKS for alpha, delta in SWEEP_ANGLES)

# click_scan: one first-click search per setting, drawn around preset a.
CLICK_N = 7
CLICK_ALPHA = 0.62
CLICK_BETA = (2.3, 2.8)
CLICK_DELTA = (3.0, 6.0)
CLICK_TRIALS = 10 ** 13

ORACLE_DX = "0.001"

# Cycles run by one traced (or untraced reference) pass: a fixed amount of
# work, so counts and busy times of two commits compare directly.
TRACE_CYCLES = {"mc_table": 4, "click_scan": 100, "beta_sweep": 1, "grid_oracle": 1}


def sweep_argv(n: int, alpha: float, delta: float) -> list[str]:
    lo, hi = SWEEP_RANGE
    return ["sweep", "--n", str(n), "--alpha", repr(alpha), "--delta", repr(delta),
            repr(lo), repr(hi), str(SWEEP_STEPS)]


def warmup(name: str, seed: int) -> list[str]:
    """The declared warm-up: the call a fresh process makes before timing.

    For mc_table it is a full table call, which fills the sampler cache
    that the timed calls then hit."""
    if name == "mc_table":
        return ["table", "--seed", str(random.Random(seed).randrange(2 ** 32))]
    if name == "click_scan":
        return _click_argv(random.Random(f"warmup-{seed}"))
    if name == "beta_sweep":
        return ["sweep", "--n", "7", "0.3", "3.0", "2"]
    if name == "grid_oracle":
        return ["oracle", "--preset", "a"]
    raise ValueError(f"unknown workload {name!r}")


def cycles(name: str, seed: int):
    """Endless iterator of command cycles (lists of argument lists)."""
    rng = random.Random(seed)
    if name == "mc_table":
        # Row i of a table uses seed + i, so successive calls step by 4.
        base = rng.randrange(2 ** 32) + len(PRESET_LABELS)
        return ([["table", "--seed", str(base + len(PRESET_LABELS) * j)]]
                for j in itertools.count())
    if name == "click_scan":
        return ([_click_argv(rng)] for _ in itertools.count())
    if name == "beta_sweep":
        return ([sweep_argv(*c) for c in rng.sample(SWEEP_CONFIGS, len(SWEEP_CONFIGS))]
                for _ in itertools.count())
    if name == "grid_oracle":
        return ([["oracle", "--preset", p, "--grid_dx", ORACLE_DX]
                 for p in rng.sample(PRESET_LABELS, len(PRESET_LABELS))]
                for _ in itertools.count())
    raise ValueError(f"unknown workload {name!r}")


def after_loop(name: str) -> list[list[str]]:
    """Untimed calls whose output the checks need: the program's own
    analytic probability, to bound the oracle's grid probability error."""
    if name == "grid_oracle":
        return [["wv", "--preset", p] for p in PRESET_LABELS]
    return []


def _click_argv(rng: random.Random) -> list[str]:
    beta = rng.uniform(*CLICK_BETA)
    delta = rng.uniform(*CLICK_DELTA)
    return ["click", "--n", str(CLICK_N), "--alpha", repr(CLICK_ALPHA), "--beta", repr(beta),
            "--delta", repr(delta), "--trials", str(CLICK_TRIALS),
            "--seed", str(rng.randrange(2 ** 32))]
