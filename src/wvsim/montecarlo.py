"""Monte Carlo emulation of the single-photon experiment.

Each trial is one photon: it either fails a post-selection somewhere in
the chain (absorbed, no click) or survives all n blocks and produces one
click at a position drawn from the final conditional pointer density.

Sampling design
---------------
The final density |sum_k a_k chi_k|^2 is a coherent superposition with
cross terms and sign changes, not a probability mixture, so positions
are drawn by inverse-CDF lookup on the grid oracle's density (linear
interpolation inside a cell) rather than by picking a component Gaussian.

Acceptance is a Bernoulli thinning with the post-selection probability,
which for strongly anomalous settings is tiny (~1e-7): collecting 1e5
clicks means ~1e11 trials.  Rather than looping over every trial, the
indices of accepted trials are generated directly as a geometric-gap
walk, which has exactly the law of independent per-trial coin flips.
Each accepted trial then draws its click position from its own stream,
the counter-based Philox4x64-10 generator with key = master seed and
counter = trial index (`trial_rng`), so results are reproducible trial
by trial and independent of execution order.  Because a Philox output
block is a pure function of (key, counter), `run_trials` computes the
first uniform of every accepted trial in one vectorised numpy pass
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11)
instead of building one generator per click.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .analytic import ProtocolParams, conditional_moments
from .errors import InvalidParameterError, MemoryGuardError
from .grid import GridSpec, cdf, evolve_sequential

# spawn_key tag of the acceptance gap walk.
_ACCEPT_STREAM = 0

_GAP_BATCH = 32768

# Largest trial count: indices and Philox counters stay inside int64, and a
# geometric gap saturated at 2**63 - 1 (numpy, p below ~1e-19) lies past it.
MAX_TRIALS = 2 ** 63 - 2

# Refuse runs expecting more accepted clicks than this.  A run peaks at
# about 120 bytes of index, Philox and position arrays per accepted click
# (measured with tracemalloc), so the budget caps it near 1.2 GB.
MAX_EXPECTED_CLICKS = 10 ** 7

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11),
# as in numpy's Philox.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


@dataclass(frozen=True)
class DetectorModel:
    """Pixelated readout: reported positions are pixel centers."""

    pixel_pitch: float = 0.1
    origin: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.pixel_pitch) and self.pixel_pitch > 0):
            raise InvalidParameterError(f"pixel_pitch must be positive, got {self.pixel_pitch}")

    def pixel_index(self, x):
        return np.rint((np.asarray(x) - self.origin) / self.pixel_pitch).astype(int)

    def pixel_center(self, x):
        return self.origin + self.pixel_index(x) * self.pixel_pitch


@dataclass(frozen=True)
class ClickOutcome:
    """One trial: either absorbed, or a click with its pixelated position
    (and the continuous pre-pixelation sample kept for diagnostics)."""

    kind: str
    position: float | None = None
    raw_position: float | None = None

    def __post_init__(self):
        if self.kind not in ("absorbed", "click"):
            raise InvalidParameterError(f"unknown outcome kind {self.kind!r}")
        if self.kind == "click" and (self.position is None or self.raw_position is None):
            raise InvalidParameterError("click outcomes carry both positions")
        if self.kind == "absorbed" and self.position is not None:
            raise InvalidParameterError("absorbed outcomes carry no position")

    @classmethod
    def absorbed(cls) -> "ClickOutcome":
        return cls(kind="absorbed")

    @classmethod
    def click(cls, raw_position: float, position: float) -> "ClickOutcome":
        return cls(kind="click", position=position, raw_position=raw_position)


@dataclass(frozen=True)
class RunSummary:
    """Aggregate of a trial batch; statistics cover accepted clicks only."""

    trials: int
    accepted: int
    first_click: ClickOutcome | None
    mean: float
    std: float
    stderr: float
    histogram: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class _ConditionalSampler:
    """Precomputed inverse-CDF sampler for the final conditional density."""

    probability: float
    positions: np.ndarray = field(repr=False)
    cdf: np.ndarray = field(repr=False)

    def draw(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0, 1) to positions, linear inside each cell."""
        c = self.cdf
        idx = np.clip(np.searchsorted(c, u), 1, c.size - 1)
        lo = c[idx - 1]
        hi = c[idx]
        frac = np.clip((u - lo) / np.where(hi > lo, hi - lo, 1.0), 0.0, 1.0)
        dx = self.positions[1] - self.positions[0]
        return self.positions[idx - 1] + frac * dx


@lru_cache(maxsize=16)
def _conditional_sampler(params: ProtocolParams, spec: GridSpec) -> _ConditionalSampler:
    wf, probability = evolve_sequential(params, spec)
    return _ConditionalSampler(probability=probability, positions=spec.positions(), cdf=cdf(wf))


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Position stream of one trial: Philox4x64-10 with key = master seed
    (below 2**128) and counter = trial index."""
    return np.random.Generator(np.random.Philox(key=seed, counter=trial_index))


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit limbs."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    x_hi, x_lo = x >> _SHIFT32, x & _MASK32
    lo_lo = m_lo * x_lo
    mid = m_hi * x_lo + (lo_lo >> _SHIFT32)
    mid2 = m_lo * x_hi + (mid & _MASK32)
    hi = m_hi * x_hi + (mid >> _SHIFT32) + (mid2 >> _SHIFT32)
    return hi, np.uint64(m) * x


def _first_uniforms(seed: int, indices: np.ndarray) -> np.ndarray:
    """trial_rng(seed, i).random() for every i in `indices`, in one pass.

    The generator's first output block is Philox4x64-10 at counter i + 1;
    random() takes word 0 of it as (x >> 11) * 2**-53."""
    k0, k1 = seed & 0xFFFFFFFFFFFFFFFF, seed >> 64
    c0 = indices.astype(np.uint64) + np.uint64(1)
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFFFFFFFFFF
            k1 = (k1 + _PHILOX_W[1]) & 0xFFFFFFFFFFFFFFFF
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
    return (c0 >> np.uint64(11)) * 2.0 ** -53


def _check_run(seed: int, trials: int, name: str) -> None:
    if not 1 <= trials <= MAX_TRIALS:
        raise InvalidParameterError(f"{name} must be in [1, 2**63 - 2], got {trials}")
    if not 0 <= seed < 2 ** 128:
        raise InvalidParameterError(f"seed must be in [0, 2**128), got {seed}")


def _gap_batches(seed: int, probability: float, size: int = _GAP_BATCH):
    """The acceptance stream of `seed`: successive batches of `size`
    geometric gaps between accepted trials.  numpy draws the gaps one by
    one, so the stream does not depend on the batch size."""
    gen = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_ACCEPT_STREAM,))
    )
    while True:
        yield gen.geometric(probability, size=size)


def _accepted_indices(seed: int, count: int, probability: float) -> np.ndarray:
    """0-based indices of accepted trials among `count` Bernoulli trials,
    generated as a geometric-gap walk (identical in law to per-trial coin
    flips, but O(accepted) work instead of O(count))."""
    if probability >= 1.0:
        return np.arange(count, dtype=np.int64)
    chunks = []
    total = 0
    batches = _gap_batches(seed, probability)
    while total < count:
        offsets = np.cumsum(next(batches))
        # Gaps are >= 1, so the offsets rise until one wraps past int64 to a
        # negative value.  That one and all after it lie beyond any count up
        # to MAX_TRIALS, so only the rising prefix is walked.
        wrapped = np.flatnonzero(offsets < 0)
        if wrapped.size:
            offsets = offsets[: wrapped[0]]
        keep = int(np.searchsorted(offsets, count - total, side="right"))
        chunks.append(offsets[:keep] + (total - 1))
        if keep < offsets.size or wrapped.size:
            break
        total += int(offsets[-1])
    return np.concatenate(chunks)


def run_trials(
    seed: int,
    count: int,
    params: ProtocolParams,
    spec: GridSpec,
    detector: DetectorModel,
) -> RunSummary:
    """Run `count` independent trials from a deterministic seed and summarize.

    first_click is the accepted outcome with the smallest trial index (the
    single-click reading of the run).  Zero accepted clicks produce an
    explicit empty summary with NaN statistics, not an error.  `count`
    above MAX_TRIALS or `seed` outside [0, 2**128) raise
    InvalidParameterError; a run expecting more than MAX_EXPECTED_CLICKS
    accepted clicks raises MemoryGuardError.
    """
    _check_run(seed, count, "count")
    sampler = _conditional_sampler(params, spec)
    expected = count * min(sampler.probability, 1.0)
    if expected > MAX_EXPECTED_CLICKS:
        raise MemoryGuardError(
            f"{count} trials at pass probability {sampler.probability:.3e} expect "
            f"{expected:.3e} clicks, over the {MAX_EXPECTED_CLICKS} budget; reduce the trials"
        )
    indices = _accepted_indices(seed, count, sampler.probability)
    accepted = int(indices.size)
    if accepted == 0:
        return RunSummary(
            trials=count,
            accepted=0,
            first_click=None,
            mean=math.nan,
            std=math.nan,
            stderr=math.nan,
            histogram=(),
        )

    raw = sampler.draw(_first_uniforms(seed, indices))
    pixel_idx = detector.pixel_index(raw)
    positions = detector.origin + pixel_idx * detector.pixel_pitch

    mean = float(np.mean(positions))
    if accepted >= 2:
        std = float(np.std(positions, ddof=1))
        stderr = std / math.sqrt(accepted)
    else:
        std = math.nan
        stderr = math.nan
    uniq, counts = np.unique(pixel_idx, return_counts=True)
    histogram = tuple(
        (float(detector.origin + k * detector.pixel_pitch), int(c))
        for k, c in zip(uniq, counts)
    )
    first = ClickOutcome.click(float(raw[0]), float(positions[0]))
    return RunSummary(
        trials=count,
        accepted=accepted,
        first_click=first,
        mean=mean,
        std=std,
        stderr=stderr,
        histogram=histogram,
    )


def first_click(
    seed: int,
    budget: int,
    params: ProtocolParams,
    spec: GridSpec,
    detector: DetectorModel,
) -> tuple[int, ClickOutcome] | None:
    """Trial index and outcome of the first accepted click, or None if no
    trial within `budget` passes post-selection.

    Walks the same acceptance stream as run_trials, so the result matches
    the first_click of any run_trials call with count >= index + 1."""
    _check_run(seed, budget, "budget")
    sampler = _conditional_sampler(params, spec)
    if sampler.probability >= 1.0:
        idx = 0
    else:
        idx = int(next(_gap_batches(seed, sampler.probability, size=1))[0]) - 1
    if idx >= budget:
        return None
    raw = float(sampler.draw(np.asarray([trial_rng(seed, idx).random()]))[0])
    return idx, ClickOutcome.click(raw, float(detector.pixel_center(raw)))


@dataclass(frozen=True)
class AnomalyReport:
    """Is a single click anomalous, i.e. above the top eigenvalue by more
    than the single-shot pointer uncertainty?"""

    eigenvalue_bound: int
    click_position: float
    gap: float
    uncertainty: float
    anomalous: bool
    exceeds_uncertainty: bool


def anomaly_report(summary: RunSummary, params: ProtocolParams) -> AnomalyReport:
    """Judge the run's first click against the eigenvalue range [-n, n].

    gap = click position - n; the click is anomalous when the gap is
    positive, and conclusively so when the gap also exceeds the predicted
    single-shot uncertainty (the final pointer width)."""
    if summary.accepted < 1 or summary.first_click is None:
        raise InvalidParameterError("anomaly report needs at least one accepted click")
    position = summary.first_click.position
    gap = position - params.n
    uncertainty = conditional_moments(params).std
    return AnomalyReport(
        eigenvalue_bound=params.n,
        click_position=position,
        gap=gap,
        uncertainty=uncertainty,
        anomalous=gap > 0,
        exceeds_uncertainty=gap > uncertainty,
    )


def write_histogram(summary: RunSummary, out) -> None:
    """Histogram as text: header '# pixel_center count', one pair per line."""
    out.write("# pixel_center count\n")
    for center, count in summary.histogram:
        out.write(f"{center:.17g} {count}\n")
