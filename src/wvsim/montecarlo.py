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
instead of building one generator per click.  The pass stacks the two
multiplied words of all trials in one array and works in buffers made
once per call; its fixed cost, some 150 numpy calls, is ten times that
of one generator, so `first_click`, which has one trial, takes its
uniform from `trial_rng` itself.

Each step does only the work a run needs, without changing a bit of its
output.  One generator, `_accepted_batches`, walks the acceptance stream
for both readings of the experiment.  numpy draws geometric gaps one at
a time, so the stream does not depend on how many are drawn per call:
`first_click` takes the first batch of a one-gap walk, and `run_trials`
draws batches sized from the expected click count (six standard
deviations above it) and draws another only if one falls short.  The
inverse-CDF lookup searches the uniforms in sorted order, where numpy's
searchsorted starts each search from the previous key's result, and
scatters the indices back; each index is the same whatever the key
order.  The cached sampler keeps the CDF, not the node positions.  A
run keeps its clicks' pixel centers; only `write_histogram` bins them,
with one np.unique.  Every pass probability takes the same walk: it is
clamped to 1, where every geometric gap is 1 and every trial is
accepted.
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

# Most geometric gaps drawn per call of the acceptance walk.
_GAP_BATCH = 32768

# Largest trial count: indices and Philox counters stay inside int64, and a
# geometric gap saturated at 2**63 - 1 (numpy, p below ~1e-19) lies past it.
MAX_TRIALS = 2 ** 63 - 2

# Refuse runs expecting more accepted clicks than this.  A run peaks at
# 112 bytes per accepted click, in the Philox pass: the 8-byte index, the
# pass's 96 bytes of buffers and its 8-byte uniform (tracemalloc, 112.07 at
# 1e6 clicks of presets a and d), so the budget caps it near 1.1 GB.
MAX_EXPECTED_CLICKS = 10 ** 7

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11),
# as in numpy's Philox, as columns that act on the stacked words (c0, c2):
# multiplier 0 on c0, multiplier 1 on c2.  Every operand of the uint64
# arithmetic is a np.uint64, so no Python int enters numpy's type promotion.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M_HI = _PHILOX_M >> _SHIFT32
_PHILOX_M_LO = _PHILOX_M & _MASK32

# Pixel indices must stay below this in magnitude, so that rounding and the
# int64 cast are exact.
_MAX_PIXEL_INDEX = 2.0 ** 62


@dataclass(frozen=True)
class DetectorModel:
    """Pixelated readout: reported positions are pixel centers."""

    pixel_pitch: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.pixel_pitch) and self.pixel_pitch > 0):
            raise InvalidParameterError(f"pixel_pitch must be positive, got {self.pixel_pitch}")

    def pixel_index(self, x):
        """Nearest pixel of each position; InvalidParameterError if an index
        is not finite or reaches 2**62 in magnitude (the int64 cast would
        overflow)."""
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            index = np.rint(np.asarray(x) / self.pixel_pitch)
        if not (np.abs(index) < _MAX_PIXEL_INDEX).all():
            raise InvalidParameterError(
                f"pixel_pitch {self.pixel_pitch} gives a pixel index that is not finite "
                f"or not below 2**62; use a larger pixel_pitch"
            )
        return index.astype(int)

    def pixel_center(self, x):
        """Center of the nearest pixel of each position."""
        return self.pixel_index(x) * self.pixel_pitch


@dataclass(frozen=True)
class ClickOutcome:
    """One click: its pixelated position, and the continuous pre-pixelation
    sample kept for diagnostics."""

    position: float
    raw_position: float


@dataclass(frozen=True)
class RunSummary:
    """Aggregate of a trial batch; statistics cover accepted clicks only.

    clicks holds the accepted clicks' pixel centers in trial order, as a
    read-only array; == and repr leave it out."""

    trials: int
    accepted: int
    first_click: ClickOutcome | None
    mean: float
    std: float
    stderr: float
    clicks: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class _ConditionalSampler:
    """Precomputed inverse-CDF sampler for the final conditional density;
    cdf[j] is the CDF at node first_node + j of the lattice x = k dx."""

    probability: float
    cdf: np.ndarray = field(repr=False)
    first_node: int
    dx: float

    def draw(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0, 1) to positions, linear inside each cell."""
        c = self.cdf
        # searchsorted narrows each search from the previous key's result
        # when keys ascend; the scatter puts each index back in its key's place.
        order = np.argsort(u)
        idx = np.empty(order.size, dtype=np.intp)
        idx[order] = np.searchsorted(c, u[order])
        idx = np.clip(idx, 1, c.size - 1)
        lo = c[idx - 1]
        hi = c[idx]
        frac = np.clip((u - lo) / np.where(hi > lo, hi - lo, 1.0), 0.0, 1.0)
        # Bit for bit as spec.positions() gives them: the node left of each
        # key, and the first cell's width, which can differ from dx.
        width = (self.first_node + 1) * self.dx - self.first_node * self.dx
        return (idx + (self.first_node - 1)) * self.dx + frac * width


@lru_cache(maxsize=16)
def _conditional_sampler(params: ProtocolParams, spec: GridSpec) -> _ConditionalSampler:
    wf, probability = evolve_sequential(params, spec)
    sampler = _ConditionalSampler(probability, cdf(wf), first_node=-spec.half_nodes, dx=spec.dx)
    # Cached and shared by every later run: frozen, so no caller can alter it.
    sampler.cdf.flags.writeable = False
    return sampler


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Position stream of one trial: Philox4x64-10 with key = master seed
    (below 2**128) and counter = trial index."""
    return np.random.Generator(np.random.Philox(key=seed, counter=trial_index))


def _first_uniforms(seed: int, indices: np.ndarray) -> np.ndarray:
    """trial_rng(seed, i).random() for every i in `indices`, in one pass.

    The generator's first output block is Philox4x64-10 at counter i + 1;
    random() takes word 0 of it as (x >> 11) * 2**-53.  The two multiplied
    words (c0, c2) are the rows of one (2, N) array `a` and the other two
    (c1, c3) the rows of `b`, so a round is one 64 x 64 -> 128-bit multiply
    of 2N words: a = hi[::-1] ^ b ^ key, b = lo[::-1].  The multiply runs
    on 32-bit limbs.  Every step writes into one of six (2, N) buffers made
    once per call (96 bytes per index): fresh temporaries this size would
    each be mapped and unmapped by glibc above ~8k indices."""
    # Round r is keyed by (k0 + r W0, k1 + r W1) mod 2**64, where (k0, k1)
    # are the seed's low and high words.
    words = (seed & 0xFFFFFFFFFFFFFFFF, seed >> 64)
    keys = np.array(
        [[[(k + r * w) & 0xFFFFFFFFFFFFFFFF] for k, w in zip(words, _PHILOX_W)]
         for r in range(_PHILOX_ROUNDS)],
        dtype=np.uint64,
    )
    a = np.zeros((2, indices.size), dtype=np.uint64)
    np.copyto(a[0], indices, casting="unsafe")
    a[0] += np.uint64(1)
    b = np.zeros_like(a)
    lo, t1, t2, t3 = (np.empty_like(a) for _ in range(4))
    for key in keys:
        # hi = m_hi x_hi + (mid >> 32) + (mid2 >> 32) in t1, where
        # mid = m_hi x_lo + (m_lo x_lo >> 32) in t2 and
        # mid2 = m_lo x_hi + (mid & mask) in t3; lo is scratch until its turn.
        np.right_shift(a, _SHIFT32, out=t1)
        np.bitwise_and(a, _MASK32, out=t2)
        np.multiply(t2, _PHILOX_M_LO, out=t3)
        t3 >>= _SHIFT32
        t2 *= _PHILOX_M_HI
        t2 += t3
        np.multiply(t1, _PHILOX_M_LO, out=t3)
        np.bitwise_and(t2, _MASK32, out=lo)
        t3 += lo
        t3 >>= _SHIFT32
        t2 >>= _SHIFT32
        t1 *= _PHILOX_M_HI
        t1 += t2
        t1 += t3
        np.multiply(a, _PHILOX_M, out=lo[::-1])
        np.bitwise_xor(t1[::-1], b, out=a)
        a ^= key
        b, lo = lo, b
    np.right_shift(a[0], np.uint64(11), out=t1[0])
    return t1[0] * 2.0 ** -53


def _check_run(seed: int, trials: int, name: str) -> None:
    if not 1 <= trials <= MAX_TRIALS:
        raise InvalidParameterError(f"{name} must be in [1, 2**63 - 2], got {trials}")
    if not 0 <= seed < 2 ** 128:
        raise InvalidParameterError(f"seed must be in [0, 2**128), got {seed}")


def _accepted_batches(seed: int, count: int, probability: float, size: int):
    """The acceptance stream of `seed`: successive arrays of the 0-based
    indices of accepted trials among `count` Bernoulli trials, from `size`
    geometric gaps each (identical in law to per-trial coin flips, but
    O(accepted) work instead of O(count)).  numpy draws the gaps one by
    one, so the stream does not depend on `size`.  Stops after the batch
    that passes `count`.  A probability a few ulps above 1, as a normalised
    sum can read at an eigenstate, is taken as 1."""
    gen = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_ACCEPT_STREAM,))
    )
    total = 0
    while total < count:
        offsets = np.cumsum(gen.geometric(min(probability, 1.0), size=size))
        # Gaps are >= 1, so the offsets rise until one wraps past int64 to a
        # negative value.  That one and all after it lie beyond any count up
        # to MAX_TRIALS, so only the rising prefix is walked.
        wrapped = np.flatnonzero(offsets < 0)
        if wrapped.size:
            offsets = offsets[: wrapped[0]]
        keep = int(np.searchsorted(offsets, count - total, side="right"))
        yield offsets[:keep] + (total - 1)
        if keep < offsets.size or wrapped.size:
            return
        total += int(offsets[-1])


def _clicks(
    u: np.ndarray, sampler: _ConditionalSampler, detector: DetectorModel
) -> tuple[np.ndarray, np.ndarray]:
    """Raw positions and pixel centers of the clicks whose trials drew the
    first uniforms `u` from their own streams."""
    raw = sampler.draw(u)
    return raw, detector.pixel_center(raw)


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
    explicit empty summary with NaN statistics and no clicks, not an
    error; std and stderr are NaN below two clicks.  `count`
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
    # A run needs one gap per accepted trial plus the one that passes
    # `count`; six standard deviations above the mean make a second batch rare.
    size = int(min(_GAP_BATCH, expected + 6.0 * math.sqrt(expected) + 1.0))
    indices = np.concatenate(list(_accepted_batches(seed, count, sampler.probability, size)))
    raw, positions = _clicks(_first_uniforms(seed, indices), sampler, detector)
    positions.flags.writeable = False
    accepted = int(indices.size)
    std = float(np.std(positions, ddof=1)) if accepted >= 2 else math.nan
    return RunSummary(
        trials=count,
        accepted=accepted,
        first_click=ClickOutcome(float(positions[0]), float(raw[0])) if accepted else None,
        mean=float(np.mean(positions)) if accepted else math.nan,
        std=std,
        stderr=std / math.sqrt(max(accepted, 1)),
        clicks=positions,
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

    Takes the first batch of a one-gap walk of the acceptance stream
    run_trials walks, so the result matches the first_click of any
    run_trials call with count >= index + 1."""
    _check_run(seed, budget, "budget")
    sampler = _conditional_sampler(params, spec)
    batch = next(_accepted_batches(seed, budget, sampler.probability, size=1))
    if not batch.size:
        return None
    index = int(batch[0])
    raw, positions = _clicks(np.array([trial_rng(seed, index).random()]), sampler, detector)
    return index, ClickOutcome(float(positions[0]), float(raw[0]))


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


def anomaly_report(click: ClickOutcome | None, params: ProtocolParams) -> AnomalyReport:
    """Judge one click, such as a run's first click or the one `first_click`
    returns, against the eigenvalue range [-n, n].

    gap = click position - n; the click is anomalous when the gap is
    positive, and conclusively so when the gap also exceeds the predicted
    single-shot uncertainty (the final pointer width).  A missing click
    (None, as from a run with no accepted trial) raises
    InvalidParameterError."""
    if click is None:
        raise InvalidParameterError("anomaly report needs an accepted click")
    gap = click.position - params.n
    uncertainty = conditional_moments(params).std
    return AnomalyReport(
        eigenvalue_bound=params.n,
        click_position=click.position,
        gap=gap,
        uncertainty=uncertainty,
        anomalous=gap > 0,
        exceeds_uncertainty=gap > uncertainty,
    )


def write_histogram(summary: RunSummary, out) -> None:
    """Histogram of the run's clicks as text: header '# pixel_center count',
    then one pair per occupied pixel in ascending order."""
    centers, counts = np.unique(summary.clicks, return_counts=True)
    out.write("# pixel_center count\n")
    for center, count in zip(centers.tolist(), counts.tolist()):
        out.write(f"{center:.17g} {count}\n")
