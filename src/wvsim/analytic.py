"""Closed-form layer for the sequential weak measurement protocol.

Model
-----
A polarization qubit is prepared in |psi_a> = cos(a)|H> + sin(a)|V>,
weakly coupled to a common Gaussian pointer of width Delta (the |H>
component translates the pointer by +1, the |V> component by -1), and
post-selected on |psi_b> = cos(b)|H> + sin(b)|V>.  The block is repeated
n times on the same pointer, so a single pointer reading estimates the
sum observable with spectrum {-n, -n+2, ..., n}.

With mu = cos(a)cos(b) and nu = sin(a)sin(b), each block multiplies the
pointer's momentum amplitude by mu e^{-ip} + nu e^{ip}.  The initial
momentum density is the normal density of t = 2 Delta p, and with
F = |mu e^{-ip} + nu e^{ip}|^2 and G = |mu e^{-ip} - nu e^{ip}|^2 every
conditional moment is an expectation over t:

    P     = E[F^n]                           (post-selection probability)
    <x>   = n (mu^2 - nu^2) E[F^(n-1)] / P    (the weak value)
    <x^2> = E[Delta^2 t^2 F^n + n^2 F^(n-1) G + 4 Delta n mu nu t sin(2p) F^(n-1)] / P

Nothing cancels: F and G are sums of two non-negative terms, and the
variance is expanded about the mean inside the integral.
`_moment_integrals` evaluates them for an array of settings; `final_amplitudes`
gives the position superposition sum_k C(n,k) mu^k nu^(n-k) chi(x - (2k - n)).

All angles are radians.  All positions are in eigenvalue-scaled pointer
units (the calibration module maps raw detector coordinates onto them).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InternalConsistencyError, InvalidParameterError, PostselectionError

# Largest block count; QUADRATURE_HALF_WIDTH is sized for it.
MAX_BLOCKS = 60

# Both coupling weights at or below this are cos/sin roundoff of an
# orthogonal setting (cos(float(pi/2)) = 6.1e-17): post-selection fails.
TRIG_ROUNDOFF = 2.0 ** -52

# Trapezoid nodes cover |t| <= A.  The widest integrand, t^(2n+2)
# exp(-t^2/2) (mu = -nu, large delta), loses below 1e-30 of its integral
# to the cut and to aliasing at A = 20 and n = MAX_BLOCKS (1e-11 at A = 16).
QUADRATURE_HALF_WIDTH = 20.0

# Below this width pointer branches no longer overlap (exp(-1/(2 delta^2)) <
# 2e-22): sampling the oscillations at it bounds the nodes for any delta > 0.
DECOHERED_DELTA = 0.1

# (points x nodes) entries per array of the moment kernel: bounds its memory.
CHUNK_ENTRIES = 2 ** 13


@dataclass(frozen=True)
class ProtocolParams:
    """Parameter tuple driving every formula.

    Attributes
    ----------
    n : int
        Number of coupling blocks (>= 1, <= 60).
    alpha : float
        Pre-selection angle in radians.
    beta : float
        Post-selection angle in radians.
    delta : float
        Initial pointer width in eigenvalue-scaled units (> 0).
    """

    n: int
    alpha: float
    beta: float
    delta: float

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise InvalidParameterError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise InvalidParameterError(f"n must be >= 1, got {self.n}")
        if self.n > MAX_BLOCKS:
            raise InvalidParameterError(f"n must be <= {MAX_BLOCKS}, got {self.n}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise InvalidParameterError("alpha and beta must be finite")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise InvalidParameterError(f"delta must be positive, got {self.delta}")

    def spectrum(self) -> np.ndarray:
        """Eigenvalues {-n, -n+2, ..., n} of the measured sum observable."""
        return np.arange(-self.n, self.n + 1, 2)


@dataclass(frozen=True)
class CouplingWeights:
    """Effective transmission amplitudes of one block.

    mu multiplies the +1-shifted pointer component, nu the -1-shifted one.
    Cauchy-Schwarz gives |mu| + |nu| <= 1, so the block is a contraction.
    """

    mu: float
    nu: float

    def __post_init__(self):
        if abs(self.mu) > 1 + 1e-12 or abs(self.nu) > 1 + 1e-12:
            raise InvalidParameterError("coupling weights must satisfy |mu|, |nu| <= 1")


def coupling_weights(params: ProtocolParams) -> CouplingWeights:
    """mu = cos(alpha) cos(beta), nu = sin(alpha) sin(beta)."""
    return CouplingWeights(
        mu=math.cos(params.alpha) * math.cos(params.beta),
        nu=math.sin(params.alpha) * math.sin(params.beta),
    )


def _require_overlap(mu: float, nu: float) -> None:
    """The one orthogonality rule: both coupling weights at trig roundoff."""
    if abs(mu) <= TRIG_ROUNDOFF and abs(nu) <= TRIG_ROUNDOFF:
        raise PostselectionError(f"post-selection is orthogonal (mu = {mu:.3e}, nu = {nu:.3e})")


def _block_power(a, b, sin2, cos2):
    """|a e^{-ip} + b e^{ip}|^2 as a sum of two non-negative terms, exact
    where a^2 + b^2 + 2ab cos 2p would cancel; symmetric in (a, b) bit for bit.
    float_power squares like Python's float ** 2; numpy's ** 2 may differ."""
    ab = a * b
    same_sign = ab > 0.0
    return (np.float_power(np.where(same_sign, a - b, a + b), 2.0)
            + 4.0 * ab * np.where(same_sign, cos2, -sin2))


def wv_single(alpha: float, beta: float, delta: float) -> float:
    """Weak value of sigma3 for a single coupling block.

    Returns (mu^2 - nu^2) / (mu^2 + nu^2 + 2 mu nu f), f = exp(-1/(2 Delta^2)),
    with the denominator written as a sum of non-negative terms.

    Raises
    ------
    InvalidParameterError
        If an angle is not finite or delta is not positive.
    PostselectionError
        If both coupling weights are at trig roundoff (orthogonal setting).
    """
    w = coupling_weights(ProtocolParams(n=1, alpha=alpha, beta=beta, delta=delta))
    mu, nu = w.mu, w.nu
    _require_overlap(mu, nu)
    # F averaged over the pointer: E[sin^2 p] = (1 - f) / 2, E[cos^2 p] = (1 + f) / 2.
    overlap = -0.5 / (delta * delta)
    den = _block_power(mu, nu, -0.5 * math.expm1(overlap), 0.5 * (1.0 + math.exp(overlap)))
    return float((mu - nu) * (mu + nu) / den)


def _moment_integrals(n: int, mu, nu, delta: float):
    """(probability, mean, variance, failed) arrays by the trapezoid rule in
    t = 2 Delta p, for 1-d arrays of weights mu and nu at a shared (n, delta).

    The integrands are even, so only t >= 0 is sampled.  F^n holds
    frequencies up to n / Delta; against exp(-t^2/2) the spacing
    h = 2 pi / (A + n / Delta) keeps aliasing near exp(-A^2/2), so the node
    count A / h follows from (n, Delta) and all points share the nodes.
    They are evaluated as (points x nodes) arrays of about CHUNK_ENTRIES.
    failed marks orthogonal settings and probabilities that underflow to a
    subnormal; raises InternalConsistencyError on any other point whose
    variance evaluates negative or NaN.
    """
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    scale = max(delta, DECOHERED_DELTA)
    h = 2.0 * math.pi / (QUADRATURE_HALF_WIDTH + n / scale)
    t = h * np.arange(int(QUADRATURE_HALF_WIDTH / h) + 1)
    sin_p, cos_p = np.sin(t / (2.0 * scale)), np.cos(t / (2.0 * scale))
    sin2, cos2 = sin_p * sin_p, cos_p * cos_p
    w = np.exp(-0.5 * t * t)
    w[0] *= 0.5
    w /= w.sum()
    probability, mean, variance = (np.empty(mu.size) for _ in range(3))
    step = max(1, CHUNK_ENTRIES // t.size)
    for lo in range(0, mu.size, step):
        chunk = slice(lo, lo + step)
        a, b = mu[chunk], nu[chunk]
        f = _block_power(a[:, None], b[:, None], sin2, cos2)
        wf = w * f ** (n - 1)
        p = (wf * f).sum(axis=1)
        # Failed points divide by 1 so that they raise no warning.
        p_safe = np.where(p < sys.float_info.min, 1.0, p)
        m = n * ((a - b) * (a + b)) * wf.sum(axis=1) / p_safe
        # |(i d/dp - <x>) psi|^2 over w F^(n-1): the variance about the mean, not
        # a difference of two large second moments.
        spread = ((delta * t) ** 2 * f
                  + _block_power(((n - m) * a)[:, None], (-(n + m) * b)[:, None], sin2, cos2)
                  + (8.0 * delta * n * (a * b))[:, None] * t * sin_p * cos_p)
        probability[chunk], mean[chunk], variance[chunk] = p, m, (wf * spread).sum(axis=1) / p_safe
    failed = (np.maximum(abs(mu), abs(nu)) <= TRIG_ROUNDOFF) | (probability < sys.float_info.min)
    if not ((variance >= 0.0) | failed).all():
        raise InternalConsistencyError(f"variance evaluated to {variance[~failed].min():.3e} < 0")
    return probability, mean, variance, failed


class ConditionalMoments(NamedTuple):
    """Moments of the final pointer distribution, conditional on passing
    all n post-selections.

    probability is the post-selection success probability; mean is the
    weak value of the n-block sum observable, which may lie far outside
    the eigenvalue range [-n, n]; std is the final pointer width, which
    can come out below the initial width delta (post-selection can narrow
    the pointer) or above it; second_moment is <x^2>.
    """

    probability: float
    mean: float
    std: float
    second_moment: float


def conditional_moments(params: ProtocolParams) -> ConditionalMoments:
    """Post-selection probability and conditional pointer moments: the
    length-1 case of the moment integrals.

    Raises
    ------
    PostselectionError
        If both coupling weights are at trig roundoff (orthogonal setting),
        or the probability underflows double precision.
    InternalConsistencyError
        If the variance evaluates negative.
    """
    w = coupling_weights(params)
    _require_overlap(w.mu, w.nu)
    probability, mean, variance, failed = _moment_integrals(params.n, [w.mu], [w.nu], params.delta)
    probability, mean, variance = float(probability[0]), float(mean[0]), float(variance[0])
    if failed[0]:
        raise PostselectionError(f"post-selection probability {probability:.3e} underflows")
    return ConditionalMoments(probability, mean, math.sqrt(variance), variance + mean * mean)


@dataclass(frozen=True)
class PointerSuperposition:
    """Exact final pointer state as amplitude-weighted shifted Gaussians.

    Term k carries shift 2k - n and unnormalized amplitude
    C(n,k) mu^k nu^(n-k); its Gaussian keeps the initial width.
    """

    width: float
    shifts: np.ndarray = field(repr=False)
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        shifts = np.asarray(self.shifts, dtype=int)
        amps = np.asarray(self.amplitudes, dtype=float)
        if shifts.shape != amps.shape or shifts.ndim != 1:
            raise InvalidParameterError("shifts and amplitudes must be matching 1-d arrays")
        if np.any(np.diff(shifts) != 2):
            raise InvalidParameterError("shifts must increase in steps of 2")
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "amplitudes", amps)


def final_amplitudes(params: ProtocolParams) -> PointerSuperposition:
    """Amplitudes and shifts of the exact final pointer superposition."""
    w = coupling_weights(params)
    n = params.n
    shifts = np.arange(-n, n + 1, 2)
    amps = np.array(
        [float(math.comb(n, k)) * w.mu ** k * w.nu ** (n - k) for k in range(n + 1)]
    )
    return PointerSuperposition(width=params.delta, shifts=shifts, amplitudes=amps)


def expectation_sigma_sum(n: int, angle: float) -> float:
    """Ordinary expectation value n cos(2 angle) of the sum observable in
    the state cos(angle)|H> + sin(angle)|V>.  Useful as the non-post-selected
    baseline against which anomalous weak values are judged."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidParameterError(f"n must be a positive integer, got {n!r}")
    return n * math.cos(2.0 * angle)


class SweepPoint(NamedTuple):
    beta: float
    weak_value: float
    std: float
    probability: float


def sweep_beta(n: int, alpha: float, delta: float, beta_grid) -> list[SweepPoint]:
    """Evaluate (weak value, final pointer std, post-selection probability)
    over a grid of post-selection angles, in one call of the moment kernel.
    Points where conditional_moments would raise PostselectionError (an
    orthogonal setting, or a probability that underflows) are emitted with
    NaN entries rather than raising."""
    betas = [float(beta) for beta in beta_grid]
    ProtocolParams(n=n, alpha=alpha, delta=delta,  # checks every point at once
                   beta=next((beta for beta in betas if not math.isfinite(beta)), 0.0))
    # math's trig, as in coupling_weights, keeps every weight bit-identical.
    ca, sa = math.cos(alpha), math.sin(alpha)
    probability, mean, variance, failed = _moment_integrals(
        n, [ca * math.cos(beta) for beta in betas], [sa * math.sin(beta) for beta in betas], delta)
    probability[failed] = mean[failed] = variance[failed] = math.nan
    return list(map(SweepPoint, betas, mean.tolist(), np.sqrt(variance).tolist(),
                    probability.tolist()))
