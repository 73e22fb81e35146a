"""Closed-form layer for the sequential weak measurement protocol.

Model
-----
A polarization qubit is prepared in |psi_a> = cos(a)|H> + sin(a)|V>,
weakly coupled to a common Gaussian pointer of width Delta (the |H>
component translates the pointer by +1, the |V> component by -1), and
post-selected on |psi_b> = cos(b)|H> + sin(b)|V>.  The block is repeated
n times on the same pointer, so a single pointer reading estimates the
sum observable with spectrum {-n, -n+2, ..., n}.

With mu = cos(a)cos(b) and nu = sin(a)sin(b), the unnormalized pointer
state after n blocks is the superposition

    phi(x) = sum_k C(n,k) mu^k nu^(n-k) chi(x - (2k - n)),

where chi(x) ~ exp(-x^2 / 4 Delta^2) is the initial Gaussian amplitude.
Because shifted Gaussians are not orthogonal, every conditional moment
carries the overlap factor

    gamma_kl = exp(-(k - l)^2 / (2 Delta^2)),

and the conditional mean (the weak value read off the pointer) is

             sum_kl C(n,k) C(n,l) mu^(k+l) nu^(2n-k-l) (2k - n) gamma_kl
    <x>  =  ---------------------------------------------------------- ,
             sum_kl C(n,k) C(n,l) mu^(k+l) nu^(2n-k-l) gamma_kl

with the second moment obtained by replacing (2k - n) with
((n - k - l)^2 + Delta^2).  The denominator is the post-selection
success probability.  These sums are evaluated directly (O(n^2) terms)
with exact integer binomials and compensated float summation; n is
capped at 60, far beyond the regime of interest.  `conditional_moments`
is the one place that evaluates them: it returns the probability, mean,
width and second moment together, so every caller pays for one pass.
`final_amplitudes` exposes the superposition's terms themselves.

All angles are radians.  All positions are in eigenvalue-scaled pointer
units (the calibration module maps raw detector coordinates onto them).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InternalConsistencyError, InvalidParameterError, PostselectionError

# Denominator cutoff below which post-selection is treated as orthogonal.
EPS_DENOMINATOR = 1e-12

# Exact integer binomials stay cheap and drift-free up to this block count.
MAX_BLOCKS = 60


def _gamma(m: int, delta: float) -> float:
    """Overlap exp(-m^2 / (2 Delta^2)) of unit-normalized Gaussians whose
    centers differ by 2 m.  Single canonical expression so every code path
    rounds identically."""
    return math.exp(-(m * m) * 0.5 / (delta * delta))


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


@dataclass(frozen=True)
class DensityMatrix2:
    """Validated 2x2 density matrix in the {|H>, |V>} basis."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (2, 2):
            raise InvalidParameterError(f"expected a 2x2 matrix, got shape {m.shape}")
        if not np.all(np.abs(m - m.conj().T) <= 1e-12):
            raise InternalConsistencyError("density matrix is not Hermitian to 1e-12")
        if abs(np.trace(m) - 1.0) > 1e-12:
            raise InternalConsistencyError("density matrix trace differs from 1 beyond 1e-12")
        if np.linalg.eigvalsh(m).min() < -1e-12:
            raise InternalConsistencyError("density matrix has an eigenvalue below -1e-12")
        object.__setattr__(self, "entries", m)


def build_rho_alpha(alpha: float, delta: float) -> DensityMatrix2:
    """Reduced polarization state after one coupling, before post-selection.

    Tracing the pointer out of cos(a)|H>|chi_+> + sin(a)|V>|chi_-> leaves
    the populations untouched and damps the coherences by the +1/-1
    Gaussian overlap exp(-1/(2 Delta^2)).

    Parameters
    ----------
    alpha : float
        Preparation angle in radians.
    delta : float
        Pointer width (> 0).

    Returns
    -------
    DensityMatrix2
    """
    if not (math.isfinite(delta) and delta > 0):
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    if not math.isfinite(alpha):
        raise InvalidParameterError("alpha must be finite")
    c, s = math.cos(alpha), math.sin(alpha)
    off = _gamma(1, delta) * s * c
    return DensityMatrix2(np.array([[c * c, off], [off, s * s]], dtype=complex))


def wv_single_trace(alpha: float, beta: float, delta: float) -> float:
    """Single-coupling weak value via the density-matrix trace form
    tr(P sigma3 rho) / tr(P rho) with P the post-selection projector.

    Kept as an independent computation path; `wv_single` checks the two
    forms against each other on every call.
    """
    rho = build_rho_alpha(alpha, delta).entries.real
    cb, sb = math.cos(beta), math.sin(beta)
    proj = ((cb * cb, cb * sb), (cb * sb, sb * sb))
    s3 = (1.0, -1.0)
    num = math.fsum(proj[i][j] * s3[j] * rho[j][i] for i in range(2) for j in range(2))
    den = math.fsum(proj[i][j] * rho[j][i] for i in range(2) for j in range(2))
    if abs(den) <= EPS_DENOMINATOR:
        raise PostselectionError("post-selection is orthogonal to the prepared state")
    return num / den


def wv_single(alpha: float, beta: float, delta: float) -> float:
    """Weak value of sigma3 for a single coupling block.

    Returns (mu^2 - nu^2) / (mu^2 + nu^2 + 2 mu nu exp(-1/(2 Delta^2))).

    Raises
    ------
    PostselectionError
        If the denominator falls at or below the orthogonality cutoff.
    InternalConsistencyError
        If the closed form and the trace form disagree beyond tolerance.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    mu = math.cos(alpha) * math.cos(beta)
    nu = math.sin(alpha) * math.sin(beta)
    f = _gamma(1, delta)
    den = math.fsum([mu * mu, nu * nu, 2.0 * mu * nu * f])
    if den <= EPS_DENOMINATOR:
        raise PostselectionError(
            f"post-selection denominator {den:.3e} at or below cutoff {EPS_DENOMINATOR:.0e}"
        )
    value = (mu * mu - nu * nu) / den
    check = wv_single_trace(alpha, beta, delta)
    if abs(value - check) > 1e-12 * (1.0 + abs(value)):
        raise InternalConsistencyError(
            f"closed form {value!r} and trace form {check!r} disagree"
        )
    return value


def _double_sums_weights(
    n: int, mu: float, nu: float, delta: float
) -> tuple[float, float, float]:
    """Compensated (numerator_x, numerator_x2, denominator) of the
    conditional-moment sums."""
    den_terms: list[float] = []
    x_terms: list[float] = []
    x2_terms: list[float] = []
    for k in range(n + 1):
        for l in range(n + 1):
            # The inner grouping keeps mu <-> nu exchange a bit-exact
            # symmetry (product commutativity), so swapping the weights
            # negates the mean identically.
            w = float(math.comb(n, k) * math.comb(n, l)) * (
                mu ** (k + l) * nu ** (2 * n - k - l)
            )
            g = _gamma(k - l, delta)
            wg = w * g
            den_terms.append(wg)
            x_terms.append(wg * float(2 * k - n))
            x2_terms.append(wg * ((n - k - l) ** 2 + delta * delta))
    return math.fsum(x_terms), math.fsum(x2_terms), math.fsum(den_terms)


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
    """Post-selection probability and conditional pointer moments, from one
    evaluation of the double sums.

    Raises
    ------
    PostselectionError
        If the post-selection denominator is at or below the cutoff.
    InternalConsistencyError
        If the probability or the variance evaluates negative beyond
        tolerance.
    """
    w = coupling_weights(params)
    num, num2, den = _double_sums_weights(params.n, w.mu, w.nu, params.delta)
    if den < -EPS_DENOMINATOR:
        raise InternalConsistencyError(
            f"post-selection probability evaluated to {den:.3e} < 0"
        )
    if den <= EPS_DENOMINATOR:
        raise PostselectionError(
            f"post-selection denominator {den:.3e} at or below cutoff {EPS_DENOMINATOR:.0e}"
        )
    mean = num / den
    x2 = num2 / den
    radicand = x2 - mean * mean
    if radicand < -1e-9:
        raise InternalConsistencyError(
            f"variance evaluated to {radicand:.3e} < 0 beyond tolerance"
        )
    return ConditionalMoments(den, mean, math.sqrt(max(radicand, 0.0)), x2)


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


def sweep_beta(
    n: int, alpha: float, delta: float, beta_grid
) -> list[SweepPoint]:
    """Evaluate (weak value, final pointer std, post-selection probability)
    over a grid of post-selection angles.  Points whose post-selection is
    numerically orthogonal are emitted with NaN entries rather than
    raising."""
    rows: list[SweepPoint] = []
    for beta in beta_grid:
        params = ProtocolParams(n=n, alpha=alpha, beta=float(beta), delta=delta)
        try:
            m = conditional_moments(params)
            rows.append(SweepPoint(float(beta), m.mean, m.std, m.probability))
        except PostselectionError:
            rows.append(SweepPoint(float(beta), math.nan, math.nan, math.nan))
    return rows
