"""Brute-force grid oracle for the sequential weak measurement protocol.

Everything here deliberately avoids the binomial structure of the closed
forms: wavefunctions are sampled on a uniform grid and pushed through the
protocol step by step, so the result can be compared against the analytic
layer as an independent check.

Two design rules keep the oracle honest:

* Grid spacings satisfy 1/dx = integer, so the unit pointer translations
  of the coupling land exactly on nodes.  Shifts are pure index moves,
  never interpolations, and preserve amplitudes bit for bit.  `shift` is
  the only routine that moves amplitudes and checks truncation; both
  evolutions go through it.
* The initial Gaussian is cut off hard at 8 sigma (relative mass below
  1e-14) and the domain must extend at least n units beyond that, so no
  shift ever pushes nonzero amplitude off the edge.

The joint-coupling evolution additionally materializes the full
2^n x nodes state of n qubits sharing one pointer, written already
coupled into a single preallocated array, and post-selects every qubit at
the end; sequential and joint paths must agree, which is the protocol's
central equivalence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .analytic import ProtocolParams, coupling_weights
from .errors import InvalidParameterError, MemoryGuardError, TruncationError

# Hard support cutoff of the initial Gaussian, in units of its width.
SUPPORT_SIGMAS = 8.0

# Refuse joint states beyond this many bytes (2**27 complex128 entries).
MAX_JOINT_BYTES = 2 ** 31


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric grid on [-half_span, +half_span].

    dx must divide 1 exactly (1/dx integral) so unit shifts are node
    translations; half_span is rounded up to the nearest node.
    """

    dx: float
    half_span: float

    def __post_init__(self):
        if not (math.isfinite(self.dx) and self.dx > 0):
            raise InvalidParameterError(f"dx must be positive, got {self.dx}")
        q = round(1.0 / self.dx)
        if q < 1 or abs(q * self.dx - 1.0) > 1e-9:
            raise InvalidParameterError(
                f"1/dx must be a positive integer (unit shifts must land on nodes), got dx={self.dx}"
            )
        if not (math.isfinite(self.half_span) and self.half_span > 0):
            raise InvalidParameterError(f"half_span must be positive, got {self.half_span}")
        m = math.ceil(self.half_span / self.dx - 1e-9)
        object.__setattr__(self, "half_span", m * self.dx)

    @classmethod
    def for_protocol(cls, params: ProtocolParams, dx: float = 0.01) -> "GridSpec":
        """Default domain n + 8 delta, rounded up to a node."""
        return cls(dx=dx, half_span=params.n + SUPPORT_SIGMAS * params.delta)

    @property
    def nodes_per_unit(self) -> int:
        return round(1.0 / self.dx)

    @property
    def half_nodes(self) -> int:
        return round(self.half_span / self.dx)

    @property
    def node_count(self) -> int:
        return 2 * self.half_nodes + 1

    def positions(self) -> np.ndarray:
        m = self.half_nodes
        return np.arange(-m, m + 1) * self.dx


@dataclass
class GridWavefunction:
    """Complex wavefunction sampled on the nodes of `spec`."""

    spec: GridSpec
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.spec.node_count,):
            raise InvalidParameterError(
                f"expected {self.spec.node_count} amplitudes, got shape {amps.shape}"
            )
        self.amplitudes = amps

    def squared_norm(self) -> float:
        """Riemann squared norm sum |psi_i|^2 dx, via compensated summation
        so the value is independent of where the support sits on the grid."""
        dens = self.amplitudes.real ** 2 + self.amplitudes.imag ** 2
        return math.fsum(dens) * self.spec.dx

    def normalized(self) -> "GridWavefunction":
        norm = math.sqrt(self.squared_norm())
        if norm <= 0:
            raise InvalidParameterError("cannot normalize a zero wavefunction")
        return GridWavefunction(self.spec, self.amplitudes / norm)


def init_gaussian(spec: GridSpec, width: float, center: float = 0.0) -> GridWavefunction:
    """Normalized Gaussian amplitude exp(-(x-center)^2 / 4 width^2) with
    hard support cutoff at `SUPPORT_SIGMAS` times the width.

    Raises TruncationError if the cut support does not fit the domain.
    """
    if not (math.isfinite(width) and width > 0):
        raise InvalidParameterError(f"width must be positive, got {width}")
    if abs(center) + SUPPORT_SIGMAS * width > spec.half_span + 1e-9:
        raise TruncationError(
            f"domain half_span {spec.half_span} cannot hold {SUPPORT_SIGMAS} sigma "
            f"support of a width-{width} Gaussian at {center}"
        )
    x = spec.positions()
    amps = np.exp(-((x - center) ** 2) / (4.0 * width * width))
    amps[np.abs(x - center) > SUPPORT_SIGMAS * width] = 0.0
    wf = GridWavefunction(spec, amps.astype(complex))
    return wf.normalized()


def shift(wf: GridWavefunction, displacement: float) -> GridWavefunction:
    """Translate by an exact node multiple; pure index move.

    Raises TruncationError if any nonzero amplitude would leave the domain.
    """
    steps = displacement / wf.spec.dx
    k = round(steps)
    if abs(steps - k) > 1e-9:
        raise InvalidParameterError(
            f"displacement {displacement} is not an integer multiple of dx={wf.spec.dx}"
        )
    if k == 0:
        return GridWavefunction(wf.spec, wf.amplitudes.copy())
    amps = wf.amplitudes
    out = np.zeros_like(amps)
    if k > 0:
        if np.any(amps[-k:] != 0):
            raise TruncationError("shift would push nonzero amplitude past +half_span")
        out[k:] = amps[:-k]
    else:
        if np.any(amps[:-k] != 0):
            raise TruncationError("shift would push nonzero amplitude past -half_span")
        out[:k] = amps[-k:]
    return GridWavefunction(wf.spec, out)


def apply_block(
    wf: GridWavefunction, mu: float, nu: float
) -> tuple[GridWavefunction, float]:
    """One pre-select / couple / post-select block acting on the pointer,
    with the block's coupling weights mu and nu (see `coupling_weights`).

    Returns the unnormalized output mu * shift(wf, +1) + nu * shift(wf, -1)
    and the block pass weight (output norm^2 over input norm^2).
    """
    plus = shift(wf, +1.0)
    minus = shift(wf, -1.0)
    out = GridWavefunction(wf.spec, mu * plus.amplitudes + nu * minus.amplitudes)
    return out, out.squared_norm() / wf.squared_norm()


def evolve_sequential(
    params: ProtocolParams, spec: GridSpec, mu_offset: float = 0.0
) -> tuple[GridWavefunction, float]:
    """Run the n-block sequential protocol on the grid.

    Returns the normalized final pointer state and the total pass
    probability (product of the per-block weights).

    mu_offset perturbs the +1 coupling amplitude and exists only as a
    negative-control hook for verification tooling; leave it at 0.
    """
    _require_domain(params, spec)
    w = coupling_weights(params)
    wf = init_gaussian(spec, params.delta, 0.0)
    probability = 1.0
    for _ in range(params.n):
        wf, weight = apply_block(wf, w.mu + mu_offset, w.nu)
        probability *= weight
    return wf.normalized(), probability


def _require_domain(params: ProtocolParams, spec: GridSpec) -> None:
    needed = params.n + SUPPORT_SIGMAS * params.delta
    if spec.half_span + 1e-9 < needed:
        raise TruncationError(
            f"half_span {spec.half_span} is below the required n + 8 delta = {needed}"
        )


def _check_joint_budget(params: ProtocolParams, spec: GridSpec) -> None:
    size = (2 ** params.n) * spec.node_count * np.dtype(complex).itemsize
    if size > MAX_JOINT_BYTES:
        raise MemoryGuardError(
            f"joint state needs {size} bytes, over the {MAX_JOINT_BYTES}-byte budget; "
            "reduce n or coarsen the grid"
        )


def evolve_joint(params: ProtocolParams, spec: GridSpec) -> tuple[GridWavefunction, float]:
    """Joint-coupling route: n pre-selected qubits, one shared pointer,
    single sum coupling, then post-selection of every qubit.

    The coupled state holds one pointer row per qubit bitstring (bit set =
    |H>), 2^n x node_count complex entries: row b is the initial Gaussian
    translated by (#H - #V) units and weighted by its pre-selection
    amplitude.  Projecting every qubit onto the post-selection state and
    tracing the qubits out leaves the unnormalized conditional pointer
    state, whose squared norm is the success probability.

    Must agree with evolve_sequential; that equivalence is what makes the
    sequential protocol measure the sum observable.
    """
    _require_domain(params, spec)
    _check_joint_budget(params, spec)
    chi = init_gaussian(spec, params.delta, 0.0)
    n = params.n
    ca, sa = math.cos(params.alpha), math.sin(params.alpha)
    state = np.empty((2 ** n, spec.node_count), dtype=complex)
    for b in range(2 ** n):
        h = bin(b).count("1")
        state[b] = (ca ** h * sa ** (n - h)) * shift(chi, 2 * h - n).amplitudes
    cb, sb = math.cos(params.beta), math.sin(params.beta)
    phi = np.zeros(spec.node_count, dtype=complex)
    for b in range(2 ** n):
        h = bin(b).count("1")
        phi += (cb ** h * sb ** (n - h)) * state[b]
    wf = GridWavefunction(spec, phi)
    return wf.normalized(), wf.squared_norm()


def moments(wf: GridWavefunction) -> tuple[float, float]:
    """Riemann-sum (mean, std) of |psi|^2; expects a normalized input."""
    x = wf.spec.positions()
    dens = (wf.amplitudes.real ** 2 + wf.amplitudes.imag ** 2) * wf.spec.dx
    mean = float(np.dot(x, dens))
    var = float(np.dot(x * x, dens)) - mean * mean
    return mean, math.sqrt(max(var, 0.0))


def cdf(wf: GridWavefunction) -> np.ndarray:
    """Cumulative distribution at the nodes, midpoint convention: node i
    owns half of its own cell mass, so a symmetric density gives exactly
    0.5 at x = 0.  Nondecreasing, final entry 1 (minus half the boundary
    cell, which is empty by construction)."""
    dens = (wf.amplitudes.real ** 2 + wf.amplitudes.imag ** 2) * wf.spec.dx
    return np.cumsum(dens) - 0.5 * dens


def write_density(wf: GridWavefunction, out: TextIO) -> None:
    """Dump (x, |psi|^2) as plot-ready text: header '# x density', one
    tab-separated pair per node."""
    x = wf.spec.positions()
    dens = wf.amplitudes.real ** 2 + wf.amplitudes.imag ** 2
    out.write("# x density\n")
    for xi, di in zip(x, dens):
        out.write(f"{xi:.17g}\t{di:.17g}\n")
