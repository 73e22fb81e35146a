"""Brute-force grid oracle for the sequential weak measurement protocol.

Everything here deliberately avoids the binomial structure of the closed
forms: wavefunctions are sampled on a uniform grid and pushed through the
protocol step by step, so the result can be compared against the analytic
layer as an independent check.

The pointer state is real at every step: the initial Gaussian is real and
each block weights it by the real coupling weights mu and nu.  Amplitudes
are therefore float64 throughout, with no imaginary part to carry.

Two design rules keep the oracle honest:

* Grid spacings satisfy 1/dx = integer, so the unit pointer translations
  of the coupling land exactly on nodes.  Shifts are pure index moves,
  never interpolations, and preserve amplitudes bit for bit; one helper,
  `_translation`, computes them and checks truncation for both routes.
* The initial Gaussian is centred at 0 and cut off hard at 8 sigma
  (relative mass below 1e-14), and the domain must extend at least n
  units beyond that, so no shift ever pushes nonzero amplitude off the edge.

The joint-coupling evolution couples n qubits to one shared pointer at
once and post-selects every qubit: for each of the 2^n bitstrings in
turn it weights the initial Gaussian's support into one reused buffer and
adds it into the conditional state at the bitstring's translation, so it
holds O(nodes) memory while doing 2^n x support work; sequential and
joint paths must agree, which is the protocol's central equivalence.

Both routes start from the normalized Gaussian and carry the conditional
state unnormalized, so the pass probability is the squared norm of the
final state: the per-block pass weights telescope to it.  Both take that
norm once, in the same routine, which also normalizes the state.  Both
refuse grids of more than MAX_GRID_NODES nodes before allocating any.
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

# Refuse joint evolutions that would touch more than this many entries
# (2**n bitstring rows x node_count nodes).
MAX_JOINT_ENTRIES = 2 ** 27

# Refuse grids of more than this many nodes before any node array exists.
# Building the conditional sampler peaks at ~40 bytes per node (tracemalloc),
# so the budget holds a grid evolution near 1 GB.
MAX_GRID_NODES = 25_000_000

# Entries per pass of the exact sum: bounds its temporaries and its bins.
EXACT_SUM_CHUNK = 2 ** 16


def _past_float_range(dx: float) -> str:
    return (f"grid_dx {dx} makes the node count overflow a float, over the "
            f"{MAX_GRID_NODES}-node budget; coarsen grid_dx")


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
        if not math.isfinite(1.0 / self.dx):
            raise MemoryGuardError(_past_float_range(self.dx))
        q = round(1.0 / self.dx)
        if q < 1 or abs(q * self.dx - 1.0) > 1e-9:
            raise InvalidParameterError(
                f"1/dx must be a positive integer (unit shifts must land on nodes), got dx={self.dx}"
            )
        if not (math.isfinite(self.half_span) and self.half_span > 0):
            raise InvalidParameterError(f"half_span must be positive, got {self.half_span}")
        if not math.isfinite(self.half_span / self.dx):
            raise MemoryGuardError(_past_float_range(self.dx))
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
    """Real wavefunction sampled on the nodes of `spec`.

    Complex input is accepted only with a zero imaginary part, and is
    stored as its real part."""

    spec: GridSpec
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        if np.iscomplexobj(amps):
            if np.any(amps.imag != 0):
                raise InvalidParameterError("grid amplitudes must be real")
            amps = amps.real
        amps = np.ascontiguousarray(amps, dtype=float)
        if amps.shape != (self.spec.node_count,):
            raise InvalidParameterError(
                f"expected {self.spec.node_count} amplitudes, got shape {amps.shape}"
            )
        self.amplitudes = amps

    def squared_norm(self) -> float:
        """Riemann squared norm sum |psi_i|^2 dx, summed exactly and rounded
        once, so the value is independent of where the support sits."""
        return _exact_sum(self.amplitudes * self.amplitudes) * self.spec.dx

    def normalized(self) -> "GridWavefunction":
        return self._normalized_with_norm()[0]

    def _normalized_with_norm(self) -> tuple["GridWavefunction", float]:
        """The state scaled to unit norm, and its squared norm before scaling."""
        squared = self.squared_norm()
        norm = math.sqrt(squared)
        if norm <= 0:
            raise InvalidParameterError("cannot normalize a zero wavefunction")
        # Times the reciprocal, as numpy divides a complex array by a real
        # scalar: a plain division would move the last bits of the state.
        return GridWavefunction(self.spec, self.amplitudes * (1.0 / norm)), squared


def _exact_sum(values: np.ndarray) -> float:
    """Correctly rounded sum of a float64 array, equal to math.fsum.

    np.frexp gives each value as M 2^(b - 1127), integer |M| < 2^53, bin b >= 1.
    np.bincount sums M's parts above and below 2^27 per bin, exactly (below
    2^53 over EXACT_SUM_CHUNK entries); one Python int / int division rounds.
    """
    if not np.isfinite(values).all():
        return float(np.sum(values))  # inf or nan
    total = 0
    for start in range(0, values.size, EXACT_SUM_CHUNK):
        mantissa, exponent = np.frexp(values[start:start + EXACT_SUM_CHUNK])
        mantissa *= 2.0 ** 53
        high = np.floor(mantissa * 2.0 ** -27)
        mantissa -= high * 2.0 ** 27
        exponent += 1074
        for part, scale in ((high, 27), (mantissa, 0)):
            bins = np.bincount(exponent, weights=part)
            for i in np.flatnonzero(bins).tolist():
                total += int(bins[i]) << (i + scale)
    return total / (1 << 1127)


def init_gaussian(spec: GridSpec, width: float) -> GridWavefunction:
    """Normalized Gaussian amplitude exp(-x^2 / 4 width^2) centred at 0, with
    hard support cutoff at `SUPPORT_SIGMAS` times the width.

    Raises TruncationError if the cut support does not fit the domain.
    """
    if not (math.isfinite(width) and width > 0):
        raise InvalidParameterError(f"width must be positive, got {width}")
    if SUPPORT_SIGMAS * width > spec.half_span + 1e-9:
        raise TruncationError(
            f"domain half_span {spec.half_span} cannot hold {SUPPORT_SIGMAS} sigma "
            f"support of a width-{width} Gaussian"
        )
    x = spec.positions()
    inside = np.abs(x) <= SUPPORT_SIGMAS * width
    amps = np.zeros(spec.node_count)
    amps[inside] = np.exp(-(x[inside] ** 2) / (4.0 * width * width))
    return GridWavefunction(spec, amps).normalized()


def _translation(amps: np.ndarray, spec: GridSpec, displacement: float) -> tuple[slice, slice]:
    """Slices (dst, src), out[dst] = amps[src], moving node values `amps` by
    `displacement`; raises TruncationError if nonzero amplitude would leave."""
    steps = displacement / spec.dx
    k = round(steps)
    if abs(steps - k) > 1e-9:
        raise InvalidParameterError(
            f"displacement {displacement} is not an integer multiple of dx={spec.dx}"
        )
    if k > 0:
        if np.any(amps[-k:] != 0):
            raise TruncationError("shift would push nonzero amplitude past +half_span")
        return slice(k, None), slice(None, -k)
    if k < 0:
        if np.any(amps[:-k] != 0):
            raise TruncationError("shift would push nonzero amplitude past -half_span")
        return slice(None, k), slice(-k, None)
    return slice(None), slice(None)


def apply_block(wf: GridWavefunction, mu: float, nu: float) -> GridWavefunction:
    """One pre-select / couple / post-select block acting on the pointer,
    with the block's coupling weights mu and nu (see `coupling_weights`).

    Returns the unnormalized output, mu times wf moved by +1 plus nu times
    wf moved by -1; its squared norm over the input's is the block's pass
    weight.  Weights (1, 0) and (0, 1) give the exact unit shifts.
    """
    amps = wf.amplitudes
    dst_plus, src_plus = _translation(amps, wf.spec, +1.0)
    dst_minus, src_minus = _translation(amps, wf.spec, -1.0)
    out = np.zeros_like(amps)
    np.multiply(amps[src_plus], mu, out=out[dst_plus])
    minus = np.multiply(amps[src_minus], nu)
    out[dst_minus] += minus
    return GridWavefunction(wf.spec, out)


def evolve_sequential(
    params: ProtocolParams, spec: GridSpec, mu_offset: float = 0.0
) -> tuple[GridWavefunction, float]:
    """Run the n-block sequential protocol on the grid.

    Returns the normalized final pointer state and the total pass
    probability: the squared norm of the unnormalized final state, since
    the initial Gaussian is normalized.  evolve_joint computes its
    probability the same way.

    mu_offset perturbs the +1 coupling amplitude and exists only as a
    negative-control hook for verification tooling; leave it at 0.
    """
    _require_domain(params, spec)
    w = coupling_weights(params)
    wf = init_gaussian(spec, params.delta)
    for _ in range(params.n):
        wf = apply_block(wf, w.mu + mu_offset, w.nu)
    return wf._normalized_with_norm()


def _require_domain(params: ProtocolParams, spec: GridSpec) -> None:
    if spec.node_count > MAX_GRID_NODES:
        raise MemoryGuardError(
            f"grid of {spec.node_count} nodes, over the {MAX_GRID_NODES}-node "
            f"budget; coarsen grid_dx or reduce delta"
        )
    needed = params.n + SUPPORT_SIGMAS * params.delta
    if spec.half_span + 1e-9 < needed:
        raise TruncationError(
            f"half_span {spec.half_span} is below the required n + 8 delta = {needed}"
        )


def _check_joint_budget(params: ProtocolParams, spec: GridSpec) -> None:
    entries = (2 ** params.n) * spec.node_count
    if entries > MAX_JOINT_ENTRIES:
        raise MemoryGuardError(
            f"joint evolution touches {entries} entries, over the "
            f"{MAX_JOINT_ENTRIES}-entry budget; reduce n or coarsen the grid"
        )


def evolve_joint(params: ProtocolParams, spec: GridSpec) -> tuple[GridWavefunction, float]:
    """Joint-coupling route: n pre-selected qubits, one shared pointer,
    single sum coupling, then post-selection of every qubit.

    The coupled state has one pointer row per qubit bitstring (bit set =
    |H>): row b is the initial Gaussian translated by (#H - #V) units and
    weighted by its pre-selection amplitude.  Projecting every qubit onto
    the post-selection state and tracing the qubits out is linear in the
    rows, so each row is projected as soon as it is built, in bitstring
    order, as post * (pre * chi) in one reused buffer that spans chi's
    nonzero support only.  The sum is the unnormalized conditional pointer
    state, whose squared norm is the success probability.

    Must agree with evolve_sequential; that equivalence is what makes the
    sequential protocol measure the sum observable.
    """
    _require_domain(params, spec)
    _check_joint_budget(params, spec)
    chi = init_gaussian(spec, params.delta).amplitudes
    n = params.n
    ca, sa = math.cos(params.alpha), math.sin(params.alpha)
    cb, sb = math.cos(params.beta), math.sin(params.beta)
    # A row's translation depends only on its count of H bits, so the n + 1
    # translations are checked once, in the order the bitstrings reach them;
    # they keep chi's nonzero support [lo, hi) on the grid at every shift.
    for h in range(n + 1):
        _translation(chi, spec, 2 * h - n)
    support = np.flatnonzero(chi)
    lo, hi = int(support[0]), int(support[-1]) + 1
    chi = chi[lo:hi]
    phi = np.zeros(spec.node_count)
    row = np.empty(hi - lo)
    for b in range(2 ** n):
        h = bin(b).count("1")
        s = (2 * h - n) * spec.nodes_per_unit
        np.multiply(chi, ca ** h * sa ** (n - h), out=row)
        np.multiply(row, cb ** h * sb ** (n - h), out=row)
        phi[lo + s:hi + s] += row
    return GridWavefunction(spec, phi)._normalized_with_norm()


def moments(wf: GridWavefunction) -> tuple[float, float]:
    """Riemann-sum (mean, std) of |psi|^2; expects a normalized input."""
    x = wf.spec.positions()
    dens = (wf.amplitudes * wf.amplitudes) * wf.spec.dx
    mean = float(np.sum(x * dens))
    var = float(np.sum(x * x * dens)) - mean * mean
    return mean, math.sqrt(max(var, 0.0))


def cdf(wf: GridWavefunction) -> np.ndarray:
    """Cumulative distribution at the nodes, midpoint convention: node i
    owns half of its own cell mass, so a symmetric density gives exactly
    0.5 at x = 0.  Nondecreasing, final entry 1 (minus half the boundary
    cell, which is empty by construction)."""
    dens = (wf.amplitudes * wf.amplitudes) * wf.spec.dx
    return np.cumsum(dens) - 0.5 * dens


def write_density(wf: GridWavefunction, out: TextIO) -> None:
    """Dump (x, |psi|^2) as plot-ready text: header '# x density', one
    tab-separated pair per node."""
    x = wf.spec.positions()
    dens = wf.amplitudes * wf.amplitudes
    out.write("# x density\n")
    for xi, di in zip(x, dens):
        out.write(f"{xi:.17g}\t{di:.17g}\n")
