"""Brute-force grid oracle for the sequential weak measurement protocol.

Everything here deliberately avoids the binomial structure of the closed
forms: wavefunctions are sampled on a uniform grid and pushed through the
protocol step by step, so the result can be compared against the analytic
layer as an independent check.

The pointer state is real at every step: the initial Gaussian is real and
each block weights it by the real coupling weights mu and nu.  Amplitudes
are therefore float64 throughout, with no imaginary part to carry.

Two design rules keep the oracle honest:

* GridSpec alone decides the lattice: 1/dx within a relative 1e-9 of an
  integer q makes a pointer unit exactly q nodes.  Shifts move whole units,
  so they are index moves that keep amplitudes bit for bit.  A block shifts
  through `_translation`, which checks truncation; the joint route checks
  the window its rows touch once.
* The initial Gaussian is centred at 0 and cut off hard at 8 sigma, where
  its density is exp(-32) ~ 1.3e-14 of its peak; post-selection divides
  by the pass probability P, so the truncation error grows like
  exp(-32)/P.  The domain, n units beyond the cut (n + 8 delta, computed
  in GridSpec.for_protocol only), keeps every shift on the grid.

The joint-coupling evolution couples n qubits to one shared pointer at
once and post-selects every qubit.  A bitstring's row is the initial
Gaussian weighted and translated by its count of H bits, so there are only
n + 1 distinct rows.  The route sums the 2^n rows pairwise in bitstring
order, and a subtree of that sum depends only on the popcount offset of
its bitstrings, so level l of the tree, whose subtrees span 2^l
bitstrings, has only n + 1 - l distinct sums.  It walks the nodes the rows
touch in blocks of BLOCK_NODES and forms each level once per block,
n(n + 1)/2 adds in place over the block's n + 1 rows, which are read from
cache.  Every node receives the bits of the pairwise
sum over all 2^n bitstrings, each bitstring one leaf, with no binomial
coefficient.  It holds O(nodes) memory while doing n^2 x support work;
sequential and joint paths must agree, which is the protocol's central
equivalence.

Both routes start from the normalized Gaussian and carry the conditional
state unnormalized, so the pass probability is the squared norm of the
final state: the per-block pass weights telescope to it.  Both take that
norm once, in the same routine, which also normalizes the state in place;
a squared norm that underflows to zero is a failed post-selection.  The
norm is an exactly rounded sum: one extraction pass per chunk, whose
residuals are summed in float64 under a rounding bound that certifies the
result, with repeated passes as the fallback when it cannot.
Both refuse grids of more than MAX_GRID_NODES nodes before allocating any;
that node budget is the joint route's only size guard, as its memory is
O(nodes) and its work n(n + 1)/2 adds per node.
A caller that runs both routes (the `oracle` command) builds the initial
Gaussian once with `initial_state` and passes it to each as `initial=`;
neither route writes into it.

Besides its state buffers (the joint route's one, the sequential route's
two, between which its blocks alternate), an evolution allocates only
scratch whose size the grid does not raise past a constant: two exact-sum
buffers of at most EXACT_SUM_CHUNK entries, BLOCK_NODES entries for a
block's weighted translation and n + 1 joint rows of BLOCK_NODES entries,
which also hold the joint route's tree levels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .analytic import ProtocolParams, coupling_weights
from .errors import InvalidParameterError, MemoryGuardError, PostselectionError, TruncationError

# Hard support cutoff of the initial Gaussian, in units of its width.
SUPPORT_SIGMAS = 8.0

# Grid spacing of GridSpec.for_protocol unless one is given.
DEFAULT_DX = 0.01

# Refuse grids of more than this many nodes before any node array exists.
# Building the conditional sampler peaks at ~32 bytes per node (tracemalloc),
# so the budget holds a grid evolution near 800 MB.
MAX_GRID_NODES = 25_000_000

# Entries per chunk of the exact sum: bounds its two scratch buffers, and
# at 2^14 a fallback extraction pass clears 38 bits of the chunk's
# residuals.  A click grid (6-11k nodes) fits in one chunk.  The chunk size
# also sets the fallback rate: for terms that are not negative the
# certificate's bound is B <= 2^(3L - 104) S for a sum S and chunks of 2^L,
# so at L = 14 at most about one sum in a few hundred lies within B of a
# rounding midpoint and falls back; doubling the chunk multiplies that by 8.
EXACT_SUM_CHUNK = 2 ** 14

# Nodes per block of the joint accumulation, and the length of a sequential
# block's scratch buffer.  A larger block means fewer numpy calls
# (n(n + 1)/2 adds per block); at 2^15 the n + 1 rows of an n = 7 oracle
# take 2 MiB, about one L2 cache, and 2^16 raised the oracle's peak memory
# (measured on a 2-CPU Xeon, one process pinned to one CPU).
BLOCK_NODES = 2 ** 15


def _past_float_range(dx: float) -> str:
    return (f"grid_dx {dx} makes the node count overflow a float, over the "
            f"{MAX_GRID_NODES}-node budget; coarsen grid_dx")


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric grid on [-half_span, +half_span], the one place
    that turns dx into node counts.  Lattice rule: 1/dx must lie within a
    relative 1e-9 of an integer q >= 1, and a pointer unit is then exactly
    q = nodes_per_unit nodes.  half_span is rounded up to the nearest node.
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
    def for_protocol(cls, params: ProtocolParams, dx: float = DEFAULT_DX) -> "GridSpec":
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
    """Real wavefunction sampled on the nodes of `spec`; complex input is
    refused."""

    spec: GridSpec
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if np.iscomplexobj(self.amplitudes):
            raise InvalidParameterError("grid amplitudes must be real")
        amps = np.ascontiguousarray(self.amplitudes, dtype=float)
        if amps.shape != (self.spec.node_count,):
            raise InvalidParameterError(
                f"expected {self.spec.node_count} amplitudes, got shape {amps.shape}"
            )
        self.amplitudes = amps

    def squared_norm(self) -> float:
        """Riemann squared norm sum |psi_i|^2 dx, summed exactly and rounded
        once, so the value is independent of where the support sits.  The
        squares are formed chunk by chunk in the exact sum's own buffer,
        never as a node-sized array."""
        return _exact_sum(self.amplitudes, squares=True) * self.spec.dx

    def _normalize(self) -> float:
        """Scales the amplitudes to unit norm in place; returns the squared
        norm before scaling.  A zero norm raises PostselectionError."""
        squared = self.squared_norm()
        norm = math.sqrt(squared)
        if norm <= 0:
            raise PostselectionError("post-selected grid state underflows to zero norm")
        # Times the reciprocal, as numpy divides a complex array by a real
        # scalar: a plain division would move the last bits of the state.
        self.amplitudes *= 1.0 / norm
        return squared


def _exact_sum(values: np.ndarray, *, squares: bool = False) -> float:
    """Correctly rounded sum of a float64 array, or of its squares with
    squares=True, equal to math.fsum of those values.

    One pass of error-free level extraction (Rump, Ogita and Oishi,
    "Accurate floating-point summation", Parts I and II, SIAM J. Sci.
    Comput., 2008) per chunk of m <= 2^L <= EXACT_SUM_CHUNK entries, in two
    reused buffers.  With max|v| < 2^E and sigma = 2^e, e = E + L,
    q = (v + sigma) - sigma and r = v - q are exact, every q is a multiple
    of 2^(e - 53) of magnitude at most 2^E, so the sum of a chunk's q fits
    in 53 bits and numpy's summation order cannot round it; and |r| is at
    most half an ulp of sigma's binade above it, 2^(e - 53).

    The residuals are summed in plain float64.  In any order, m - 1
    additions err by at most gamma_(m-1) sum|r| <= gamma_(m-1) m 2^(e-53)
    (Higham, "Accuracy and Stability of Numerical Algorithms", 4.2), with
    gamma_k = k u / (1 - k u) and u = 2^-53; for m <= 2^14 that is at most
    m^2 2^(e - 106), half of B_c = 2 m^2 2^(e - 106).  The model behind
    gamma holds for subnormal sums too: an addition whose exact result lies
    below 2^-1021 is exact.  A B_c that underflows still bounds the chunk's
    error: that error, a difference of numbers on the 2^-1074 grid, lies on
    it and is at most B_c / 2, so B_c rounded to that grid is no smaller.

    The certificate: with B = sum B_c, the exact total lies within B of
    the parts' (the level sums and the residual sums), so if math.fsum
    rounds the parts plus B and the parts minus B to the same float, that
    float is the correctly rounded total, as rounding to nearest is
    monotone.  Otherwise the exact total lies within B of a rounding
    midpoint, and _exact_sum_by_passes repeats the extraction until every
    residual is zero, as it does for input that is not finite or whose
    sigma would overflow.  Scratch memory is O(EXACT_SUM_CHUNK), whatever
    the input's length.
    """
    size = values.size
    width = min(size, EXACT_SUM_CHUNK)
    level = max(1, (width - 1).bit_length())  # a chunk has at most 2^level entries
    buffer, scratch = np.empty(width), np.empty(width)
    parts: list[float] = []
    bound = 0.0  # B, summed in float: its few rounding errors sit far inside B_c's factor 2
    for start in range(0, size, EXACT_SUM_CHUNK):
        chunk = values[start:start + EXACT_SUM_CHUNK]
        m = chunk.size
        v, q = buffer[:m], scratch[:m]
        if squares:
            np.multiply(chunk, chunk, out=v)
            top = float(v.max())  # squares are not negative
        else:
            v = chunk  # read only: the residuals go to the buffer
            top = float(np.abs(v, out=q).max())
        if top == 0.0:
            continue
        exponent = math.frexp(top)[1] + level
        if not math.isfinite(top) or exponent > 1023:
            return _exact_sum_by_passes(values, squares, buffer, scratch)
        sigma = 2.0 ** exponent
        np.add(v, sigma, out=q)
        q -= sigma
        parts.append(float(q.sum()))
        residuals = np.subtract(v, q, out=buffer[:m])
        parts.append(float(residuals.sum()))
        bound += math.ldexp(m * m, exponent - 105)
    above = math.fsum(parts + [bound])
    if above == math.fsum(parts + [-bound]):
        return above
    return _exact_sum_by_passes(values, squares, buffer, scratch)


def _exact_sum_by_passes(
    values: np.ndarray, squares: bool, buffer: np.ndarray, scratch: np.ndarray,
) -> float:
    """_exact_sum's fallback in _exact_sum's two chunk buffers: the same
    level extraction repeated until every residual is zero.  Each pass
    leaves residuals 52 - L bits smaller, and math.fsum rounds the parts'
    exact total once."""
    size = values.size
    level = max(1, (buffer.size - 1).bit_length())  # a chunk has at most 2^level entries
    parts: list[float] = []
    for start in range(0, size, EXACT_SUM_CHUNK):
        chunk = values[start:start + EXACT_SUM_CHUNK]
        v, q = buffer[:chunk.size], scratch[:chunk.size]
        if squares:
            np.multiply(chunk, chunk, out=v)
        else:
            np.copyto(v, chunk)
        while True:
            top = float(np.abs(v, out=q).max())
            if top == 0.0:
                break
            if not math.isfinite(top):  # inf or nan in the input
                return float(np.sum(values * values if squares else values))
            exponent = math.frexp(top)[1] + level
            if exponent > 1023:  # sigma would overflow: first pass only
                parts.extend(v.tolist())
                break
            sigma = 2.0 ** exponent
            np.add(v, sigma, out=q)
            q -= sigma
            parts.append(float(q.sum()))
            v -= q
    return math.fsum(parts)


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
    # Node i sits at i dx, which grows with i, so the nodes within the cutoff
    # are the contiguous run -k..k; exp is evaluated on that run only.
    cut = SUPPORT_SIGMAS * width
    m = spec.half_nodes
    k = min(m, math.floor(cut / spec.dx))
    while k < m and (k + 1) * spec.dx <= cut:
        k += 1
    while k * spec.dx > cut:
        k -= 1
    amps = np.zeros(spec.node_count)
    support = amps[m - k:m + k + 1]
    np.multiply(np.arange(-k, k + 1), spec.dx, out=support)
    np.square(support, out=support)
    np.negative(support, out=support)
    support /= 4.0 * width * width
    np.exp(support, out=support)
    wf = GridWavefunction(spec, amps)
    wf._normalize()
    return wf


def _translation(amps: np.ndarray, spec: GridSpec, units: int) -> tuple[slice, slice]:
    """Slices (dst, src), out[dst] = amps[src], moving node values `amps` by
    `units` pointer units, units * spec.nodes_per_unit nodes; raises
    TruncationError if nonzero amplitude would leave."""
    k = units * spec.nodes_per_unit
    if k > 0:
        if np.any(amps[-k:] != 0):
            raise TruncationError("shift would push nonzero amplitude past +half_span")
        return slice(k, None), slice(None, -k)
    if k < 0:
        if np.any(amps[:-k] != 0):
            raise TruncationError("shift would push nonzero amplitude past -half_span")
        return slice(None, k), slice(-k, None)
    return slice(None), slice(None)


def _block_into(
    out: np.ndarray, amps: np.ndarray, spec: GridSpec, mu: float, nu: float,
    scratch: np.ndarray,
) -> None:
    """The one block kernel: writes mu * (amps moved by +1) + nu * (amps
    moved by -1) into `out`, which must not overlap `amps`.  The nu products
    pass through `scratch` a block at a time and are added in place."""
    dst, src = _translation(amps, spec, +1)
    np.multiply(amps[src], mu, out=out[dst])
    out[:dst.start] = 0.0  # the first unit's nodes get no +1 term
    dst, src = _translation(amps, spec, -1)
    into, amps = out[dst], amps[src]
    for start in range(0, amps.size, scratch.size):
        part = scratch[:min(scratch.size, amps.size - start)]
        np.multiply(amps[start:start + part.size], nu, out=part)
        into[start:start + part.size] += part


def initial_state(params: ProtocolParams, spec: GridSpec) -> GridWavefunction:
    """The normalized initial Gaussian of both routes, for a caller that
    runs both on one grid and passes it to each as `initial=`.

    Runs the routes' shared guard first, so nothing is allocated for a
    grid that either route would refuse."""
    _require_domain(params, spec)
    return init_gaussian(spec, params.delta)


def _start(params: ProtocolParams, spec: GridSpec, initial: GridWavefunction | None) -> np.ndarray:
    """Amplitudes a route starts from: `initial`'s, read only, or a fresh
    init_gaussian(spec, params.delta)."""
    if initial is None:
        return init_gaussian(spec, params.delta).amplitudes
    if initial.spec != spec:
        raise InvalidParameterError(
            f"initial state lives on {initial.spec}, not on the evolution's {spec}")
    return initial.amplitudes


def evolve_sequential(
    params: ProtocolParams, spec: GridSpec, mu_offset: float = 0.0, *,
    initial: GridWavefunction | None = None,
) -> tuple[GridWavefunction, float]:
    """Run the n-block sequential protocol on the grid.

    Returns the normalized final pointer state and the total pass
    probability: the squared norm of the unnormalized final state, since
    the initial Gaussian is normalized.  evolve_joint computes its
    probability the same way.

    `initial`, if given, must be init_gaussian(spec, params.delta) (see
    `initial_state`); it is read, never written.  The blocks alternate
    between two node buffers; without `initial`, the Gaussian built here
    is one of them.

    mu_offset perturbs the +1 coupling amplitude and exists only as a
    negative-control hook for verification tooling; leave it at 0.
    """
    _require_domain(params, spec)
    w = coupling_weights(params)
    amps = _start(params, spec, initial)
    # A Gaussian built here is the route's own, so it is the second buffer.
    spare = amps if initial is None else np.empty(spec.node_count)
    buffers = (np.empty(spec.node_count), spare)
    scratch = np.empty(min(BLOCK_NODES, spec.node_count))
    for i in range(params.n):
        out = buffers[i % 2]
        _block_into(out, amps, spec, w.mu + mu_offset, w.nu, scratch)
        amps = out
    wf = GridWavefunction(spec, amps)
    return wf, wf._normalize()


def _require_domain(params: ProtocolParams, spec: GridSpec) -> None:
    if spec.node_count > MAX_GRID_NODES:
        raise MemoryGuardError(
            f"grid of {spec.node_count} nodes, over the {MAX_GRID_NODES}-node "
            f"budget; coarsen grid_dx or reduce delta"
        )
    required = GridSpec.for_protocol(params, spec.dx)
    if spec.half_nodes < required.half_nodes:
        raise TruncationError(
            f"half_span {spec.half_span} is below the required n + "
            f"{SUPPORT_SIGMAS:g} delta = {required.half_span}")


def evolve_joint(
    params: ProtocolParams, spec: GridSpec, *, initial: GridWavefunction | None = None,
) -> tuple[GridWavefunction, float]:
    """Joint-coupling route: n pre-selected qubits, one shared pointer,
    single sum coupling, then post-selection of every qubit.

    The coupled state has one pointer row per qubit bitstring (bit set =
    |H>): row b is the initial Gaussian translated by (#H - #V) units and
    weighted by its pre-selection amplitude.  Projecting every qubit onto
    the post-selection state and tracing the qubits out is linear in the
    rows, so each row is projected, post * (pre * chi), and the 2^n rows
    are summed pairwise in bitstring order: rows 2k and 2k + 1, then
    adjacent pairs, and so on.  A row depends only on its count h of H
    bits, so the subtree over 2^l bitstrings at popcount offset h is
    S_l[h] = S_(l-1)[h] + S_(l-1)[h+1], with S_0[h] row h.  The nodes the
    rows touch are walked in blocks of BLOCK_NODES: per block, the n + 1
    rows are formed once in a buffer of (n + 1) x BLOCK_NODES entries at
    most, and the buffer's rows are overwritten by each level in turn,
    n(n + 1)/2 adds, the last into the state.  Each node receives exactly
    the pairwise sum of all 2^n materialized rows.  The rows cancel (mu and
    nu have opposite signs), so the pairwise order is no more accurate
    here than a left-to-right sum: against an exactly rounded sum at
    preset a's angles, the error relative to the state's peak is 3.6e-12
    at n = 12, about twice a left-to-right sum's.  The sum is the
    unnormalized conditional pointer state, whose squared norm is the
    success probability.

    `initial`, if given, must be init_gaussian(spec, params.delta) (see
    `initial_state`); it is read, never written.

    Must agree with evolve_sequential; that equivalence is what makes the
    sequential protocol measure the sum observable.
    """
    _require_domain(params, spec)
    chi = _start(params, spec, initial)
    n = params.n
    ca, sa = math.cos(params.alpha), math.sin(params.alpha)
    cb, sb = math.cos(params.beta), math.sin(params.beta)
    # Row h is chi's nonzero support [lo, hi) moved by 2h - n units, so the
    # rows touch [first, stop), which must lie on the grid.
    lo, hi = int(np.argmax(chi != 0)), chi.size - int(np.argmax(chi[::-1] != 0))
    unit = spec.nodes_per_unit
    first, stop = lo - n * unit, hi + n * unit
    if first < 0 or stop > chi.size:
        side = "-" if first < 0 else "+"
        raise TruncationError(f"shift would push nonzero amplitude past {side}half_span")
    pre = [ca ** h * sa ** (n - h) for h in range(n + 1)]
    post = [cb ** h * sb ** (n - h) for h in range(n + 1)]
    phi = np.zeros(spec.node_count)
    rows = np.empty((n + 1, min(BLOCK_NODES, stop - first)))
    for begin in range(first, stop, BLOCK_NODES):
        end = min(begin + BLOCK_NODES, stop)
        level = rows[:, :end - begin]
        for h in range(n + 1):
            # Row h is chi's support moved by s nodes; [a, z) is its part in
            # this block, possibly empty.  Off it the row holds the zero a
            # materialized row would, (0 * pre) * post, sign included.
            s = (2 * h - n) * unit
            a = max(begin, lo + s)
            z = max(a, min(end, hi + s))
            row = level[h]
            row[:a - begin] = row[z - begin:] = 0.0 * pre[h] * post[h]
            part = row[a - begin:z - begin]
            np.multiply(chi[a - s:z - s], pre[h], out=part)
            part *= post[h]
        # Level l overwrites row h with S_l[h] in ascending h, so row h + 1
        # still holds S_(l-1)[h+1] when row h reads it.
        for count in range(n, 1, -1):
            for h in range(count):
                level[h] += level[h + 1]
        np.add(level[0], level[1], out=phi[begin:end])
    wf = GridWavefunction(spec, phi)
    return wf, wf._normalize()


def moments(wf: GridWavefunction) -> tuple[float, float]:
    """Riemann-sum (mean, std) of |psi|^2; expects a normalized input."""
    x = wf.spec.positions()
    dens = wf.amplitudes * wf.amplitudes
    dens *= wf.spec.dx
    product = x * dens
    mean = float(np.sum(product))
    np.multiply(x, x, out=product)
    product *= dens
    var = float(np.sum(product)) - mean * mean
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
