"""Property tests of the closed-form moment kernel, the grid's exact sum,
CDF, whole-unit shifts and two evolutions against each other and the
closed forms, the Monte Carlo acceptance stream, inverse-CDF lookup and
histogram, and the command line's mapping of errors to exit codes.

Kernel settings are drawn over 1 <= n <= MAX_BLOCKS, any finite angles
(with the orthogonal and eigenstate angles drawn on purpose) and pointer
widths from 1e-6 to 1e6.  derandomize makes every run draw the same
examples.
"""
import contextlib
import dataclasses
import io
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from wvsim import (  # noqa: E402
    PRESETS,
    DetectorModel,
    GridSpec,
    PostselectionError,
    ProtocolParams,
    cdf,
    conditional_moments,
    evolve_joint,
    evolve_sequential,
    first_click,
    moments,
    run_trials,
)
from wvsim.analytic import MAX_BLOCKS, MAX_DELTA, MIN_DELTA, _moment_integrals  # noqa: E402
from wvsim import grid  # noqa: E402
from wvsim.cli import COMMAND_KEYS, main  # noqa: E402
from wvsim.grid import (  # noqa: E402
    EXACT_SUM_CHUNK, MAX_GRID_NODES, _exact_sum, init_gaussian,
)
from wvsim.montecarlo import (  # noqa: E402
    _ACCEPT_STREAM,
    _GAP_BATCH,
    _accepted_batches,
    _clicks,
    _conditional_sampler,
    _ConditionalSampler,
    _first_uniforms,
    write_histogram,
)

from conftest import translated  # noqa: E402

blocks = st.integers(1, MAX_BLOCKS)
angles = st.one_of(
    st.floats(-2.0 * math.pi, 2.0 * math.pi),
    st.sampled_from([0.0, math.pi / 4, math.pi / 2, math.pi, -math.pi / 2]),
)
widths = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)
# Up to 12 points: at n = MAX_BLOCKS and delta <= 0.1 a chunk of the
# kernel holds 4, so a draw spans several chunks.
settings_lists = st.lists(st.tuples(angles, angles), min_size=1, max_size=12)

kernel_settings = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def weights(pairs):
    """(mu, nu) lists as coupling_weights computes them."""
    mu = [math.cos(a) * math.cos(b) for a, b in pairs]
    nu = [math.sin(a) * math.sin(b) for a, b in pairs]
    return mu, nu


@kernel_settings
@given(n=blocks, delta=widths, pairs=settings_lists)
def test_array_kernel_equals_length_one_kernel(n, delta, pairs):
    mu, nu = weights(pairs)
    whole = _moment_integrals(n, mu, nu, delta)
    for i in range(len(mu)):
        single = _moment_integrals(n, mu[i:i + 1], nu[i:i + 1], delta)
        for got, want in zip(whole, single):
            assert np.array_equal(got[i:i + 1], want, equal_nan=True)


@kernel_settings
@given(n=blocks, delta=widths, pairs=settings_lists)
def test_swapped_weights_negate_mean_exactly(n, delta, pairs):
    mu, nu = weights(pairs)
    probability, mean, variance, failed = _moment_integrals(n, mu, nu, delta)
    p_swap, mean_swap, var_swap, failed_swap = _moment_integrals(n, nu, mu, delta)
    assert np.array_equal(failed, failed_swap)
    ok = ~failed
    assert np.array_equal(mean[ok], -mean_swap[ok])
    assert np.array_equal(probability[ok], p_swap[ok])
    assert np.array_equal(variance[ok], var_swap[ok])


@kernel_settings
@given(n=blocks, alpha=angles, beta=angles, delta=widths)
def test_probability_and_width_in_range(n, alpha, beta, delta):
    try:
        m = conditional_moments(ProtocolParams(n=n, alpha=alpha, beta=beta, delta=delta))
    except PostselectionError:
        return
    # P = 1 exactly at an eigenstate setting; the normalized trapezoid sum
    # rounds that to within a few ulps either side.
    assert 0.0 < m.probability <= 1.0 + 4 * sys.float_info.epsilon
    assert m.std > 0.0


# Doubles of either sign with any exponent: subnormals, zeros and spreads
# far wider than 53 bits.  Exponents stop at 1000 so no sum overflows.
wide_floats = st.one_of(
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1080, 1000)),
    st.just(0.0),
    st.floats(0.0, 1.0),
    st.floats(-1e-300, 1e-300),
)
# Arrays whose exponents share an 80-bit window somewhere in the range, so
# that rounding and cancellation differ between summation orders.
windowed_arrays = st.integers(-1080, 920).flatmap(lambda low: st.lists(
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(low, low + 80)), max_size=200))
float_arrays = st.one_of(st.lists(wide_floats, max_size=200), windowed_arrays).map(np.array)


@kernel_settings
@given(values=float_arrays)
@example(values=np.array([1.5 * 2.0 ** 1022, -1.5 * 2.0 ** 1022, 3.0]))
@example(values=np.array([2.0 ** 1023, -2.0 ** 1023] * 5 + [5e-324]))
def test_exact_sum_equals_fsum(values):
    # The examples' top exponent plus the chunk's level passes 1023, where
    # the extraction constant would overflow.
    assert _exact_sum(values) == math.fsum(values)


@pytest.mark.parametrize("squares", [False, True])
@pytest.mark.parametrize("special", [math.inf, -math.inf, math.nan])
def test_exact_sum_of_inf_or_nan_terminates(special, squares):
    # The value of numpy's plain sum, with no extraction pass on a non-finite.
    values = np.array([1.0, special, 2.0 ** -1074, 3.0])
    expected = special * special if squares else special
    result = _exact_sum(values, squares=squares)
    assert result == expected or (math.isnan(expected) and math.isnan(result))


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(
    pattern=st.lists(wide_floats, min_size=1, max_size=40),
    length=st.sampled_from([1, 2, 41]).flatmap(
        lambda chunks: st.integers(chunks * EXACT_SUM_CHUNK - 3, chunks * EXACT_SUM_CHUNK + 3)),
)
@example(pattern=[1.0, -3.0e-300, 2.0 ** 60, -2.0 ** 60, 5e-324], length=41 * EXACT_SUM_CHUNK + 3)
def test_exact_sum_equals_fsum_across_chunks(pattern, length):
    values = np.resize(np.array(pattern), length)
    assert _exact_sum(values) == math.fsum(values)
    roots = np.sqrt(np.abs(values))  # squares of the same spread that cannot overflow
    assert _exact_sum(roots, squares=True) == math.fsum(roots * roots)


def test_exact_sum_worst_case_carry():
    # Every entry has an all-ones mantissa, so every entry's extracted part
    # rounds up to the chunk's bound 2^E and a full chunk's parts sum to
    # exactly 2^(E + L), the largest level sum there is, over every chunk
    # of the largest grid the node budget admits.  A broadcast view holds
    # the full length in no memory.
    value = float(np.nextafter(2.0, 0.0))
    values = np.broadcast_to(value, (MAX_GRID_NODES,))
    exact = float(Fraction(value) * MAX_GRID_NODES)  # correctly rounded, as fsum
    assert _exact_sum(values) == exact
    assert _exact_sum(-values) == -exact


@pytest.mark.parametrize("squares", [False, True])
def test_exact_sum_memory_is_one_chunk(squares):
    values = np.random.default_rng(3).standard_normal(10 ** 6)
    tracemalloc.start()
    try:
        _exact_sum(values, squares=squares)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Two chunk buffers and a short list of parts, against 8 MB of input.
    assert peak < 2 * 8 * EXACT_SUM_CHUNK + 2 ** 16


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts _exact_sum's fallbacks to repeated extraction passes."""
    calls = []
    real = grid._exact_sum_by_passes

    def counting(*args):
        calls.append(args[0].size)
        return real(*args)

    monkeypatch.setattr(grid, "_exact_sum_by_passes", counting)
    return calls


MIDPOINT = 1 + Fraction(2) ** -53  # halfway between 1 and the next float


@pytest.mark.parametrize("boundary", [False, True])
@pytest.mark.parametrize("values, squares, expected", [
    # One pass rounds the residuals 2^-53 and +-2^-200 to 2^-53, the
    # midpoint itself, and the bound B brackets it: the certificate cannot
    # decide, so the sum falls back.
    ([1.0, 2.0 ** -53, 2.0 ** -200], False, 1.0 + 2.0 ** -52),
    ([1.0, 2.0 ** -53, -2.0 ** -200], False, 1.0),
    # Squares 1, 2^-54, 2^-54 and 2^-200 sum to just above the midpoint, and
    # with 2^-54 - 2^-106 for one of the 2^-54 to just below it.
    ([1.0, 2.0 ** -27, 2.0 ** -27, 2.0 ** -100], True, 1.0 + 2.0 ** -52),
    ([1.0, 2.0 ** -27, float(np.nextafter(2.0 ** -27, 0.0)), 2.0 ** -100], True, 1.0),
])
def test_exact_sum_falls_back_near_a_midpoint(values, squares, expected, boundary, fallbacks):
    array = np.array(values)
    if boundary:  # the first value ends a chunk, the others open the next
        array = np.concatenate([np.zeros(EXACT_SUM_CHUNK - 1), array, np.zeros(2)])
    terms = array * array if squares else array
    assert abs(sum(map(Fraction, terms[terms != 0])) - MIDPOINT) < Fraction(2) ** -90
    assert _exact_sum(array, squares=squares) == math.fsum(terms) == expected
    assert fallbacks == [array.size]


@pytest.mark.parametrize("scale", [3e-162, 2.0 ** -506])
def test_exact_sum_of_subnormal_squares(scale, fallbacks):
    """Squares near 9e-324 are subnormal and so is every residual; near
    2^-1012 the squares are normal but their residuals and the bound B_c
    are subnormal.  B_c underflows to zero near 9e-324 and in the short
    last chunk near 2^-1012, so the certificate holds trivially.  That is
    safe: every residual lies on the 2^-1074 grid and every partial sum of
    them stays below 2^-1021, where an addition is exact, so the residual
    sums have no rounding error to bound.  Three chunks, the last short."""
    roots = scale * np.random.default_rng(11).uniform(0.5, 1.5, 2 * EXACT_SUM_CHUNK + 7)
    assert _exact_sum(roots, squares=True) == math.fsum(roots * roots)
    assert _exact_sum(-roots, squares=True) == math.fsum(roots * roots)
    assert fallbacks == []


def test_exact_sum_certifies_oracle_and_click_norms(fallbacks, monkeypatch):
    # Every norm of the oracle on presets a-d and of 50 click_scan-style
    # sampler builds (n = 7, alpha 0.62, beta 2.3-2.8, delta 3-6) is
    # certified in one pass.
    norms = []
    real = grid._exact_sum

    def counting(values, **kwargs):
        norms.append(values.size)
        return real(values, **kwargs)

    monkeypatch.setattr(grid, "_exact_sum", counting)
    for label in "abcd":
        for dx in ("0.01", "0.001"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["oracle", "--preset", label, "--grid_dx", dx]) == 0
    draw = np.random.default_rng(13)
    for beta, delta in zip(draw.uniform(2.3, 2.8, 50), draw.uniform(3.0, 6.0, 50)):
        params = ProtocolParams(n=7, alpha=0.62, beta=float(beta), delta=float(delta))
        _conditional_sampler.__wrapped__(params, GridSpec.for_protocol(params))
    assert len(norms) == 8 * 3 + 50 * 2
    assert fallbacks == []


@kernel_settings
@given(n=st.integers(1, 10), alpha=angles, beta=angles,
       delta=st.floats(0.5, 4.0), dx=st.sampled_from([0.1, 0.05, 0.02]))
def test_cdf_nondecreasing(n, alpha, beta, delta, dx):
    params = ProtocolParams(n=n, alpha=alpha, beta=beta, delta=delta)
    try:
        conditional_moments(params)
    except PostselectionError:
        return
    wf, _ = evolve_sequential(params, GridSpec.for_protocol(params, dx=dx))
    assert np.all(np.diff(cdf(wf)) >= 0.0)


grid_settings = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def grid_setting(n, alpha, beta, delta):
    """The setting, its closed-form moments and its dx 0.05 grid, or None
    where post-selection is orthogonal."""
    params = ProtocolParams(n=n, alpha=alpha, beta=beta, delta=delta)
    try:
        m = conditional_moments(params)
    except PostselectionError:
        return None
    return params, m, GridSpec.for_protocol(params, dx=0.05)


@grid_settings
@given(n=st.integers(1, 12), alpha=angles, beta=angles, delta=st.floats(0.5, 6.0))
def test_sequential_equals_joint(n, alpha, beta, delta):
    found = grid_setting(n, alpha, beta, delta)
    if found is None:
        return
    params, _, spec = found
    seq, p_seq = evolve_sequential(params, spec)
    joint, p_joint = evolve_joint(params, spec)
    l2 = math.sqrt(float(np.sum((seq.amplitudes - joint.amplitudes) ** 2)) * spec.dx)
    assert l2 < 1e-9
    assert p_seq == pytest.approx(p_joint, rel=1e-12, abs=0)


@grid_settings
@given(n=st.integers(1, 8), alpha=angles, beta=angles, delta=st.floats(0.5, 6.0))
def test_grid_matches_closed_forms(n, alpha, beta, delta):
    found = grid_setting(n, alpha, beta, delta)
    if found is None:
        return
    params, m, spec = found
    wf, probability = evolve_sequential(params, spec)
    mean, std = moments(wf)
    assert probability == pytest.approx(m.probability, rel=1e-6, abs=0)
    assert std == pytest.approx(m.std, rel=1e-6, abs=0)
    assert abs(mean - m.mean) <= 1e-6 * max(1.0, abs(m.mean))


@grid_settings
@given(q=st.integers(1, 1000), r=st.floats(-0.9e-9, 0.9e-9))
@example(q=1000, r=1e-10)
@example(q=100, r=5e-10)
def test_shifts_move_whole_units(q, r):
    # dx = (1 + r)/q passes GridSpec's lattice rule, so a pointer unit is q
    # nodes exactly, though 1/dx sits up to ~1e-6 from q at q = 1000.
    params = ProtocolParams(n=2, alpha=0.62, beta=2.53, delta=0.25)
    spec = GridSpec.for_protocol(params, dx=(1.0 + r) / q)
    assert spec.nodes_per_unit == q
    wf = init_gaussian(spec, params.delta)
    amps = wf.amplitudes
    plus, minus = translated(amps, spec, 1), translated(amps, spec, -1)
    assert np.array_equal(plus[q:], amps[:-q]) and not plus[:q].any()
    assert np.array_equal(minus[:-q], amps[q:]) and not minus[-q:].any()
    seq, p_seq = evolve_sequential(params, spec)
    joint, p_joint = evolve_joint(params, spec)
    l2 = math.sqrt(float(np.sum((seq.amplitudes - joint.amplitudes) ** 2)) * spec.dx)
    assert l2 < 1e-9
    assert p_seq == pytest.approx(p_joint, rel=1e-12, abs=0)


# Settings of the acceptance stream with a trial count that keeps the
# expected clicks in the low thousands: p ~ 1.7e-4 (preset c), p ~ 0.34
# (preset d), p ~ 0.39 (where numpy's geometric switches algorithm) and an
# eigenstate, where every trial passes.
stream_settings = st.sampled_from([
    (PRESETS["c"], 10 ** 7),
    (PRESETS["d"], 5000),
    (ProtocolParams(n=1, alpha=0.0, beta=0.9, delta=2.0), 5000),
    (ProtocolParams(n=3, alpha=0.0, beta=0.0, delta=1.0), 2000),
])
seeds = st.integers(0, 2 ** 128 - 1)
stream_examples = settings(derandomize=True, database=None, deadline=None, max_examples=30)
DETECTOR = DetectorModel()


def accepted_indices(seed, count, probability, size=_GAP_BATCH):
    """All accepted trial indices of the walk, in batches of `size` gaps."""
    return np.concatenate(list(_accepted_batches(seed, count, probability, size)))


@stream_examples
@given(setting=stream_settings, seed=seeds, data=st.data())
def test_run_trials_prefix_stable(setting, seed, data):
    params, most = setting
    large = data.draw(st.integers(1, most))
    small = data.draw(st.integers(1, large))
    spec = GridSpec.for_protocol(params, dx=0.05)
    probability = _conditional_sampler(params, spec).probability
    head = accepted_indices(seed, small, probability)
    whole = accepted_indices(seed, large, probability)
    assert np.array_equal(head, whole[whole < small])
    short = run_trials(seed, small, params, spec, DETECTOR)
    long = run_trials(seed, large, params, spec, DETECTOR)
    assert short.accepted == head.size
    if short.accepted:
        assert short.first_click == long.first_click


@stream_examples
@given(setting=stream_settings, seed=seeds, data=st.data())
def test_first_click_is_run_trials_first_click(setting, seed, data):
    params, most = setting
    budget = data.draw(st.integers(1, most))
    spec = GridSpec.for_protocol(params, dx=0.05)
    found = first_click(seed, budget, params, spec, DETECTOR)
    run = run_trials(seed, budget, params, spec, DETECTOR)
    if found is None:
        assert run.accepted == 0
    else:
        index, outcome = found
        assert outcome == run.first_click
        probability = _conditional_sampler(params, spec).probability
        assert index == accepted_indices(seed, budget, probability)[0]


def exact_gap_walk(seed, count, probability):
    """Accepted indices from geometric gaps drawn one at a time and summed
    as Python ints."""
    gen = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_ACCEPT_STREAM,)))
    indices, total = [], 0
    while True:
        total += int(gen.geometric(probability))
        if total > count:
            return indices
        indices.append(total - 1)


# Pass probabilities on both sides of 1/3, where numpy's geometric switches
# from inversion to its search method, and the value the eigenstate anchors
# of demo 05 come out at, with counts expecting up to ~2000 clicks.
@stream_examples
@given(probability=st.sampled_from([1e-4, 0.02, 0.2, 1 / 3, 0.34, 0.5, 0.9,
                                    0.9999999999999999]),
       seed=seeds, data=st.data())
def test_accepted_indices_equal_exact_gap_walk(probability, seed, data):
    count = data.draw(st.integers(1, int(2000 / probability)))
    indices = accepted_indices(seed, count, probability)
    assert indices.tolist() == exact_gap_walk(seed, count, probability)


# At 10 trials of p = 0.0025 a run expects 0.025 clicks and walks one gap
# per batch, so each of these seeds, which accept one or two trials, needs
# a second or third batch.
@pytest.mark.parametrize("seed", [57, 61, 87, 7407, 16264, 22606])
def test_accepted_indices_continue_past_a_short_batch(seed):
    expected = exact_gap_walk(seed, 10, 0.0025)
    assert expected
    assert accepted_indices(seed, 10, 0.0025, size=1).tolist() == expected


# A pass probability of 1, or a few ulps above it as a normalised sum can
# read at an eigenstate, accepts every trial; the walk clamps it to 1.
@pytest.mark.parametrize("probability", [1.0, 1.0000000000000004])
def test_sure_pass_accepts_every_trial(probability, monkeypatch):
    runs = [(0, 1), (7, 5000), (2 ** 128 - 1, 70000)]  # 70000 spans three batches
    for seed, count in runs:
        assert np.array_equal(accepted_indices(seed, count, probability), np.arange(count))
    params = ProtocolParams(n=1, alpha=0.0, beta=0.0, delta=2.0)
    spec = GridSpec.for_protocol(params, dx=0.05)
    sampler = dataclasses.replace(_conditional_sampler(params, spec), probability=probability)
    monkeypatch.setattr("wvsim.montecarlo._conditional_sampler", lambda *_: sampler)
    for seed, count in runs:
        index, outcome = first_click(seed, count, params, spec, DETECTOR)
        assert index == 0
        run = run_trials(seed, count, params, spec, DETECTOR)
        assert run.accepted == count
        assert run.first_click == outcome


def unsorted_draw(sampler, positions, u):
    """The inverse-CDF lookup with the keys searched in their given order,
    read from an array of the CDF's node positions."""
    c = sampler.cdf
    idx = np.clip(np.searchsorted(c, u), 1, c.size - 1)
    lo = c[idx - 1]
    hi = c[idx]
    frac = np.clip((u - lo) / np.where(hi > lo, hi - lo, 1.0), 0.0, 1.0)
    dx = positions[1] - positions[0]
    return positions[idx - 1] + frac * dx


# Densities with zero stretches inside and at the ends, so the CDF has flat
# runs of equal entries; half of the uniforms are CDF entries themselves.
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(density=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=2, max_size=60)
       .filter(lambda d: sum(d) > 0),
       data=st.data())
def test_draw_equals_unsorted_search(density, data):
    dens = np.array(density) / sum(density)
    c = np.cumsum(dens) - 0.5 * dens
    sampler = _ConditionalSampler(probability=1.0, cdf=c, first_node=0, dx=0.25)
    picks = data.draw(st.lists(st.integers(0, c.size - 1), max_size=40))
    free = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40))
    u = np.array(free + c[picks].tolist())
    u = u[data.draw(st.permutations(range(u.size)))] if u.size else u
    assert np.array_equal(sampler.draw(u), unsorted_draw(sampler, np.arange(c.size) * 0.25, u))


@pytest.mark.parametrize("label", ["a", "b", "c", "d"])
def test_draw_equals_lookup_in_node_positions(label):
    # The sampler holds no positions array; its draws equal those read from
    # spec.positions(), whose cell width differs from dx in the last bits.
    spec = GridSpec.for_protocol(PRESETS[label], dx=0.01)
    positions = spec.positions()
    assert positions[1] - positions[0] != spec.dx
    sampler = _conditional_sampler(PRESETS[label], spec)
    u = np.concatenate([np.random.default_rng(4).random(20000), sampler.cdf])
    assert np.array_equal(sampler.draw(u), unsorted_draw(sampler, positions, u))


@stream_examples
@given(setting=stream_settings, seed=seeds,
       detector=st.sampled_from([DETECTOR, DetectorModel(pixel_pitch=0.37)]))
def test_histogram_equals_per_bin_reference(setting, seed, detector):
    params, count = setting
    spec = GridSpec.for_protocol(params, dx=0.05)
    sampler = _conditional_sampler(params, spec)
    indices = accepted_indices(seed, count, sampler.probability)
    raw, _ = _clicks(_first_uniforms(seed, indices), sampler, detector)
    uniq, counts = np.unique(detector.pixel_index(raw), return_counts=True)
    # The .17g format tells apart signed zeros, which == would not.
    reference = "# pixel_center count\n" + "".join(
        f"{float(k * detector.pixel_pitch):.17g} {int(n)}\n" for k, n in zip(uniq, counts))
    out = io.StringIO()
    write_histogram(run_trials(seed, count, params, spec, detector), out)
    assert out.getvalue() == reference


# Any finite angle, the largest magnitudes included.  Widths at and just
# past the declared bounds, far outside them, and inside them up to 1e3,
# where a grid at dx 0.5 has at most ~32k nodes.
cli_angles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([sys.float_info.max, -sys.float_info.max, 0.0, math.pi / 2]),
)
cli_widths = st.one_of(
    st.sampled_from([MIN_DELTA, MAX_DELTA, 9.9e-151, 1.01e150]),
    st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
    st.floats(-320.0, -140.0).map(lambda e: 10.0 ** e),
    st.floats(140.0, 308.0).map(lambda e: 10.0 ** e),
)
UNDERFLOW = dict(n=60, alpha=0.0, beta=math.pi / 2, delta=PRESETS["a"].delta, dx="0.5")


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(command=st.sampled_from(["wv", "sweep", "click", "oracle"]), n=st.integers(1, MAX_BLOCKS),
       alpha=cli_angles, beta=cli_angles, delta=cli_widths, dx=st.sampled_from(["0.5", "1"]),
       beta_max=cli_angles, steps=st.integers(2, 5), trials=st.integers(1, 1000),
       corrupt_mu=st.one_of(st.just(0.0), st.floats(-1.0, 1.0), st.floats()))
@example(command="wv", alpha=sys.float_info.max, beta=0.62, delta=3.0, n=7, dx="0.5",
         beta_max=0.0, steps=2, trials=1, corrupt_mu=0.0)
@example(command="sweep", alpha=0.0, beta=sys.float_info.max, delta=3.0, n=7, dx="0.5",
         beta_max=-sys.float_info.max, steps=2, trials=1, corrupt_mu=0.0)
@example(command="sweep", alpha=0.0, beta=0.0, delta=3.0, n=7, dx="0.5",
         beta_max=sys.float_info.max, steps=4, trials=1, corrupt_mu=0.0)
@example(command="click", **UNDERFLOW, beta_max=0.0, steps=2, trials=10 ** 8, corrupt_mu=0.0)
@example(command="oracle", **{**UNDERFLOW, "n": 12}, beta_max=0.0, steps=2, trials=1,
         corrupt_mu=0.0)
@example(command="oracle", n=7, alpha=0.62, beta=2.53, delta=5.84, dx="0.5", beta_max=0.0,
         steps=2, trials=1, corrupt_mu=math.inf)
@example(command="oracle", n=7, alpha=0.62, beta=2.53, delta=5.84, dx="0.5", beta_max=0.0,
         steps=2, trials=1, corrupt_mu=1e300)
def test_cli_maps_every_error_to_an_exit_code(command, n, alpha, beta, delta, dx, beta_max,
                                             steps, trials, corrupt_mu):
    # main never raises: it returns 0-3, with an `error:` line on exit 1 or 2.
    # `--key=value` and `--` keep argparse from reading -1e300 as a flag.
    flags = {"n": n, "alpha": repr(alpha), "beta": repr(beta), "delta": repr(delta),
             "grid_dx": dx, "trials": trials}
    argv = [command] + [f"--{key}={flags[key]}" for key in COMMAND_KEYS[command] if key in flags]
    if command == "sweep":
        argv += ["--", repr(beta), repr(beta_max), str(steps)]
    if command == "oracle":
        argv.append(f"--corrupt-mu={corrupt_mu!r}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert any(line.startswith("error: ") for line in err.getvalue().splitlines())
