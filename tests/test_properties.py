"""Property tests of the closed-form moment kernel.

Settings are drawn over 1 <= n <= MAX_BLOCKS, any finite angles (with the
orthogonal and eigenstate angles drawn on purpose) and pointer widths
from 1e-6 to 1e6.  derandomize makes every run draw the same examples.
"""
import math
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from wvsim import PostselectionError, ProtocolParams, conditional_moments  # noqa: E402
from wvsim.analytic import MAX_BLOCKS, _moment_integrals  # noqa: E402

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
