import math

import numpy as np
import pytest

from wvsim import (
    InternalConsistencyError,
    InvalidParameterError,
    PostselectionError,
    ProtocolParams,
    conditional_moments,
    expectation_sigma_sum,
    final_amplitudes,
    sweep_beta,
    wv_single,
)
from wvsim import analytic
from wvsim.analytic import coupling_weights

from conftest import draw_angles, single_denominator


class TestProtocolParams:
    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            ProtocolParams(n=0, alpha=0.0, beta=0.0, delta=1.0)
        with pytest.raises(InvalidParameterError):
            ProtocolParams(n=61, alpha=0.0, beta=0.0, delta=1.0)
        with pytest.raises(InvalidParameterError):
            ProtocolParams(n=7, alpha=0.0, beta=0.0, delta=0.0)
        with pytest.raises(InvalidParameterError):
            ProtocolParams(n=7, alpha=math.inf, beta=0.0, delta=1.0)

    def test_width_domain(self):
        # Outside [MIN_DELTA, MAX_DELTA] the width integrand overflows
        # (pointer_std = inf) or underflows (std = 0 at an eigenstate).
        for delta in (1e160, 1e-200, math.nextafter(analytic.MAX_DELTA, math.inf),
                      math.nextafter(analytic.MIN_DELTA, 0.0)):
            with pytest.raises(InvalidParameterError, match="delta must be in"):
                ProtocolParams(n=7, alpha=0.0, beta=0.0, delta=delta)
            with pytest.raises(InvalidParameterError):
                wv_single(0.62, 2.53, delta)
            with pytest.raises(InvalidParameterError):
                sweep_beta(7, 0.62, delta, [2.53])

    @pytest.mark.parametrize("delta", [analytic.MIN_DELTA, analytic.MAX_DELTA])
    @pytest.mark.parametrize("alpha,beta", [
        (0.0, 0.0), (math.pi / 2, math.pi / 2), (0.62, 2.53), (0.52, 0.88),
        (math.pi / 4, math.pi / 4),
    ])
    def test_width_finite_and_positive_at_domain_edges(self, alpha, beta, delta):
        for n in (1, 7, analytic.MAX_BLOCKS):
            m = conditional_moments(ProtocolParams(n=n, alpha=alpha, beta=beta, delta=delta))
            assert math.isfinite(m.std) and m.std > 0.0
            assert math.isfinite(m.mean) and 0.0 < m.probability

    def test_spectrum(self):
        p = ProtocolParams(n=7, alpha=0.0, beta=0.0, delta=1.0)
        assert p.spectrum().tolist() == [-7, -5, -3, -1, 1, 3, 5, 7]


class TestCouplingWeights:
    def test_aligned_states(self):
        w = coupling_weights(ProtocolParams(n=1, alpha=0.0, beta=0.0, delta=1.0))
        assert w.mu == 1.0 and w.nu == 0.0

    def test_symmetric_point(self):
        w = coupling_weights(ProtocolParams(n=1, alpha=math.pi / 4, beta=math.pi / 4, delta=1.0))
        assert w.mu == pytest.approx(0.5, abs=1e-15)
        assert w.nu == pytest.approx(0.5, abs=1e-15)

    def test_direct_evaluation(self):
        w = coupling_weights(ProtocolParams(n=7, alpha=0.62, beta=2.53, delta=5.84))
        assert w.mu == math.cos(0.62) * math.cos(2.53)
        assert w.nu == math.sin(0.62) * math.sin(2.53)

    def test_contraction_bound(self):
        # Cauchy-Schwarz: |mu| + |nu| <= 1, so one block never gains weight.
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a, b = draw_angles(rng)
            w = coupling_weights(ProtocolParams(n=1, alpha=a, beta=b, delta=1.0))
            assert abs(w.mu) + abs(w.nu) <= 1.0 + 1e-12


class TestWvSingle:
    def test_eigenstate(self):
        assert wv_single(0.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_point_vanishes(self):
        assert wv_single(math.pi / 4, math.pi / 4, 3.0) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_postselection_raises(self):
        with pytest.raises(PostselectionError):
            wv_single(math.pi / 2, 0.0, 1.0)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(InvalidParameterError):
            wv_single(0.3, 0.5, -1.0)

    def test_rejects_nonfinite_angles(self):
        for alpha, beta in ((math.inf, 0.5), (0.3, math.nan)):
            with pytest.raises(InvalidParameterError):
                wv_single(alpha, beta, 1.0)

    def test_reduction_to_sum(self):
        p = ProtocolParams(n=1, alpha=0.62, beta=2.53, delta=5.84)
        assert conditional_moments(p).mean == wv_single(0.62, 2.53, 5.84)


class TestWvSum:
    def test_reduction_identity_random(self):
        # n = 1 double sum must collapse to the single-coupling closed form.
        rng = np.random.default_rng(31)
        worst = 0.0
        checked = 0
        while checked < 1000:
            a, b = draw_angles(rng)
            delta = float(rng.uniform(0.1, 20.0))
            if single_denominator(a, b, delta) <= 1e-6:
                continue
            checked += 1
            p = ProtocolParams(n=1, alpha=a, beta=b, delta=delta)
            worst = max(worst, abs(conditional_moments(p).mean - wv_single(a, b, delta)))
        assert worst < 1e-12

    def test_alpha_beta_symmetry(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            a, b = draw_angles(rng)
            delta = float(rng.uniform(0.3, 10.0))
            try:
                lhs = conditional_moments(ProtocolParams(n=5, alpha=a, beta=b, delta=delta)).mean
                rhs = conditional_moments(ProtocolParams(n=5, alpha=b, beta=a, delta=delta)).mean
            except PostselectionError:
                continue
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_sign_flip_swapped_weights(self):
        # Exchanging the two coupling weights negates the mean exactly: F, G
        # and mu nu are symmetric, and (mu - nu)(mu + nu) negates exactly.
        from wvsim.analytic import _moment_integrals

        rng = np.random.default_rng(41)
        for _ in range(200):
            a, b = draw_angles(rng)
            n = int(rng.integers(1, 9))
            delta = float(rng.uniform(0.3, 10.0))
            mu = math.cos(a) * math.cos(b)
            nu = math.sin(a) * math.sin(b)
            (prob,), (mean,), (var,), _ = _moment_integrals(n, [mu], [nu], delta)
            (prob_swap,), (mean_swap,), (var_swap,), _ = _moment_integrals(n, [nu], [mu], delta)
            if prob <= 1e-6:
                continue
            assert mean == -mean_swap
            assert prob == prob_swap and var == var_swap

    def test_sign_flip_angle_mapping(self):
        # (alpha, beta) -> (pi/2 - alpha, pi/2 - beta) swaps mu and nu up to
        # trig roundoff; near-orthogonal settings amplify that ulp-level
        # input difference, so stay above a conditioning floor.
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 200:
            a, b = draw_angles(rng)
            delta = float(rng.uniform(0.3, 10.0))
            p = ProtocolParams(n=4, alpha=a, beta=b, delta=delta)
            try:
                m = conditional_moments(p)
                if m.probability <= 1e-3:
                    continue
                lhs = m.mean
                rhs = conditional_moments(
                    ProtocolParams(n=4, alpha=math.pi / 2 - a, beta=math.pi / 2 - b, delta=delta)
                ).mean
            except PostselectionError:
                continue
            checked += 1
            assert lhs == pytest.approx(-rhs, abs=1e-9 * (1 + abs(lhs)))

    def test_weak_coupling_limit(self):
        # Huge pointer width: the weak value approaches n (mu - nu)/(mu + nu).
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 200:
            a, b = draw_angles(rng)
            n = int(rng.integers(1, 8))
            mu = math.cos(a) * math.cos(b)
            nu = math.sin(a) * math.sin(b)
            if abs(mu + nu) <= 0.01:
                continue
            p = ProtocolParams(n=n, alpha=a, beta=b, delta=1e6)
            try:
                m = conditional_moments(p)
                if m.probability <= 1e-6:
                    continue
                value = m.mean
            except PostselectionError:
                continue
            checked += 1
            assert abs(value - n * (mu - nu) / (mu + nu)) < 1e-5

    def test_strong_coupling_limit(self):
        # Tiny pointer width decoheres the blocks; the conditional mean must
        # stay inside the eigenvalue range.
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 200:
            a, b = draw_angles(rng)
            n = int(rng.integers(1, 8))
            p = ProtocolParams(n=n, alpha=a, beta=b, delta=1e-3)
            try:
                value = conditional_moments(p).mean
            except PostselectionError:
                continue
            checked += 1
            assert abs(value) <= n + 1e-6


class TestReferenceValues:
    # (preset giving alpha, beta, delta; n; probability, mean, std): the
    # position-space double sum over the exact weights of the float angles,
    # evaluated with mpmath at 200 digits and confirmed to 1e-40 at 400.
    CASES = [
        ("a", 7, 3.6283371355529224e-07, 18.70494757509497, 4.482443570849799),
        ("a", 15, 6.646672120765136e-14, 29.400122133551346, 8.568955468713813),
        ("a", 30, 5.762005482160778e-23, 31.345796234843622, 8.934928590720991),
        ("a", 60, 4.214916040552094e-34, 38.59376688600972, 9.412774122205642),
        ("d", 7, 0.33947147661901084, 1.2958244832856431, 3.604805725699192),
        ("d", 15, 0.1031571620137878, 2.764238746942123, 4.111360897481788),
        ("d", 30, 0.011814984418174065, 5.503810187685209, 4.919068913115327),
        ("d", 60, 0.0001752978045191345, 10.965396378794098, 6.224060303964396),
    ]

    @pytest.mark.parametrize("label, n, probability, mean, std", CASES)
    def test_literal_values(self, presets, label, n, probability, mean, std):
        p = presets[label]
        m = conditional_moments(ProtocolParams(n=n, alpha=p.alpha, beta=p.beta, delta=p.delta))
        assert m.probability == pytest.approx(probability, rel=1e-13)
        assert m.mean == pytest.approx(mean, rel=1e-13)
        assert m.std == pytest.approx(std, rel=1e-13)

    def test_single_block_at_wide_pointer(self):
        # (mu^2 - nu^2) / (mu^2 + nu^2 + 2 mu nu f) over the exact weights of
        # the float angles, with mpmath at 60 digits; f = 1 - 5e-15 here.
        assert wv_single(0.62, 2.19, 1e7) == pytest.approx(-1187.35820303122953, rel=1e-13)

    def test_rare_postselection_is_not_orthogonal(self):
        # nu = 0 and mu = sin(1e-3): every block shifts by +1 with P = mu^14.
        m = conditional_moments(ProtocolParams(n=7, alpha=0.0, beta=math.pi / 2 - 1e-3, delta=3.09))
        assert m.probability == pytest.approx(9.999976666686265e-43, rel=1e-13)
        assert m.mean == pytest.approx(7.0, rel=1e-13)
        assert m.std == pytest.approx(3.09, rel=1e-13)

    def test_underflowing_probability_raises(self):
        # P = mu^120 ~ 1e-360 is below the smallest double.
        with pytest.raises(PostselectionError, match="underflows"):
            conditional_moments(
                ProtocolParams(n=60, alpha=0.0, beta=math.pi / 2 - 1e-3, delta=3.09)
            )


class TestMoments:
    def test_single_shifted_gaussian(self):
        m = conditional_moments(ProtocolParams(n=1, alpha=0.0, beta=0.0, delta=2.0))
        assert m.second_moment == pytest.approx(5.0, abs=1e-12)
        assert m.std == pytest.approx(2.0, abs=1e-12)

    def test_variance_nonnegative_random(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            a, b = draw_angles(rng)
            n = int(rng.integers(1, 9))
            delta = float(rng.uniform(0.2, 10.0))
            p = ProtocolParams(n=n, alpha=a, beta=b, delta=delta)
            try:
                m = conditional_moments(p)  # must not raise on the variance
            except PostselectionError:
                continue
            assert m.second_moment - m.mean * m.mean >= -1e-9

    def test_narrowing_below_initial_width(self):
        # The strongly anomalous preset ends up narrower than it started.
        p = ProtocolParams(n=7, alpha=0.62, beta=2.53, delta=5.84)
        assert conditional_moments(p).std < p.delta

    def test_probability_in_unit_interval(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            a, b = draw_angles(rng)
            n = int(rng.integers(1, 9))
            delta = float(rng.uniform(0.2, 10.0))
            p = ProtocolParams(n=n, alpha=a, beta=b, delta=delta)
            try:
                prob = conditional_moments(p).probability
            except PostselectionError:
                continue
            assert 0.0 < prob <= 1.0


class TestFinalAmplitudes:
    def test_single_block_symmetric(self):
        sup = final_amplitudes(ProtocolParams(n=1, alpha=math.pi / 4, beta=math.pi / 4, delta=1.0))
        assert sup.shifts.tolist() == [-1, 1]
        assert sup.amplitudes == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_pure_h_two_blocks(self):
        sup = final_amplitudes(ProtocolParams(n=2, alpha=0.0, beta=0.0, delta=1.0))
        assert sup.shifts.tolist() == [-2, 0, 2]
        assert sup.amplitudes == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)

    def test_term_count(self):
        sup = final_amplitudes(ProtocolParams(n=7, alpha=0.62, beta=2.53, delta=5.84))
        assert sup.shifts.size == 8
        assert sup.shifts[0] == -7 and sup.shifts[-1] == 7


class TestExpectation:
    def test_preselected_baseline(self):
        assert expectation_sigma_sum(7, 0.62) == pytest.approx(2.2735739910714337, abs=1e-12)

    def test_balanced_superposition(self):
        assert expectation_sigma_sum(7, math.pi / 4) == pytest.approx(0.0, abs=1e-12)

    def test_eigenstate(self):
        assert expectation_sigma_sum(7, 0.0) == 7.0

    def test_rejects_bad_n(self):
        with pytest.raises(InvalidParameterError):
            expectation_sigma_sum(0, 0.3)

    # cos(2 angle) to 2000 bits (mpmath) where 2 angle overflows a float.
    @pytest.mark.parametrize("angle, cos_2a", [
        (1.7976931348623157e308, 0.9999507580093402),
        (-1.7976931348623157e308, 0.9999507580093402),
        (2.0 ** 1023, 0.36577420712042863),
    ])
    def test_angle_whose_double_overflows(self, angle, cos_2a):
        assert math.isinf(2.0 * angle)
        assert expectation_sigma_sum(7, angle) == pytest.approx(7 * cos_2a, rel=2.3e-16)

    def test_bits_kept_where_the_double_is_finite(self):
        for angle in (0.62, -3.1, 1e300, 8.988e307, -8.988e307):
            assert expectation_sigma_sum(7, angle) == 7 * math.cos(2.0 * angle)


class TestSweepBeta:
    def test_symmetric_point_zero(self):
        rows = sweep_beta(7, math.pi / 4, 3.0, [math.pi / 4])
        assert rows[0].weak_value == pytest.approx(0.0, abs=1e-12)

    def test_undefined_points_are_nan_rows(self):
        # alpha = pi/2 with beta = 0 makes the block transmission vanish.
        rows = sweep_beta(3, math.pi / 2, 2.0, [0.0, 1.0])
        assert math.isnan(rows[0].weak_value) and math.isnan(rows[0].std)
        assert math.isnan(rows[0].probability)
        assert not math.isnan(rows[1].weak_value)
        assert rows[1].probability > 0

    def test_row_per_grid_point(self):
        grid = np.linspace(0.5, 2.5, 11)
        rows = sweep_beta(7, 0.62, 5.8, grid)
        assert len(rows) == 11
        assert [r.beta for r in rows] == pytest.approx(list(grid))

    @pytest.mark.parametrize("n, alpha, delta, grid", [
        # The six sweeps of the beta_sweep benchmark.
        *[(n, alpha, delta, np.linspace(0.3, 3.0, 200))
          for n in (7, 12, 30) for alpha, delta in ((0.62, 5.84), (0.52, 3.09))],
        # More points than one chunk of the kernel holds, at ~1970 nodes.
        (60, 0.62, 0.05, np.linspace(-3.0, 3.0, 41)),
        (7, 0.62, 5.84, np.linspace(-3.0, 3.0, 1001)),
        # An orthogonal grid: a NaN row at beta = 0, tiny probabilities near it.
        (60, math.pi / 2, 3.0, np.linspace(-0.5, 0.5, 101)),
        # The narrowest pointer at the largest block count.
        (60, 0.62, 1e-6, np.linspace(-3.0, 3.0, 101)),
    ])
    def test_matches_per_point_loop(self, n, alpha, delta, grid):
        # Reference: one ProtocolParams and one conditional_moments per beta,
        # NaN where post-selection fails.  Every field must agree exactly.
        reference = []
        for beta in grid:
            try:
                m = conditional_moments(ProtocolParams(n=n, alpha=alpha, beta=float(beta), delta=delta))
                reference.append((float(beta), m.mean, m.std, m.probability))
            except PostselectionError:
                reference.append((float(beta), math.nan, math.nan, math.nan))
        rows = sweep_beta(n, alpha, delta, grid)
        assert len(rows) == len(reference)
        for row, want in zip(rows, reference):
            for got, value in zip(row, want):
                assert got == value or (math.isnan(got) and math.isnan(value))

    def test_rejects_nonfinite_beta(self):
        with pytest.raises(InvalidParameterError, match="finite"):
            sweep_beta(7, 0.6, 3.0, [math.nan])

    def test_negative_variance_raises(self, monkeypatch):
        # The kernel's second _block_power call builds the variance integrand;
        # a negative one must raise, not become a NaN row.
        real = analytic._block_power
        calls = []

        def corrupt(a, b, sin2, cos2):
            calls.append(None)
            return real(a, b, sin2, cos2) - (1e6 if len(calls) % 2 == 0 else 0.0)

        monkeypatch.setattr(analytic, "_block_power", corrupt)
        with pytest.raises(InternalConsistencyError, match="variance"):
            sweep_beta(7, 0.62, 5.84, np.linspace(0.3, 3.0, 5))
        with pytest.raises(InternalConsistencyError, match="variance"):
            conditional_moments(ProtocolParams(n=7, alpha=0.62, beta=2.53, delta=5.84))
