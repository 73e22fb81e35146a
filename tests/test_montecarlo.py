import io
import itertools
import math

import numpy as np
import pytest

from wvsim import (
    DetectorModel,
    GridSpec,
    InvalidParameterError,
    MemoryGuardError,
    PRESETS,
    ProtocolParams,
    RunSummary,
    anomaly_report,
    conditional_moments,
    first_click,
    run_trials,
    write_histogram,
)
from wvsim.cli import main
from wvsim.montecarlo import (
    MAX_TRIALS,
    ClickOutcome,
    _accepted_indices,
    _conditional_sampler,
    _first_uniforms,
    _gap_batches,
    trial_rng,
)

DET = DetectorModel()


class TestDetectorModel:
    def test_pixel_center_rounding(self):
        det = DetectorModel(pixel_pitch=0.5, origin=0.25)
        assert det.pixel_center(0.3) == pytest.approx(0.25)
        assert det.pixel_center(0.74) == pytest.approx(0.75)

    def test_rejects_bad_pitch(self):
        with pytest.raises(InvalidParameterError):
            DetectorModel(pixel_pitch=0.0)


class TestClickOutcome:
    def test_absorbed_carries_no_position(self):
        with pytest.raises(InvalidParameterError):
            ClickOutcome(kind="absorbed", position=1.0)

    def test_click_needs_positions(self):
        with pytest.raises(InvalidParameterError):
            ClickOutcome(kind="click")


class TestTrialStreams:
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**64 - 1, 2**64 + 3])
    def test_vectorised_uniforms_match_trial_rng(self, seed):
        # The one-pass Philox must reproduce each trial's own generator bit
        # for bit, from the first trials up to the largest index a run allows.
        rng = np.random.default_rng(seed % 1000)
        indices = np.concatenate([
            rng.integers(0, MAX_TRIALS, size=3000),
            np.arange(50),
            np.arange(2**63 - 50, 2**63 - 1),
        ])
        expected = np.array([trial_rng(seed, int(i)).random() for i in indices])
        assert np.array_equal(_first_uniforms(seed, indices), expected)

    def test_table_accepts_largest_seed(self, capsys):
        # Row i of a table is keyed by seed + i, past 2**64 for this seed.
        assert main(["table", "--seed", "18446744073709551615"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("#")]
        assert len(rows) == 5


class TestRunTrials:
    def test_bit_identical_reruns(self):
        params = PRESETS["d"]
        spec = GridSpec.for_protocol(params, dx=0.05)
        s1 = run_trials(33, 5000, params, spec, DET)
        s2 = run_trials(33, 5000, params, spec, DET)
        assert s1 == s2

    def test_deterministic_for_fixed_state(self):
        # One seed fixes every per-trial stream: the first click and its
        # trial index come out the same on each call.
        params = PRESETS["d"]
        spec = GridSpec.for_protocol(params, dx=0.05)
        a = first_click(9, 5000, params, spec, DET)
        b = first_click(9, 5000, params, spec, DET)
        assert a is not None and a == b
        assert trial_rng(9, a[0]).random() == trial_rng(9, a[0]).random()

    def test_summary_bookkeeping(self):
        params = PRESETS["d"]
        spec = GridSpec.for_protocol(params, dx=0.05)
        s = run_trials(33, 5000, params, spec, DET)
        assert s.accepted <= s.trials
        assert sum(count for _, count in s.histogram) == s.accepted
        assert s.stderr == pytest.approx(s.std / math.sqrt(s.accepted))
        assert s.first_click.kind == "click"

    def test_first_click_prefix_stable(self):
        # first_click draws one gap where run_trials draws a batch.  Preset d
        # passes with p ~ 0.01; the second setting passes with p ~ 0.39, where
        # numpy's geometric switches from inversion to a search algorithm.
        for params in (PRESETS["d"], ProtocolParams(n=1, alpha=0.0, beta=0.9, delta=2.0)):
            spec = GridSpec.for_protocol(params, dx=0.05)
            small = run_trials(33, 200, params, spec, DET)
            large = run_trials(33, 5000, params, spec, DET)
            assert small.first_click == large.first_click
            fc = first_click(33, 5000, params, spec, DET)
            assert fc is not None and fc[1] == large.first_click

    def test_first_click_reproducible_from_trial_stream(self):
        params = PRESETS["d"]
        spec = GridSpec.for_protocol(params, dx=0.05)
        s = run_trials(33, 5000, params, spec, DET)
        idx, outcome = first_click(33, 5000, params, spec, DET)
        sampler = _conditional_sampler(params, spec)
        u = trial_rng(33, idx).random()
        raw = float(sampler.draw(np.asarray([u]))[0])
        assert raw == outcome.raw_position == s.first_click.raw_position

    def test_empty_run_is_explicit(self):
        params = PRESETS["a"]
        spec = GridSpec.for_protocol(params, dx=0.05)
        s = run_trials(0, 100, params, spec, DET)
        assert s.accepted == 0 and s.first_click is None
        assert math.isnan(s.mean) and math.isnan(s.std) and math.isnan(s.stderr)
        assert s.histogram == ()

    def test_rejects_bad_arguments(self):
        params = PRESETS["d"]
        spec = GridSpec.for_protocol(params, dx=0.05)
        with pytest.raises(InvalidParameterError):
            run_trials(1, 0, params, spec, DET)
        with pytest.raises(InvalidParameterError):
            run_trials(-1, 10, params, spec, DET)

    def test_rejects_counts_past_int64(self):
        params = PRESETS["d"]
        spec = GridSpec.for_protocol(params, dx=0.05)
        with pytest.raises(InvalidParameterError):
            run_trials(1, MAX_TRIALS + 1, params, spec, DET)
        with pytest.raises(InvalidParameterError):
            first_click(1, MAX_TRIALS + 1, params, spec, DET)
        with pytest.raises(InvalidParameterError):
            run_trials(2**128, 10, params, spec, DET)

    def test_memory_guard_on_expected_clicks(self):
        # Every trial passes, so 2**62 trials would mean 2**62 clicks.
        params = ProtocolParams(n=1, alpha=0, beta=0, delta=2)
        spec = GridSpec.for_protocol(params, dx=0.05)
        with pytest.raises(MemoryGuardError):
            run_trials(1, 2**62, params, spec, DET)

    def test_gap_walk_stays_inside_int64(self):
        # At p = 1e-17 one batch of gaps sums far past 2**63, so the int64
        # running sum wraps; the walk must match the same gaps summed exactly.
        seed, probability = 5, 1e-17
        indices = _accepted_indices(seed, MAX_TRIALS, probability)
        gaps = next(_gap_batches(seed, probability))
        sums = list(itertools.accumulate(int(g) for g in gaps))
        assert sums[-1] > MAX_TRIALS
        assert indices.tolist() == [s - 1 for s in sums if s <= MAX_TRIALS]
        assert indices.size > 0 and indices.min() >= 0

    def test_saturated_gap_is_past_every_count(self):
        # numpy's geometric(p) returns 2**63 - 1 for p below ~1e-19; that gap
        # lies past MAX_TRIALS, so it is no click.
        assert _accepted_indices(1, MAX_TRIALS, 1e-25).size == 0

    def test_first_click_ignores_saturated_gap(self):
        # Grid probability ~1e-42, so the one gap drawn is saturated.
        params = ProtocolParams(n=7, alpha=0.0, beta=math.pi / 2 - 1e-3, delta=3.09)
        spec = GridSpec.for_protocol(params, dx=0.05)
        assert first_click(1, MAX_TRIALS, params, spec, DET) is None

    def test_certain_acceptance_distribution(self):
        # alpha = beta = 0 passes every block: each trial clicks, and the
        # clicks are Gaussian around +1 with width two.
        params = ProtocolParams(n=1, alpha=0.0, beta=0.0, delta=2.0)
        spec = GridSpec.for_protocol(params, dx=0.05)
        s = run_trials(1, 10_000, params, spec, DET)
        assert s.accepted == s.trials == 10_000
        assert abs(s.mean - 1.0) < 3 * 2.0 / math.sqrt(10_000)

    def test_acceptance_rate_tracks_probability(self):
        # 1e6 trials against the analytic pass probability, binomial 3 sigma.
        params = PRESETS["c"]
        spec = GridSpec.for_protocol(params, dx=0.02)
        prob = conditional_moments(params).probability
        s = run_trials(77, 1_000_000, params, spec, DET)
        rate = s.accepted / s.trials
        assert abs(rate - prob) < 3 * math.sqrt(prob * (1 - prob) / s.trials)

    @pytest.mark.parametrize("label", ["b", "c", "d"])
    def test_mean_and_std_converge(self, label):
        # >= 1e5 accepted clicks: sample mean within 3 standard errors of the
        # weak value, sample std within 3 estimator errors of the predicted
        # pointer width, acceptance rate within binomial 3 sigma.
        params = PRESETS[label]
        spec = GridSpec.for_protocol(params, dx=0.02)
        m = conditional_moments(params)
        prob, wv, std = m.probability, m.mean, m.std
        count = math.ceil(105_000 / prob)
        s = run_trials(7, count, params, spec, DET)
        assert s.accepted >= 100_000
        assert abs(s.mean - wv) < 3 * s.std / math.sqrt(s.accepted)
        assert abs(s.std - std) < 3 * std / math.sqrt(2 * s.accepted) + DET.pixel_pitch
        assert abs(s.accepted / s.trials - prob) < 3 * math.sqrt(prob * (1 - prob) / count)

    def test_pixelation_bias_below_half_pitch(self):
        params = PRESETS["c"]
        spec = GridSpec.for_protocol(params, dx=0.02)
        sampler = _conditional_sampler(params, spec)
        u = np.random.default_rng(5).random(100_000)
        raw = sampler.draw(u)
        pixelated = DET.pixel_center(raw)
        assert abs(float(np.mean(pixelated)) - float(np.mean(raw))) < DET.pixel_pitch / 2


class TestAnomalyReport:
    def _summary(self, x):
        click = ClickOutcome.click(raw_position=x, position=x)
        return RunSummary(
            trials=1, accepted=1, first_click=click,
            mean=x, std=math.nan, stderr=math.nan, histogram=((x, 1),),
        )

    def test_far_outside_spectrum(self):
        params = PRESETS["a"]
        rep = anomaly_report(self._summary(21.4), params)
        assert rep.eigenvalue_bound == 7
        assert rep.gap == pytest.approx(14.4)
        assert rep.uncertainty == pytest.approx(conditional_moments(params).std)
        assert rep.anomalous and rep.exceeds_uncertainty

    def test_inside_spectrum(self):
        rep = anomaly_report(self._summary(1.0), PRESETS["a"])
        assert not rep.anomalous and not rep.exceeds_uncertainty

    def test_marginally_outside(self):
        params = PRESETS["a"]
        rep = anomaly_report(self._summary(8.0), params)
        assert rep.anomalous and not rep.exceeds_uncertainty

    def test_requires_a_click(self):
        empty = RunSummary(
            trials=5, accepted=0, first_click=None,
            mean=math.nan, std=math.nan, stderr=math.nan, histogram=(),
        )
        with pytest.raises(InvalidParameterError):
            anomaly_report(empty, PRESETS["a"])


class TestExports:
    def test_histogram_export_format(self):
        params = PRESETS["d"]
        spec = GridSpec.for_protocol(params, dx=0.05)
        s = run_trials(33, 5000, params, spec, DET)
        buf = io.StringIO()
        write_histogram(s, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# pixel_center count"
        assert len(lines) == 1 + len(s.histogram)
        counts = [int(line.split()[1]) for line in lines[1:]]
        assert sum(counts) == s.accepted
