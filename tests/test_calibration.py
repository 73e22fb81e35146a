import math

import numpy as np
import pytest

from wvsim import (
    DegenerateCalibrationError,
    DetectorModel,
    GridSpec,
    InvalidParameterError,
    PRESETS,
    ProtocolParams,
    calibrate,
    conditional_moments,
    run_trials,
    to_calibrated,
)


class TestCalibrate:
    def test_two_point_affine(self):
        cal = calibrate(raw_v_mean=100.0, raw_h_mean=240.0, n=7)
        assert cal.offset == 170.0
        assert cal.scale == 10.0
        assert to_calibrated(cal, 240.0) == pytest.approx(7.0, abs=1e-12)
        assert to_calibrated(cal, 100.0) == pytest.approx(-7.0, abs=1e-12)

    def test_identity_map(self):
        cal = calibrate(raw_v_mean=-7.0, raw_h_mean=7.0, n=7)
        assert cal.offset == 0.0 and cal.scale == 1.0

    def test_round_trip(self):
        cal = calibrate(raw_v_mean=12.5, raw_h_mean=99.0, n=7)
        rng = np.random.default_rng(2)
        for x in rng.uniform(-500, 500, size=100):
            assert to_calibrated(cal, cal.offset + cal.scale * x) == pytest.approx(x, abs=1e-12)

    def test_affinity(self):
        cal = calibrate(raw_v_mean=3.0, raw_h_mean=31.0, n=7)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x, y = rng.uniform(-100, 100, size=2)
            t = float(rng.uniform())
            blend = to_calibrated(cal, t * x + (1 - t) * y)
            expected = t * to_calibrated(cal, x) + (1 - t) * to_calibrated(cal, y)
            assert blend == pytest.approx(expected, abs=1e-12)

    def test_degenerate_anchors(self):
        with pytest.raises(DegenerateCalibrationError):
            calibrate(raw_v_mean=5.0, raw_h_mean=5.0, n=7)
        with pytest.raises(DegenerateCalibrationError):
            calibrate(raw_v_mean=10.0, raw_h_mean=2.0, n=7)

    def test_rejects_bad_n(self):
        with pytest.raises(InvalidParameterError):
            calibrate(raw_v_mean=0.0, raw_h_mean=1.0, n=0)


class TestSimulatedClosure:
    def test_recovers_scale_from_eigenstate_runs(self):
        # Simulate the anchor procedure end to end: pure |H| and pure |V|
        # runs measured in arbitrary raw units define the calibration, and
        # the anomalous preset measured through it lands on its weak value.
        raw_scale, raw_offset = 13.5, -4.0
        det = DetectorModel(pixel_pitch=0.01)
        n = 7

        def raw_mean(params, seed):
            spec = GridSpec.for_protocol(params, dx=0.02)
            summary = run_trials(seed, 20_000, params, spec, det)
            return raw_offset + raw_scale * summary.mean

        pure_h = ProtocolParams(n=n, alpha=0.0, beta=0.0, delta=3.0)
        pure_v = ProtocolParams(n=n, alpha=math.pi / 2, beta=math.pi / 2, delta=3.0)
        cal = calibrate(raw_mean(pure_v, 11), raw_mean(pure_h, 12), n)
        assert cal.scale == pytest.approx(raw_scale, rel=2e-3)
        assert cal.offset == pytest.approx(raw_offset, abs=0.05 * raw_scale)

        params = PRESETS["a"]
        spec = GridSpec.for_protocol(params, dx=0.02)
        summary = run_trials(13, 500_000_000, params, spec, det)
        raw_clicks_mean = raw_offset + raw_scale * summary.mean
        recovered = to_calibrated(cal, raw_clicks_mean)
        stderr = summary.std / math.sqrt(summary.accepted)
        assert recovered == pytest.approx(conditional_moments(params).mean, abs=3 * stderr + 0.05)
