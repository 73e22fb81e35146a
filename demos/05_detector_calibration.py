"""Detector calibration from the two eigenstate anchors.

The raw detector never reports eigenvalue units directly.  Preparing the
all-|V> setting (every block pushes -1) and the all-|H> setting (every
block pushes +1) and recording where each lands defines the affine map
raw -> calibrated that sends those anchors to -n and +n.
"""
import math

import wvsim

n = 7
true_scale, true_offset = 13.5, -4.0  # hidden raw-unit geometry
detector = wvsim.DetectorModel(pixel_pitch=0.01)


def measure_raw_mean(params, seed):
    spec = wvsim.GridSpec.for_protocol(params, dx=0.02)
    summary = wvsim.run_trials(seed, 20_000, params, spec, detector)
    return true_offset + true_scale * summary.mean


pure_v = wvsim.ProtocolParams(n=n, alpha=math.pi / 2, beta=math.pi / 2, delta=3.0)
pure_h = wvsim.ProtocolParams(n=n, alpha=0.0, beta=0.0, delta=3.0)
raw_v = measure_raw_mean(pure_v, seed=11)
raw_h = measure_raw_mean(pure_h, seed=12)
print(f"raw anchor positions: |V> run at {raw_v:.3f}, |H> run at {raw_h:.3f}")

cal = wvsim.calibrate(raw_v, raw_h, n)
print(f"calibration: offset = {cal.offset:.3f} (true {true_offset}), "
      f"scale = {cal.scale:.4f} (true {true_scale})")
print(f"check: anchors map to {wvsim.to_calibrated(cal, raw_v):+.3f} "
      f"and {wvsim.to_calibrated(cal, raw_h):+.3f}")

# Measure the anomalous preset through the recovered calibration.
params = wvsim.PRESETS["a"]
spec = wvsim.GridSpec.for_protocol(params, dx=0.02)
summary = wvsim.run_trials(13, 500_000_000, params, spec, detector)
raw_mean = true_offset + true_scale * summary.mean
print()
print(f"preset 'a': {summary.accepted} clicks, raw-unit mean {raw_mean:.3f}")
print(f"calibrated mean {wvsim.to_calibrated(cal, raw_mean):.3f} "
      f"vs weak value {wvsim.conditional_moments(params).mean:.3f}")
