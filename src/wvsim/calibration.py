"""Affine detector calibration from the two eigenstate anchors.

The pointer scale is defined operationally: prepare the all-|V> setting
and the all-|H> setting, record the raw detector coordinate of each, and
map those two positions to the extreme eigenvalues -n and +n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateCalibrationError, InvalidParameterError


@dataclass(frozen=True)
class Calibration:
    """Affine map between raw detector coordinates and eigenvalue-scaled
    pointer units: calibrated = (raw - offset) / scale."""

    offset: float
    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise DegenerateCalibrationError(f"scale must be positive, got {self.scale}")
        if not math.isfinite(self.offset):
            raise DegenerateCalibrationError(f"offset must be finite, got {self.offset}")


def calibrate(raw_v_mean: float, raw_h_mean: float, n: int) -> Calibration:
    """Build the calibration that sends raw_v_mean to -n and raw_h_mean to +n.

    Raises DegenerateCalibrationError if the anchors coincide or are
    reversed (the |H> anchor must sit at the larger raw coordinate).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidParameterError(f"n must be a positive integer, got {n!r}")
    if raw_h_mean == raw_v_mean:
        raise DegenerateCalibrationError("eigenstate anchors coincide; no scale defined")
    scale = (raw_h_mean - raw_v_mean) / (2 * n)
    if scale <= 0:
        raise DegenerateCalibrationError(
            "anchors are reversed: the +n eigenstate must sit at the larger raw coordinate"
        )
    return Calibration(offset=(raw_v_mean + raw_h_mean) / 2.0, scale=scale)


def to_calibrated(cal: Calibration, raw: float) -> float:
    """Raw detector coordinate to eigenvalue-scaled pointer units."""
    return (raw - cal.offset) / cal.scale
