"""Sequential weak measurement of a polarization qubit with one shared
Gaussian pointer: closed-form weak values and pointer moments, an
independent discretized-wavefunction oracle, and a Monte Carlo
single-click detector simulation.

The package namespace holds what the command line and the demos use,
plus the error types; everything else is imported from its submodule."""

from .analytic import (
    ProtocolParams,
    conditional_moments,
    expectation_sigma_sum,
    final_amplitudes,
    sweep_beta,
    wv_single,
)
from .calibration import calibrate, to_calibrated
from .errors import (
    DegenerateCalibrationError,
    InternalConsistencyError,
    InvalidParameterError,
    MemoryGuardError,
    PostselectionError,
    ProtocolError,
    TruncationError,
)
from .grid import GridSpec, cdf, evolve_joint, evolve_sequential, moments, write_density
from .montecarlo import (
    DetectorModel,
    RunSummary,
    anomaly_report,
    first_click,
    run_trials,
    write_histogram,
)
from .presets import PRESETS

__version__ = "0.1.0"

__all__ = [
    "DegenerateCalibrationError",
    "DetectorModel",
    "GridSpec",
    "InternalConsistencyError",
    "InvalidParameterError",
    "MemoryGuardError",
    "PostselectionError",
    "PRESETS",
    "ProtocolError",
    "ProtocolParams",
    "RunSummary",
    "TruncationError",
    "anomaly_report",
    "calibrate",
    "cdf",
    "conditional_moments",
    "evolve_joint",
    "evolve_sequential",
    "expectation_sigma_sum",
    "final_amplitudes",
    "first_click",
    "moments",
    "run_trials",
    "sweep_beta",
    "to_calibrated",
    "write_density",
    "write_histogram",
    "wv_single",
]
