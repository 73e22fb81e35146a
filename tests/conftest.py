import math

import numpy as np
import pytest

from wvsim import PRESETS
from wvsim.grid import _translation

# Published reference values for the bundled presets: weak value and final
# pointer width, both rounded to one decimal.
REFERENCE = {
    "a": (18.7, 4.5),
    "b": (9.8, 5.0),
    "c": (11.4, 2.8),
    "d": (1.3, 3.6),
}


@pytest.fixture
def presets():
    return PRESETS


@pytest.fixture
def reference_rows():
    return [(label, PRESETS[label], wv, std) for label, (wv, std) in REFERENCE.items()]


def draw_angles(rng: np.random.Generator) -> tuple[float, float]:
    return (
        float(rng.uniform(0.0, 2.0 * math.pi)),
        float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def single_denominator(alpha: float, beta: float, delta: float) -> float:
    mu = math.cos(alpha) * math.cos(beta)
    nu = math.sin(alpha) * math.sin(beta)
    f = math.exp(-0.5 / (delta * delta))
    return mu * mu + nu * nu + 2.0 * mu * nu * f


def translated(amps, spec, units):
    """A copy of the node values `amps` moved `units` pointer units through
    `_translation`."""
    dst, src = _translation(amps, spec, units)
    out = np.zeros_like(amps)
    out[dst] = amps[src]
    return out
