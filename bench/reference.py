"""High-precision reference moments of the final pointer distribution.

The final pointer state is sum_k c_k chi(x - (2k - n)) with
c_k = C(n,k) mu^k nu^(n-k).  The product of two of its Gaussians is a
Gaussian of variance delta^2 centred on the midpoint m = k + l - n, times
the overlap gamma = exp(-(k - l)^2 / (2 delta^2)), so every raw moment is
a double sum of Gaussian moments.  The sum cancels heavily when mu and nu
have opposite signs, which is why it is evaluated here with mpmath at
DIGITS decimal digits rather than in floating point.
"""
from __future__ import annotations

from typing import NamedTuple

import mpmath

DIGITS = 80


class Moments(NamedTuple):
    probability: float
    weak_value: float
    width: float
    mu4: float  # central fourth moment, sizes the standard error of a sample std


def moments(n: int, alpha: float, beta: float, delta: float, digits: int = DIGITS) -> Moments:
    """Post-selection probability, mean, std and central fourth moment."""
    with mpmath.workdps(digits):
        a, b, d = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(delta)
        mu = mpmath.cos(a) * mpmath.cos(b)
        nu = mpmath.sin(a) * mpmath.sin(b)
        c = [mpmath.binomial(n, k) * mu ** k * nu ** (n - k) for k in range(n + 1)]
        gamma = [mpmath.exp(-mpmath.mpf(j * j) / (2 * d * d)) for j in range(n + 1)]
        d2 = d * d
        s = [mpmath.mpf(0)] * 5
        for k in range(n + 1):
            for l in range(n + 1):
                w = c[k] * c[l] * gamma[abs(k - l)]
                m = mpmath.mpf(k + l - n)
                s[0] += w
                s[1] += w * m
                s[2] += w * (m * m + d2)
                s[3] += w * (m ** 3 + 3 * m * d2)
                s[4] += w * (m ** 4 + 6 * m * m * d2 + 3 * d2 * d2)
        p = s[0]
        x1, x2, x3, x4 = (v / p for v in s[1:])
        var = x2 - x1 * x1
        mu4 = x4 - 4 * x1 * x3 + 6 * x1 * x1 * x2 - 3 * x1 ** 4
        return Moments(float(p), float(x1), float(mpmath.sqrt(var)), float(mu4))
