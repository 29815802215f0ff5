"""Standard normal CDF and quantile function.

The quantile (inverse CDF) uses Wichura's rational minimax approximation
(AS 241, PPND16 coefficient set) followed by one Newton correction against
the erfc-based CDF, which brings the absolute error to a few ulp across
the whole open interval (0, 1).
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = ["normal_cdf", "normal_pdf", "normal_quantile"]

SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# PPND16 coefficients, central region |p - 0.5| <= 0.425.
_A = (
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
)
_B = (
    1.0,
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
)
# Intermediate region, r = sqrt(-log(min(p, 1-p))) in (1.6, 5].
_C = (
    1.42343711074968357734e0,
    4.63033784615654529590e0,
    5.76949722146069140550e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
)
_D = (
    1.0,
    2.05319162663775882187e0,
    1.67638483018380384940e0,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
# Far tail, r > 5.
_E = (
    6.65790464350110377720e0,
    5.46378491116411436990e0,
    1.78482653991729133580e0,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_F = (
    1.0,
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-5,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _ratpoly(num: tuple[float, ...], den: tuple[float, ...], r: float) -> float:
    p = num[7]
    for c in reversed(num[:7]):
        p = p * r + c
    q = den[7]
    for c in reversed(den[:7]):
        q = q * r + c
    return p / q


def normal_cdf(x: float) -> float:
    """P(Z <= x) for Z ~ N(0, 1), as ``0.5 * erfc(w)`` at ``w = -x / SQRT2``."""
    return 0.5 * math.erfc(-x / SQRT2)


def normal_pdf(x: float) -> float:
    """Standard normal density at x."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


@lru_cache(maxsize=1024, typed=True)
def normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF on the open interval (0, 1).

    Raises ValueError for p outside (0, 1); endpoints map to infinities
    mathematically and are the caller's responsibility to short-circuit.
    A study asks for a few stage tolerances over and over: 1,024 values are kept.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires 0 < p < 1, got {p!r}")

    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        x = q * _ratpoly(_A, _B, r)
    else:
        r = p if q < 0.0 else 1.0 - p
        r = math.sqrt(-math.log(r))
        if r <= 5.0:
            x = _ratpoly(_C, _D, r - 1.6)
        else:
            x = _ratpoly(_E, _F, r - 5.0)
        if q < 0.0:
            x = -x

    # One Newton step against the erfc-based CDF sharpens the rational
    # approximation to near machine precision; skip when the density
    # underflows (|x| > ~38, where the approximation is already as good
    # as double precision allows).
    d = normal_pdf(x)
    if d > 0.0:
        x -= (normal_cdf(x) - p) / d
    return x
