"""Standard normal CDF and quantile function.

The quantile (inverse CDF) starts from ``statistics.NormalDist.inv_cdf``,
the standard library's Wichura rational minimax approximation (AS 241,
PPND16 coefficient set), and takes one Newton correction against the
erfc-based CDF, which brings the absolute error to a few ulp across the
whole open interval (0, 1).
"""

from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist

__all__ = ["normal_cdf", "normal_pdf", "normal_quantile"]

SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_PPND16 = NormalDist().inv_cdf


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

    x = _PPND16(p)

    # One Newton step against the erfc-based CDF sharpens the rational
    # approximation to near machine precision; skip when the density
    # underflows (|x| > ~38, where the approximation is already as good
    # as double precision allows).
    d = normal_pdf(x)
    if d > 0.0:
        x -= (normal_cdf(x) - p) / d
    return x
