import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from rampguard.normal import normal_cdf, normal_pdf, normal_quantile


def test_median_is_zero():
    assert normal_quantile(0.5) == 0.0


def test_lower_tail_value():
    # Cross-checked against a high-precision erf-inverse oracle.
    oracle = scipy.special.ndtri(0.025)
    assert normal_quantile(0.025) == pytest.approx(-1.95996398454, abs=1e-9)
    assert normal_quantile(0.025) == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("p", [1e-6, 0.005, 0.3, 0.999])
def test_inverse_property(p):
    assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-8


@pytest.mark.parametrize("p", [1e-300, 1e-15, 1e-9, 0.074, 0.075, 0.5, 0.926, 1 - 1e-12])
def test_matches_scipy_across_regimes(p):
    assert normal_quantile(p) == pytest.approx(scipy.special.ndtri(p), rel=1e-12, abs=1e-12)


def test_symmetry():
    # Near p = 1 the binary representation of 1 - p caps the attainable
    # agreement, so the tolerance is relative.
    for p in (1e-8, 1e-4, 0.01, 0.2, 0.49):
        assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), rel=1e-8)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_domain_errors(p):
    with pytest.raises(ValueError):
        normal_quantile(p)


def test_pdf_matches_cdf_derivative():
    # Central differences of the CDF cancel badly in the upper tail, so
    # stick to moderate x and a matching tolerance.
    for x in (-3.0, -0.7, 0.0, 1.3, 2.0):
        h = 1e-6
        numeric = (normal_cdf(x + h) - normal_cdf(x - h)) / (2 * h)
        assert normal_pdf(x) == pytest.approx(numeric, rel=1e-6)


@given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
def test_roundtrip_everywhere(p):
    assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-8


def test_dense_grid_roundtrip():
    # 1e5-point grid over the working range; max |Phi(Phi^-1(p)) - p|.
    grid = np.linspace(1e-9, 1 - 1e-9, 100_000)
    worst = max(abs(normal_cdf(normal_quantile(p)) - p) for p in grid)
    assert worst <= 1e-8


def test_within_seven_ulp_of_scipy():
    # Uniform p, the lower tail down to 1e-300 and the upper tail up to 1 - 1e-16.
    rng = np.random.default_rng(35)
    p = np.concatenate([rng.uniform(size=10_000), 10.0 ** rng.uniform(-300, -1, 5_000),
                        1.0 - 10.0 ** rng.uniform(-16, -1, 5_000)])
    p = p[(p > 0.0) & (p < 1.0)]
    exact = scipy.special.ndtri(p)
    ours = np.array([normal_quantile(float(v)) for v in p])
    assert np.all(np.abs(ours - exact) <= 7 * np.spacing(np.abs(exact)))
