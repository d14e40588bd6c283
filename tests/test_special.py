"""In-house tail probabilities against scipy, the independent oracle."""

import math
import warnings

import numpy as np
import pytest
from scipy import special as sps
from scipy import stats

from bnsl.special import (_lanczos, chi2_sf, lgamma_array, normal_two_sided,
                          regularized_beta, regularized_gamma_q,
                          student_t_two_sided)


def test_regularized_gamma_against_scipy():
    rng = np.random.default_rng(0)
    for _ in range(500):
        a = float(rng.uniform(0.05, 60.0))
        x = float(rng.uniform(0.0, 120.0))
        assert regularized_gamma_q(a, x) == pytest.approx(sps.gammaincc(a, x), abs=1e-12)


def test_regularized_beta_against_scipy():
    rng = np.random.default_rng(1)
    for _ in range(500):
        a = float(rng.uniform(0.05, 50.0))
        b = float(rng.uniform(0.05, 50.0))
        x = float(rng.uniform(0.0, 1.0))
        assert regularized_beta(a, b, x) == pytest.approx(sps.betainc(a, b, x), abs=1e-12)


def test_chi2_sf_against_scipy():
    rng = np.random.default_rng(2)
    for _ in range(300):
        df = float(rng.integers(1, 80))
        x = float(rng.uniform(0.0, 200.0))
        assert chi2_sf(x, df) == pytest.approx(stats.chi2.sf(x, df), abs=1e-11)


def test_student_t_two_sided_against_scipy():
    rng = np.random.default_rng(3)
    for _ in range(300):
        df = float(rng.integers(1, 200))
        t = float(rng.normal(scale=3.0))
        expected = 2 * stats.t.sf(abs(t), df)
        assert student_t_two_sided(t, df) == pytest.approx(expected, abs=1e-11)


def test_normal_two_sided_against_scipy():
    for z in np.linspace(-6, 6, 101):
        assert normal_two_sided(float(z)) == pytest.approx(
            2 * stats.norm.sf(abs(z)), abs=1e-13)


def test_lgamma_array_against_scipy():
    rng = np.random.default_rng(4)
    xs = np.concatenate([
        rng.uniform(1e-4, 0.5, 200),   # reflection branch
        rng.uniform(0.5, 50.0, 200),
        rng.uniform(50.0, 5e4, 100),
    ])
    got = lgamma_array(xs)
    want = sps.gammaln(xs)
    assert np.allclose(got, want, rtol=1e-11, atol=1e-11)


def test_lgamma_array_rejects_nan_and_maps_inf_to_inf():
    for bad in ([np.nan], [2.0, np.nan], [0.0], [-np.inf], [1.0, -1e-300]):
        with pytest.raises(ValueError, match="positive"):
            lgamma_array(np.array(bad))
    x = np.array([0.25, np.inf, 3.0, 1e300])
    got = lgamma_array(x)
    assert got[1] == np.inf
    assert np.allclose(got[[0, 2, 3]], sps.gammaln(x[[0, 2, 3]]), rtol=1e-11)
    # an infinite entry does not change the others
    assert got[[0, 2, 3]].tobytes() == lgamma_array(x[[0, 2, 3]]).tobytes()


@pytest.mark.parametrize("tail", [
    lambda s: chi2_sf(s, 3.0),
    lambda s: student_t_two_sided(s, 10.0),
    normal_two_sided,
], ids=["chi2_sf", "student_t_two_sided", "normal_two_sided"])
def test_nan_statistic_rejected(tail):
    with pytest.raises(ValueError, match="NaN"):
        tail(float("nan"))
    assert tail(float("inf")) == 0.0


def test_edge_cases():
    assert chi2_sf(0.0, 5) == 1.0
    assert chi2_sf(float("inf"), 5) == 0.0
    assert student_t_two_sided(0.0, 10) == 1.0
    assert normal_two_sided(0.0) == 1.0
    assert regularized_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        regularized_gamma_q(-1.0, 2.0)
    with pytest.raises(ValueError):
        lgamma_array(np.array([0.0]))


def test_lgamma_tiny_arguments_do_not_overflow():
    # below about 1e-308 the reflection's pi / sin(pi x) overflows a float
    x = np.array([5e-324, 2.5e-321, 1e-320, 1e-310, 5e-309, 2.2e-308, 1e-300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lgamma_array(x)
    assert got.tolist() == pytest.approx([math.lgamma(v) for v in x], rel=1e-15)


def test_lgamma_finite_reflections_unchanged():
    """Only the arguments whose reflection overflowed get a new value."""
    rng = np.random.default_rng(9)
    x = np.concatenate([10.0 ** rng.uniform(-323.5, -0.31, 4000),
                        rng.uniform(0.0, 0.5, 1000)])
    x = x[x > 0]
    with np.errstate(over="ignore"):
        before = np.log(np.pi / np.sin(np.pi * x)) - _lanczos(1.0 - x)
    overflowed = np.isinf(before)
    assert 100 < overflowed.sum() < len(x) - 100
    got = lgamma_array(x)
    assert got[~overflowed].tobytes() == before[~overflowed].tobytes()
    assert np.all(np.isfinite(got))
    assert got[overflowed].tolist() == \
        pytest.approx([math.lgamma(v) for v in x[overflowed]], rel=1e-15)
