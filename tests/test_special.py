"""In-house tail probabilities against scipy, the independent oracle."""

import itertools
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy import special as sps
from scipy import stats

import bnsl.independence
import bnsl.special
from bnsl.special import (_lanczos, chi2_sf, lgamma_array, normal_two_sided,
                          regularized_beta, regularized_gamma_q,
                          student_t_two_sided)

from helpers import perfbench_module


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


@pytest.mark.parametrize("call, name", [
    (lambda: chi2_sf(1.0, math.nan), "df"),
    (lambda: student_t_two_sided(1.0, math.nan), "df"),
    (lambda: regularized_gamma_q(math.nan, 1.0), "a"),
    (lambda: regularized_gamma_q(1.0, math.nan), "x"),
    (lambda: regularized_beta(math.nan, 1.0, 0.5), "a"),
    (lambda: regularized_beta(1.0, math.nan, 0.5), "b"),
    (lambda: regularized_beta(1.0, 1.0, math.nan), "x"),
], ids=["chi2_sf-df", "student_t-df", "gamma_q-a", "gamma_q-x", "beta-a", "beta-b", "beta-x"])
def test_nan_parameter_rejected(call, name):
    # a NaN fails every range check; it is named rather than returned as a NaN tail
    with pytest.raises(ValueError, match=f"^{name} is NaN$"):
        call()


def test_out_of_range_parameter_messages():
    for call, message in ((lambda: chi2_sf(1.0, 0.0), "df must be positive"),
                          (lambda: student_t_two_sided(1.0, -2.0), "df must be positive"),
                          (lambda: regularized_gamma_q(0.0, 1.0), "a must be positive"),
                          (lambda: regularized_gamma_q(1.0, -1.0), "x must be nonnegative"),
                          (lambda: regularized_beta(1.0, 0.0, 0.5), "a and b must be positive"),
                          (lambda: regularized_beta(1.0, 1.0, 1.5), r"x must be in \[0, 1\]")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_student_t_infinite_df_is_the_normal_limit():
    for t in (-40.0, -3.0, -1.0, -1e-8, 0.0, 0.5, 1.0, 2.5, 8.0, math.inf, -math.inf):
        got = student_t_two_sided(t, math.inf)
        assert got == normal_two_sided(t)
        assert got == pytest.approx(2 * stats.t.sf(abs(t), np.inf), abs=1e-15)


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


# -- the loops as they were while their guards called abs ------------------------------------
#
# _gamma_series stopped on abs(term) < abs(total) * 1e-17; the Lentz fractions
# tested abs(v) < _FPMIN and stopped on abs(delta - 1.0) < 1e-17. These copies
# count the guards they take, so the grids below show that they reach them.

_FPMIN = 1e-300
_GUARDS = Counter()


def _old_gamma_series(a, x):
    ap = a
    total = term = 1.0 / a
    for _ in range(1000):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _old_gamma_contfrac(a, x):
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            _GUARDS["gamma d"] += 1
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            _GUARDS["gamma c"] += 1
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def _old_beta_contfrac(a, b, x):
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        _GUARDS["beta first d"] += 1
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            _GUARDS["beta d"] += 1
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            _GUARDS["beta c"] += 1
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            _GUARDS["beta d"] += 1
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            _GUARDS["beta c"] += 1
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return h


def _outcome(call, *args):
    """The result's bits, or the type of the error raised."""
    try:
        return call(*args).hex()
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        return type(exc)


def test_loops_equal_the_abs_forms_and_reach_every_guard():
    # dyadic arguments, in and out of the tails' domains, make the fractions
    # pass through exact zeros; a loop gives the old bits or the old error.
    # The series drops abs where its terms are positive: a > 0 and x > 0.
    _GUARDS.clear()
    halves = [k / 2 for k in range(-4, 9) if k]
    eighths = [k / 8 for k in range(-8, 17) if k]
    for a, b, x in itertools.product(halves, halves, eighths):
        assert _outcome(bnsl.special._beta_contfrac, a, b, x) == \
            _outcome(_old_beta_contfrac, a, b, x)
    for a, x in itertools.product(halves, [k / 4 for k in range(-24, 48) if k]):
        assert _outcome(bnsl.special._gamma_contfrac, a, x) == \
            _outcome(_old_gamma_contfrac, a, x)
        if a > 0 and x > 0:
            assert _outcome(bnsl.special._gamma_series, a, x) == \
                _outcome(_old_gamma_series, a, x)
    assert set(_GUARDS) == {"gamma d", "gamma c", "beta first d", "beta d", "beta c"}, _GUARDS


def _old_loops(monkeypatch):
    monkeypatch.setattr(bnsl.special, "_gamma_series", _old_gamma_series)
    monkeypatch.setattr(bnsl.special, "_gamma_contfrac", _old_gamma_contfrac)
    monkeypatch.setattr(bnsl.special, "_beta_contfrac", _old_beta_contfrac)


def _tails(calls):
    return [getattr(bnsl.special, name)(*args).hex() for name, args in calls]


def test_tails_equal_the_abs_forms_on_random_grids(monkeypatch):
    # both branches of each tail: the series (x < a + 1) and the fraction,
    # the fraction on x or on 1 - x
    rng = np.random.default_rng(89)
    calls = []
    for _ in range(3000):
        df = float(rng.choice([rng.integers(1, 400), rng.uniform(0.01, 400.0)]))
        x = float(rng.choice([rng.uniform(0.0, 2.0 * df + 10.0), 10.0 ** rng.uniform(-12, 3)]))
        calls.append(("chi2_sf", (x, df)))
        calls.append(("student_t_two_sided", (float(rng.normal(scale=4.0)), df)))
        a, b = 10.0 ** rng.uniform(-2, 3, 2)
        calls.append(("regularized_beta", (a, b, float(rng.uniform()))))
        calls.append(("regularized_gamma_q", (a, float(rng.uniform(0.0, 3.0 * a + 5.0)))))
    new = _tails(calls)
    branches = Counter()
    for name, args in calls:
        if name == "regularized_gamma_q":
            branches["series" if args[1] < args[0] + 1.0 else "fraction"] += 1
        if name == "regularized_beta":
            a, b, x = args
            branches["on x" if x < (a + 1.0) / (a + b + 2.0) else "on 1 - x"] += 1
    assert min(branches.values()) >= 500 and len(branches) == 4, branches
    _old_loops(monkeypatch)
    assert _tails(calls) == new


def _captured_tail_calls(tmp_path):
    """The (name, args) of every tail a learner calls in one alarm-ci and one gauss40 pass."""
    workloads = perfbench_module("workloads")
    calls = []
    for workload in ("alarm-ci", "gauss40"):
        inputs = workloads.make_inputs(workload, 1, tmp_path)
        with pytest.MonkeyPatch.context() as mp:
            for name in ("chi2_sf", "student_t_two_sided", "normal_two_sided"):
                def recorded(*args, _name=name, _tail=getattr(bnsl.independence, name)):
                    calls.append((_name, args))
                    return _tail(*args)
                mp.setattr(bnsl.independence, name, recorded)
            workloads.run_pass(workload, inputs)
    return calls


def test_tails_equal_the_abs_forms_on_the_benchmark_calls(tmp_path, monkeypatch):
    calls = _captured_tail_calls(tmp_path)
    assert Counter(name for name, _ in calls) == {
        "chi2_sf": 6101, "student_t_two_sided": 2330, "normal_two_sided": 1692}
    new = _tails(calls)
    _old_loops(monkeypatch)
    assert _tails(calls) == new


def test_infinite_parameters_give_their_limits():
    inf = math.inf
    assert regularized_gamma_q(1.0, inf) == 0.0 == sps.gammaincc(1.0, inf)
    assert regularized_gamma_q(inf, 1.0) == 1.0 == sps.gammaincc(inf, 1.0)
    assert regularized_gamma_q(inf, 0.0) == 1.0
    assert regularized_beta(inf, 1.0, 0.5) == 0.0 == sps.betainc(inf, 1.0, 0.5)
    assert regularized_beta(1.0, inf, 0.5) == 1.0 == sps.betainc(1.0, inf, 0.5)
    assert (regularized_beta(inf, inf, 0.0), regularized_beta(inf, inf, 1.0)) == (0.0, 1.0)
    assert chi2_sf(1.0, inf) == 1.0
    with pytest.raises(ValueError, match="^a and x are both infinite$"):
        regularized_gamma_q(inf, inf)
    with pytest.raises(ValueError, match="^a and b are both infinite$"):
        regularized_beta(inf, inf, 0.5)


@pytest.mark.parametrize("df", [2.0 ** 54, 1e17, 3.3e17, 1e20, 1e300, 1.7e308])
def test_chi2_sf_where_a_plus_one_rounds_to_a(df):
    # x = df >= 2^54: the fraction's first step would divide by x/2 + 1 - df/2 = 0
    assert chi2_sf(df, df) == pytest.approx(stats.chi2.sf(df, df), rel=1e-12, abs=0)
    assert regularized_gamma_q(df / 2, df / 2) == pytest.approx(
        sps.gammaincc(df / 2, df / 2), rel=1e-12, abs=0)


@pytest.mark.parametrize("df, rel", [(1e3, 1e-12), (1e4, 1e-10), (1e5, 1e-9), (3e5, 1e-9),
                                     (1e6, 1e-9), (1e7, 5e-8)])
def test_chi2_sf_past_the_step_cap_against_scipy(df, rel):
    # near x = df a tail takes about 8 sqrt(df / 2) steps, past _MAX_ITER from
    # df of about 3e4; it used to return its partial sum there (0.578 at 1e6)
    for x in (df - 6.0 * math.sqrt(2.0 * df), df, df + 6.0 * math.sqrt(2.0 * df)):
        assert chi2_sf(x, df) == pytest.approx(stats.chi2.sf(x, df), rel=rel, abs=0)


@pytest.mark.parametrize("df", [1.1e7, 1e8, 1e12])
def test_chi2_sf_that_cannot_converge_names_df(df):
    with pytest.raises(ValueError, match=re.escape(f"(chi-squared df = {df:g})")):
        chi2_sf(df, df)
    # far from x = df the tails still converge in a few steps
    assert chi2_sf(0.5 * df, df) == stats.chi2.sf(0.5 * df, df) == 1.0
    assert chi2_sf(2.0 * df, df) == stats.chi2.sf(2.0 * df, df) == 0.0
