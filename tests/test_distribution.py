"""Density, cdf/sf, moments, summary, mode, quantile, sampling, and the
bracket growth and safeguarded Newton solver behind quantile and mode.

The solver takes an increasing f that returns (value, slope), a bracket with
f(lo) <= 0 <= f(hi), and a start.
"""

import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gels import distribution
from gels.distribution import (
    BracketError,
    ConvergenceError,
    FloatOverflowError,
    GelSParams,
    MomentOverflowError,
    cdf,
    expand_bracket,
    log_norm_const,
    log_pdf,
    mode,
    moment,
    pdf,
    quantile,
    sample,
    sf,
    solve_bracketed,
    summary,
)

# the seven reference triples used throughout the summary tables
TRIPLES = [
    GelSParams(0.5, 1, 0.5),
    GelSParams(1.0, 1, 0.5),
    GelSParams(1.5, 1, 0.5),
    GelSParams(0.5, 0, 0.5),
    GelSParams(0.5, 2, 0.5),
    GelSParams(0.5, 1, 0.4),
    GelSParams(0.5, 1, 0.6),
]


def lognormal_pdf(x, mu, sigma):
    return (math.exp(-((math.log(x) - mu) ** 2) / (2 * sigma ** 2))
            / (x * sigma * math.sqrt(2 * math.pi)))


def lognormal_cdf(x, mu, sigma):
    return 0.5 * math.erfc(-(math.log(x) - mu) / (sigma * math.sqrt(2.0)))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GelSParams(-0.1, 0, 1.0)
        with pytest.raises(ValueError):
            GelSParams(0.0, -1, 1.0)
        with pytest.raises(ValueError):
            GelSParams(0.0, 0, 0.0)
        with pytest.raises(ValueError):
            GelSParams(0.0, 1.5, 1.0)

    def test_gamma_square_must_be_a_normal_float(self):
        # gamma^2 sets the component means; once it underflows they all
        # collapse onto 0 and the summary divides by a zero variance
        smallest = math.sqrt(sys.float_info.min)
        assert GelSParams(0.0, 0, smallest).gamma == smallest
        for gamma in (5e-324, 1e-160, math.nextafter(smallest, 0.0)):
            with pytest.raises(ValueError):
                GelSParams(1e-300, 0, gamma)

    def test_frozen(self):
        p = GelSParams(0.5, 1, 0.5)
        with pytest.raises(Exception):
            p.alpha = 1.0


class TestLogNormConst:
    def test_lognormal_case(self):
        expected = -(0.5 * math.log(2 * math.pi) + 0.5)
        assert abs(log_norm_const(GelSParams(0.0, 0, 1.0)) - expected) < 1e-14

    @pytest.mark.parametrize("params", [GelSParams(0.5, 1, 0.5),
                                        GelSParams(1.0, 2, 1.0)])
    def test_normalizes_the_density(self, params):
        hi = quantile(params, 1.0 - 1e-12)
        total, _ = quad(lambda x: pdf(params, x), params.alpha, hi, limit=200)
        assert abs(total - 1.0) <= 1e-8


class TestPdf:
    def test_zero_at_and_below_support(self):
        p = GelSParams(0.5, 1, 0.5)
        assert pdf(p, 0.5) == 0.0
        assert pdf(p, 0.2) == 0.0
        assert log_pdf(p, 0.5) == -math.inf

    def test_lognormal_reduction_pointwise(self):
        p = GelSParams(0.0, 0, 0.7)
        expected = lognormal_pdf(2.0, 0.49, 0.7)
        assert abs(pdf(p, 2.0) - expected) <= 1e-12 * expected

    def test_maximum_at_tabulated_mode(self):
        p = GelSParams(0.5, 1, 0.5)
        m = 1.69
        assert pdf(p, m) > pdf(p, m - 0.05)
        assert pdf(p, m) > pdf(p, m + 0.05)

    def test_log_pdf_consistent(self):
        p = GelSParams(1.0, 2, 1.0)
        for x in (1.5, 3.0, 10.0):
            assert abs(math.exp(log_pdf(p, x)) - pdf(p, x)) <= 1e-15


class TestCdfSf:
    def test_boundary(self):
        p = GelSParams(0.5, 1, 0.5)
        assert cdf(p, 0.5) == 0.0
        assert cdf(p, 0.1) == 0.0
        assert sf(p, 0.5) == 1.0

    def test_tabulated_quantile_points(self):
        p = GelSParams(0.5, 1, 0.5)
        assert abs(cdf(p, 2.05) - 0.50) <= 0.005
        assert abs(cdf(p, 5.56) - 0.99) <= 0.001
        assert abs(sf(p, 4.08) - 0.05) <= 0.001

    @pytest.mark.parametrize("params", TRIPLES)
    def test_complement(self, params):
        for q in (0.01, 0.1, 0.5, 0.9, 0.99, 0.9999):
            x = quantile(params, q)
            assert abs(cdf(params, x) + sf(params, x) - 1.0) <= 1e-12

    @pytest.mark.parametrize("params", [GelSParams(0.5, 1, 0.5),
                                        GelSParams(1.0, 2, 1.0),
                                        GelSParams(0.0, 3, 0.8)])
    def test_derivative_matches_pdf(self, params):
        xs = np.linspace(quantile(params, 0.01), quantile(params, 0.99), 50)
        for x in xs:
            h = 1e-6 * max(1.0, abs(x))
            deriv = (cdf(params, x + h) - cdf(params, x - h)) / (2 * h)
            assert abs(deriv - pdf(params, x)) <= 1e-6 * max(1e-12, pdf(params, x))

    def test_sf_dominated_by_top_component(self):
        # each mixture mean is <= (k+1) gamma^2, so the top component bounds sf
        p = GelSParams(0.5, 2, 0.5)
        top_mu = (p.k + 1) * p.gamma ** 2
        for x in (5.0, 10.0, 30.0, 100.0):
            z = (math.log(x - p.alpha) - top_mu) / p.gamma
            bound = 0.5 * math.erfc(z / math.sqrt(2.0))
            assert sf(p, x) <= bound + 1e-15

    def test_monotone(self):
        p = GelSParams(0.5, 1, 0.5)
        xs = np.linspace(0.51, 20.0, 400)
        vals = [cdf(p, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.999


class TestLiveMixture:
    """The mixture view keeps exactly the components whose weight is not 0.0."""

    def test_dead_rows_dropped(self):
        p = GelSParams(0.01, 200, 0.01)  # 177 of the 201 weights are nonzero
        w = distribution.log_series_sum(p.alpha, p.gamma, p.k).weights
        mus, live = distribution._mixture(p)
        assert mus.size == live.size == np.count_nonzero(w) == 177
        np.testing.assert_array_equal(live, w[w != 0.0])
        np.testing.assert_array_equal(mus, (np.flatnonzero(w) + 1.0) * p.gamma ** 2)
        assert not (mus.flags.writeable or live.flags.writeable)

    def test_one_component_at_alpha_zero(self):
        mus, w = distribution._mixture(GelSParams(0.0, 5, 0.6))
        assert mus.tolist() == [6 * 0.6 ** 2] and w.tolist() == [1.0]


class TestMoment:
    def test_order_zero_is_one(self):
        for params in TRIPLES:
            assert moment(params, 0) == pytest.approx(1.0, abs=1e-14)

    def test_lognormal_mean(self):
        p = GelSParams(0.0, 0, 0.5)
        assert abs(moment(p, 1) - math.exp(0.375)) <= 1e-12

    def test_tabulated_mean(self):
        assert abs(moment(GelSParams(0.5, 1, 0.5), 1) - 2.26) <= 0.005

    @pytest.mark.parametrize("params", [GelSParams(0.5, 1, 0.5),
                                        GelSParams(1.0, 2, 1.0),
                                        GelSParams(0.0, 5, 0.4)])
    def test_matches_quadrature(self, params):
        # integrate in y = log(x - alpha): the x^n weight shifts the mixture
        # means by n gamma^2, so fixed x-space cuts lose tail mass
        a, g, k = params.alpha, params.gamma, params.k
        for n in range(1, 5):
            y_hi = (k + 1) * g * g + n * g * g + 12 * g

            def integrand(y):
                x = a + math.exp(y)
                return x ** n * pdf(params, x) * math.exp(y)

            num, _ = quad(integrand, -60.0, y_hi, limit=300)
            closed = moment(params, n)
            assert abs(num - closed) <= 1e-7 * closed

    def test_overflow_signalled(self):
        p = GelSParams(0.0, 0, 3.0)
        with pytest.raises(MomentOverflowError) as err:
            moment(p, 12)
        # the log-space value survives in the error
        expected_log = (13 ** 2 - 1) * 9.0 / 2.0
        assert abs(err.value.log_value - expected_log) <= 1e-9 * expected_log


class TestMode:
    def test_k_zero_closed_form(self):
        assert mode(GelSParams(0.5, 0, 0.5)) == 1.5
        assert mode(GelSParams(2.0, 0, 1.3)) == 3.0

    def test_tabulated(self):
        assert abs(mode(GelSParams(0.5, 1, 0.5)) - 1.69) <= 0.005
        assert abs(mode(GelSParams(0.5, 2, 0.5)) - 1.95) <= 0.005

    def test_above_one_plus_alpha_for_positive_k(self):
        for params in TRIPLES:
            if params.k > 0:
                assert mode(params) > 1.0 + params.alpha

    def test_solves_mode_equation(self):
        p = GelSParams(1.0, 3, 0.7)
        x = mode(p)
        resid = x * math.log(x - p.alpha) - p.k * p.gamma ** 2 * (x - p.alpha)
        assert abs(resid) <= 1e-9

    @pytest.mark.parametrize("params", TRIPLES)
    def test_unimodal_on_grid(self, params):
        m = mode(params)
        lo = params.alpha + 1e-9 * max(1.0, params.alpha)
        rising = np.linspace(lo, m, 1000)
        falling = np.linspace(m, quantile(params, 1 - 1e-6), 1000)
        up = np.array([pdf(params, x) for x in rising])
        down = np.array([pdf(params, x) for x in falling])
        assert np.all(np.diff(up) > 0)
        assert np.all(np.diff(down) < 0)

    def test_global_maximum_when_bimodal(self):
        # alpha > e^2 and k gamma^2 > 4: local maxima near x = 17.8 (log pdf
        # -6.83) and x = 189.6 (log pdf -6.57); the mode is the higher one
        p = GelSParams(16.09314208673802, 8, 0.8392431726193268)
        m = mode(p)
        ys = np.linspace(-2.0, p.k * p.gamma ** 2 + 1.0, 20001)
        grid = [log_pdf(p, p.alpha + math.exp(y)) for y in ys]
        best = int(np.argmax(grid))
        assert log_pdf(p, m) >= grid[best]
        assert abs(m - (p.alpha + math.exp(ys[best]))) <= 1e-3 * m
        assert abs(m - 189.65) <= 0.01

    @pytest.mark.parametrize("triple", [(0.5, 1, 30.0), (0.5, 3, 16.0)])
    def test_overflow_carries_log_value(self, triple):
        # k gamma^2 = 900 and 768: the mode is past the float range
        p = GelSParams(*triple)
        with pytest.raises(FloatOverflowError) as err:
            mode(p)
        y = err.value.log_value
        assert abs(y * (1 + p.alpha * math.exp(-y)) - p.k * p.gamma ** 2) <= 1e-12 * y

    def test_finite_near_float_max(self):
        # k gamma^2 = 709.16 is above ln(DBL_MAX) - 1, yet the mode fits
        p = GelSParams(0.5, 1, 26.63)
        x = mode(p)
        assert math.isfinite(x)
        assert abs(math.log(x) - p.k * p.gamma ** 2) <= 1e-12 * math.log(x)


class TestQuantile:
    def test_tabulated(self):
        assert abs(quantile(GelSParams(0.5, 1, 0.5), 0.5) - 2.05) <= 0.005
        assert abs(quantile(GelSParams(0.5, 1, 0.6), 0.99) - 8.42) <= 0.005

    def test_lognormal_median(self):
        assert abs(quantile(GelSParams(0.0, 0, 0.5), 0.5) - math.exp(0.25)) <= 1e-10

    def test_domain(self):
        p = GelSParams(0.5, 1, 0.5)
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError):
                quantile(p, bad)

    @pytest.mark.parametrize("params", TRIPLES + [GelSParams(1.0, 2, 1.0),
                                                  GelSParams(2.0, 4, 0.5)])
    def test_round_trip(self, params):
        ps = [0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999]
        for p in ps:
            q = quantile(params, p)
            assert abs(cdf(params, q) - p) <= 1e-10

    def test_far_lower_tail(self):
        # p = 1e-300 is 37 sd below the median of every component
        params = GelSParams(6.048682828471002, 120, 0.12715536529307978)
        q = quantile(params, 1e-300)
        assert abs(cdf(params, q) / 1e-300 - 1.0) <= 1e-9

    @pytest.mark.parametrize("triple", [(0.5, 1, 0.5),
                                        (2.1861238596493044, 56, 0.042692050366358564)])
    def test_upper_tail_next_to_one(self, triple):
        # the cdf rounds short of p = 1 - 2^-53, so the root must come from
        # the sf: (0.5, 1, 0.5) gave sf = 4.6e-18, the second raised
        # BracketError
        params = GelSParams(*triple)
        p = 1.0 - 2.0 ** -53
        q = quantile(params, p)
        assert abs(sf(params, q) / (1.0 - p) - 1.0) <= 1e-9

    def test_upper_tail_over_the_box(self):
        # alpha in [1e-2, 1e3], k <= 60, gamma in [1e-2, 1], as TestParameterBox
        rng = np.random.default_rng(53)
        n = 1000
        p = 1.0 - 2.0 ** -53
        for a, k, g in zip(10.0 ** rng.uniform(-2.0, 3.0, n), rng.integers(0, 61, n),
                           10.0 ** rng.uniform(-2.0, 0.0, n)):
            params = GelSParams(a, int(k), g)
            q = quantile(params, p)
            assert abs(sf(params, q) / (1.0 - p) - 1.0) <= 1e-9, params

    @pytest.mark.parametrize("triple", [(10.0, 0, 1.0), (100.0, 3, 1.0), (1000.0, 0, 1.0)])
    def test_support_edge(self, triple):
        # alpha + e^y rounds to alpha here; the quantile must stay in the
        # open support (alpha, inf)
        params = GelSParams(*triple)
        q = quantile(params, 1e-300)
        assert q > params.alpha
        assert q == math.nextafter(params.alpha, math.inf)


# root of cos x = x, frozen from a converged fixed-point iteration
DOTTIE = 0.7390851332151607


def with_slope(f, df):
    return lambda x: (f(x), df(x))


class TestExpandBracket:
    def test_linear(self):
        hi = expand_bracket(with_slope(lambda x: x - 5.0, lambda x: 1.0), 0.0, 1.0)
        assert 5.0 <= hi

    def test_log(self):
        hi = expand_bracket(with_slope(lambda x: math.log(x) - 3.0, lambda x: 1.0 / x), 1.0, 2.0)
        assert math.e ** 3 <= hi

    def test_geometric_growth(self):
        seen = []

        def f(x):
            seen.append(x)
            return x - 100.0, 1.0

        expand_bracket(f, 1.0, 2.0)
        # upper probes follow lo + 2^j (hi0 - lo), starting at hi0
        assert seen == [1.0 + 2.0 ** j for j in range(len(seen))]
        assert seen[-1] >= 100.0 > seen[-2]

    def test_no_root(self):
        with pytest.raises(BracketError):
            expand_bracket(lambda x: (-1.0, 0.0), 0.0, 1.0)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            expand_bracket(lambda x: (x, 1.0), 1.0, 1.0)


class TestSolveBracketed:
    def test_sqrt2(self):
        root = solve_bracketed(lambda x: (x * x - 2.0, 2.0 * x), 1.0, 2.0, 1.5)
        assert abs(root - math.sqrt(2.0)) <= 1e-14

    def test_identity(self):
        assert solve_bracketed(lambda x: (x, 1.0), -1.0, 1.0, 0.5) == 0.0

    def test_dottie_number(self):
        # cos x - x decreases, so solve x - cos x = 0
        f = with_slope(lambda x: x - math.cos(x), lambda x: 1.0 + math.sin(x))
        root = solve_bracketed(f, 0.0, 1.0, 0.0)
        assert abs(root - DOTTIE) <= 1e-15

    def test_budget_exhausted(self):
        # a step with no slope: every iteration bisects, and 200 halvings
        # cannot narrow a bracket of width 2e300 to 1e-13
        f = lambda x: (math.copysign(1.0, x - 1.0), 0.0)
        with pytest.raises(ConvergenceError) as err:
            solve_bracketed(f, -1e300, 1e300, 0.5)
        # error carries the last bracket, which still holds the jump
        assert err.value.lo <= 1.0 <= err.value.hi

    @given(st.floats(-50, 50), st.floats(0.1, 50), st.floats(0.2, 4), st.floats(0, 1))
    def test_root_stays_inside_bracket(self, r, off, cube, start):
        # odd, strictly increasing function with the only real root at r
        f = with_slope(lambda x: cube * (x - r) ** 3 + (x - r),
                       lambda x: 3.0 * cube * (x - r) ** 2 + 1.0)
        lo, hi = r - off, r + 1.7 * off
        root = solve_bracketed(f, lo, hi, lo + start * (hi - lo))
        assert lo <= root <= hi
        assert abs(root - r) <= 1e-12 * max(1.0, abs(r))

    def test_steep_tail(self):
        # Phi(x) - Phi(-30): from x = 0 plain Newton moves about 1/|x| per
        # step down the tail, so reaching -30 needs bisection as well
        p = 0.5 * math.erfc(30.0 / math.sqrt(2.0))
        f = with_slope(lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0)) - p,
                       lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
        assert abs(solve_bracketed(f, -40.0, 0.0, 0.0) + 30.0) <= 1e-12

    def test_steep_flat_mix(self):
        # flat shelf then steep rise; bisection fallback must keep progress
        f = with_slope(lambda x: math.tanh(50.0 * (x - 3.0)) + x / 1e6,
                       lambda x: 50.0 / math.cosh(50.0 * (x - 3.0)) ** 2 + 1e-6)
        hi = expand_bracket(f, -1.0, 0.5)
        root = solve_bracketed(f, -1.0, hi, -1.0)
        assert abs(f(root)[0]) < 1e-12


TRIPLE_BOX = st.builds(
    GelSParams,
    st.floats(-2.0, 3.0).map(lambda e: 10.0 ** e),
    st.integers(0, 60),
    st.floats(-2.0, 0.0).map(lambda e: 10.0 ** e),
)


class TestParameterBox:
    # alpha in [1e-2, 1e3], k <= 60, gamma in [1e-2, 1]

    @given(TRIPLE_BOX, st.floats(1e-9, 1.0 - 1e-9))
    @settings(max_examples=200, deadline=None)
    def test_quantile_round_trip(self, params, p):
        assert abs(cdf(params, quantile(params, p)) - p) <= 1e-10

    @given(TRIPLE_BOX)
    @settings(max_examples=200, deadline=None)
    def test_mode_maximizes_density(self, params):
        # every turning point has ln(x - alpha) in [0, k gamma^2]
        a, k, g = params.alpha, params.k, params.gamma
        y = np.linspace(-1.0, k * g * g + 1.0, 2001)
        x = a + np.exp(y)

        def log_density(x, y):  # log pdf up to log C
            return k * np.log(x) - y * y / (2.0 * g * g)

        m = mode(params)
        at_mode = log_density(m, math.log(m - a))
        assert at_mode >= log_density(x, y).max() - 1e-12 * max(1.0, abs(at_mode))


class TestLogNormalReduction:
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("gamma", [0.3, 0.7, 1.2])
    def test_pdf_cdf_quantile(self, k, gamma):
        params = GelSParams(0.0, k, gamma)
        mu = gamma ** 2 * (k + 1)
        for x in (0.3, 0.8, 1.5, 3.0, 8.0):
            fx = lognormal_pdf(x, mu, gamma)
            Fx = lognormal_cdf(x, mu, gamma)
            assert abs(pdf(params, x) - fx) <= 1e-10 * max(1e-300, fx)
            assert abs(cdf(params, x) - Fx) <= 1e-10 * max(1e-300, Fx)
        for p in (0.05, 0.5, 0.95):
            z = math.sqrt(2.0) * _erfinv(2 * p - 1)
            closed = math.exp(mu + gamma * z)
            assert abs(quantile(params, p) - closed) <= 1e-10 * closed


def _erfinv(y):
    from scipy.special import erfinv

    return float(erfinv(y))


class TestTails:
    @pytest.mark.parametrize("params", TRIPLES)
    def test_lower_tail_effectively_zero(self, params):
        assert pdf(params, params.alpha + 1e-10) < 1e-300

    @pytest.mark.parametrize("params", TRIPLES)
    def test_upper_tail_light(self, params):
        assert pdf(params, quantile(params, 1 - 1e-9)) < 1e-6


class TestSummary:
    def test_first_reference_row(self):
        s = summary(GelSParams(0.5, 1, 0.5))
        assert abs(s.mean - 2.26) <= 0.005
        assert abs(s.variance - 0.92) <= 0.005
        assert abs(s.skewness - 1.78) <= 0.005
        assert abs(s.kurtosis - 9.08) <= 0.005

    def test_last_reference_row(self):
        s = summary(GelSParams(0.5, 1, 0.6))
        assert abs(s.mean - 2.79) <= 0.005
        assert abs(s.variance - 2.41) <= 0.005
        assert abs(s.skewness - 2.31) <= 0.005
        assert abs(s.kurtosis - 13.68) <= 0.005

    def test_lognormal_closed_forms(self):
        gamma = 0.6
        s = summary(GelSParams(0.0, 0, gamma))
        w = math.exp(gamma ** 2)
        mean = math.exp(gamma ** 2 + gamma ** 2 / 2)
        var = (w - 1) * math.exp(2 * gamma ** 2 + gamma ** 2)
        skew = (w + 2) * math.sqrt(w - 1)
        assert abs(s.mean - mean) <= 1e-10 * mean
        assert abs(s.variance - var) <= 1e-10 * var
        assert abs(s.skewness - skew) <= 1e-10 * skew

    @pytest.mark.parametrize("params", TRIPLES)
    def test_ordering(self, params):
        s = summary(params)
        assert params.alpha < s.mode < s.median < s.mean
        assert s.variance > 0


def mp_summary(triple, dps=60):
    """Mean, variance, skewness and kurtosis from the series' raw moments
    E[X^n] = S(alpha, gamma, n + k) / S(alpha, gamma, k) at `dps` digits."""
    alpha, k, gamma = triple
    with mpmath.workdps(dps):
        a, g = mpmath.mpf(alpha), mpmath.mpf(gamma)

        def series(m):
            return mpmath.fsum(mpmath.binomial(m, i) * a ** (m - i)
                               * mpmath.exp((i + 1) ** 2 * g * g / 2) for i in range(m + 1))

        base = series(k)
        m1, m2, m3, m4 = (series(n + k) / base for n in (1, 2, 3, 4))
        var = m2 - m1 ** 2
        mu3 = m3 - 3 * m1 * m2 + 2 * m1 ** 3
        mu4 = m4 - 4 * m1 * m3 + 6 * m1 ** 2 * m2 - 3 * m1 ** 4
        return tuple(float(v) for v in (m1, var, mu3 / var ** 1.5, mu4 / var ** 2))


def assert_matches_oracle(params, dps=60):
    s = summary(params)
    mean, var, skew, kurt = mp_summary((params.alpha, params.k, params.gamma), dps)
    # 3,500 seeded box triples stayed within 1.4e-14 (mean) and 4.7e-14
    assert s.mean == pytest.approx(mean, rel=1e-13)
    assert s.variance == pytest.approx(var, rel=2e-13)
    assert s.skewness == pytest.approx(skew, rel=2e-13)
    assert s.kurtosis == pytest.approx(kurt, rel=2e-13)


class TestSummaryCentralMoments:
    """summary against a 60-digit oracle where raw-to-central moments cancel."""

    @pytest.mark.parametrize("triple", [
        (200.0, 2, 0.02), (1000.0, 0, 0.01), (50.0, 5, 0.05),
        (0.5, 1, 0.5), (7.7954, 27, 0.4063), (2.0, 4, 0.5),
    ])
    def test_oracle(self, triple):
        assert_matches_oracle(GelSParams(*triple))

    def test_variance_positive_where_raw_moments_cancel(self):
        # (E[X]/sd)^4 is about 1e44 here; the oracle needs 60 more digits
        params = GelSParams(1e3, 200, 1e-8)
        assert_matches_oracle(params, dps=120)
        assert summary(params).variance > 0.0

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.one_of(st.just(0.0), st.floats(1e-2, 1e3)),
           k=st.integers(0, 60), gamma=st.floats(1e-2, 1.0))
    def test_box_sweep(self, alpha, k, gamma):
        params = GelSParams(alpha, k, gamma)
        assert_matches_oracle(params)
        s = summary(params)
        assert s.kurtosis >= 1.0 + s.skewness ** 2
        assert abs(cdf(params, s.median) - 0.5) <= 1e-10

    def test_overflow_carries_log_value(self):
        # log-normal with mu = sigma^2 = 225: log variance = 4 sigma^2 + log(1 - e^-225)
        with pytest.raises(MomentOverflowError) as err:
            summary(GelSParams(0.0, 0, 15.0))
        assert err.value.log_value == pytest.approx(900.0, rel=1e-14)


class TestSample:
    def test_support_and_determinism(self):
        p = GelSParams(0.5, 1, 0.5)
        a = sample(p, 1000, seed=17)
        b = sample(p, 1000, seed=17)
        c = sample(p, 1000, seed=18)
        assert np.all(a > p.alpha)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_marginal_moments(self):
        p = GelSParams(1.0, 2, 1.0)
        x = sample(p, 40000, seed=3)
        mean = moment(p, 1)
        sd = math.sqrt(moment(p, 2) - mean ** 2)
        assert abs(x.mean() - mean) <= 5 * sd / math.sqrt(x.size)

    def test_ks_distance(self):
        p = GelSParams(1.0, 2, 1.0)
        n = 10000
        x = np.sort(sample(p, n, seed=11))
        F = np.array([cdf(p, v) for v in x])
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(grid - F)), np.max(np.abs(grid - 1 / n - F)))
        assert ks < 1.63 / math.sqrt(n)

    def test_quantile_agreement(self):
        # inverse-transform exactness: sampled u -> quantile(u)
        p = GelSParams(0.5, 1, 0.6)
        x = sample(p, 50, seed=2)
        rng = np.random.default_rng(2)
        u = np.maximum(rng.random(50), 2.0 ** -53)
        expected = np.array([quantile(p, ui) for ui in u])
        assert np.allclose(x, expected, rtol=1e-9, atol=1e-12)


# (0.5, 1, 0.6) and (1, 2, 1) are small-k triples, (7.7954, 27, 0.4063) the
# ball_bearings fit, (43.444, 60, 0.05) 61 components far from alpha = 0,
# (0, 3, 0.6) the one-component log-normal boundary, and (0.01, 200, 0.01)
# 177 live components out of 201
SAMPLER_TRIPLES = [(0.5, 1, 0.6), (7.7954, 27, 0.4063), (1.0, 2, 1.0),
                   (43.444, 60, 0.05), (0.0, 3, 0.6), (0.01, 200, 0.01)]


def uniforms(n, seed):
    return np.maximum(np.random.default_rng(seed).random(n), 2.0 ** -53)


class TestBlockedInverse:
    @pytest.mark.parametrize("triple", SAMPLER_TRIPLES)
    def test_draws_equal_scalar_quantile(self, triple):
        p = GelSParams(*triple)
        u = uniforms(500, 23)
        assert (u > 0.5).any() and (u < 0.5).any()
        expected = np.array([quantile(p, v) for v in u])
        np.testing.assert_allclose(sample(p, 500, seed=23), expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("triple", SAMPLER_TRIPLES)
    def test_extreme_levels(self, triple):
        # the generator never yields the 2^-53 floor itself, so the levels go in directly
        p = GelSParams(*triple)
        u = np.array([2.0 ** -53, 1e-9, 0.5, 0.5 + 2.0 ** -53, 1.0 - 1e-9, 1.0 - 2.0 ** -53])
        mus, w = distribution._mixture(p)
        y = distribution._invert(mus, w, p.gamma, u)
        expected = np.array([quantile(p, v) for v in u])
        np.testing.assert_allclose(p.alpha + np.exp(y), expected, rtol=1e-13, atol=0.0)

    def test_block_edges(self):
        b = distribution._BLOCK
        p = GelSParams(0.5, 1, 0.5)
        longest = 3 * b + 5
        u = uniforms(longest, 4)
        full = sample(p, longest, seed=4)
        for n in (1, b - 1, b, b + 1, longest):
            x = sample(p, n, seed=4)
            np.testing.assert_allclose(x, full[:n], rtol=1e-15, atol=0.0)
            for i in {0, n - 1, min(b - 1, n - 1), min(b, n - 1)}:
                assert x[i] == pytest.approx(quantile(p, u[i]), rel=1e-13)

    def test_blocks_sized_by_the_element_budget(self):
        # K = 301 > 128 components, so a block holds 2^20 // 301 = 3483 draws
        p = GelSParams(2.0, 300, 0.1)
        b = distribution._BLOCK_ELEMENTS // 301
        assert b < distribution._BLOCK
        n = b + 2
        u = uniforms(n, 5)
        x = sample(p, n, seed=5)
        for i in sorted({*range(0, n, 97), b - 1, b, n - 1}):
            assert x[i] == pytest.approx(quantile(p, u[i]), rel=1e-13)

    def test_memory_bounded_by_the_block(self):
        # at 61 components a K x n sweep of 50,000 draws needs about 73 MiB
        p = GelSParams(43.444, 60, 0.05)
        sample(p, 10, seed=1)  # scipy and the mixture cache load outside the trace
        tracemalloc.start()
        try:
            sample(p, 50_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2 ** 20
