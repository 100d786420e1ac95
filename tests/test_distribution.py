"""Density, cdf/sf, moments, summary, mode, quantile, sampling."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gels.distribution import (
    GelSParams,
    MomentOverflowError,
    cdf,
    log_norm_const,
    log_pdf,
    mode,
    moment,
    pdf,
    quantile,
    sample,
    sf,
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

    @pytest.mark.parametrize("triple", [(10.0, 0, 1.0), (100.0, 3, 1.0), (1000.0, 0, 1.0)])
    def test_support_edge(self, triple):
        # alpha + e^y rounds to alpha here; the quantile must stay in the
        # open support (alpha, inf)
        params = GelSParams(*triple)
        q = quantile(params, 1e-300)
        assert q > params.alpha
        assert q == math.nextafter(params.alpha, math.inf)


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
