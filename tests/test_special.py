"""Scalar special functions and the log-space series."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gels.special_math import (
    LogSeriesSum,
    log_binomial,
    log_series_sum,
    log_series_sum_partials,
    std_normal_cdf,
)

# Phi(1) from 50-digit quadrature of the standard normal pdf on (-inf, 1]
PHI_AT_ONE = 0.8413447460685429


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_value_at_one(self):
        assert abs(std_normal_cdf(1.0) - PHI_AT_ONE) <= 1e-15

    def test_reflection_grid(self):
        for i in range(201):
            z = -10.0 + 0.1 * i
            total = std_normal_cdf(z) + std_normal_cdf(-z)
            assert abs(total - 1.0) < 1e-15

    def test_saturation(self):
        assert std_normal_cdf(-50.0) == 0.0
        assert std_normal_cdf(50.0) == 1.0

    @given(st.floats(-40, 40), st.floats(-40, 40))
    def test_monotone(self, z1, z2):
        lo, hi = min(z1, z2), max(z1, z2)
        assert std_normal_cdf(lo) <= std_normal_cdf(hi)


class TestLogBinomial:
    def test_edge_and_small(self):
        assert log_binomial(5, 0) == 0.0
        assert abs(log_binomial(4, 2) - math.log(6)) < 1e-14

    @given(st.integers(0, 200), st.data())
    def test_matches_exact_integer_binomial(self, n, data):
        i = data.draw(st.integers(0, n))
        exact = math.log(math.comb(n, i))
        assert abs(log_binomial(n, i) - exact) <= 1e-13 * max(1.0, abs(exact))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            log_binomial(3, 4)
        with pytest.raises(ValueError):
            log_binomial(3, -1)


class TestLogSeriesSum:
    def test_single_term_cases(self):
        assert abs(log_series_sum(0.0, 0.5, 0).value - 0.125) < 1e-14
        assert abs(log_series_sum(0.0, 1.0, 2).value - 4.5) < 1e-14

    def test_two_term_case(self):
        # m=1: binom(1,0) a e^{g^2/2} + binom(1,1) e^{4 g^2/2}
        expected = math.log(0.5 * math.exp(0.125) + math.exp(0.5))
        assert abs(log_series_sum(0.5, 0.5, 1).value - expected) < 1e-13

    def test_result_type(self):
        r = log_series_sum(0.5, 0.5, 1)
        assert isinstance(r, LogSeriesSum)
        assert (r.alpha, r.gamma, r.m) == (0.5, 0.5, 1)

    @given(st.floats(0, 5), st.floats(0.05, 1.2), st.integers(0, 12))
    @settings(max_examples=200)
    def test_matches_direct_sum_when_representable(self, alpha, gamma, m):
        direct = sum(math.comb(m, i) * alpha ** (m - i)
                     * math.exp((i + 1) ** 2 * gamma ** 2 / 2.0)
                     for i in range(m + 1))
        got = log_series_sum(alpha, gamma, m).value
        assert abs(got - math.log(direct)) <= 1e-12 * max(1.0, abs(math.log(direct)))

    def test_no_overflow_in_log_space(self):
        # direct summation would exceed the float max (largest term ~ e^{16744})
        r = log_series_sum(100.0, 3.0, 60)
        assert math.isfinite(r.value)
        assert r.value > 700.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            log_series_sum(-0.1, 0.5, 1)
        with pytest.raises(ValueError):
            log_series_sum(0.5, 0.0, 1)
        with pytest.raises(ValueError):
            log_series_sum(0.5, 0.5, -1)


class TestLogSeriesSumPartials:
    def test_order_zero(self):
        d = log_series_sum_partials(0.7, 0.5, 0)
        d_alpha, d_gamma = d.d_alpha, d.d_gamma
        assert d_alpha == 0.0
        assert abs(d_gamma - 0.5) < 1e-14

    def test_alpha_zero_single_term_gamma(self):
        d_gamma = log_series_sum_partials(0.0, 1.0, 3).d_gamma
        assert abs(d_gamma - 16.0) < 1e-12

    @pytest.mark.parametrize("alpha,gamma,m", [
        (0.5, 0.5, 1), (0.25, 0.3, 2), (1.0, 1.0, 4), (3.0, 0.8, 7),
        (0.1, 1.5, 3), (10.0, 0.4, 5),
    ])
    def test_matches_finite_differences(self, alpha, gamma, m):
        h = 1e-6
        d = log_series_sum_partials(alpha, gamma, m)
        d_alpha, d_gamma = d.d_alpha, d.d_gamma
        fd_alpha = (log_series_sum(alpha + h, gamma, m).value
                    - log_series_sum(alpha - h, gamma, m).value) / (2 * h)
        fd_gamma = (log_series_sum(alpha, gamma + h, m).value
                    - log_series_sum(alpha, gamma - h, m).value) / (2 * h)
        assert abs(d_alpha - fd_alpha) <= 1e-6 * max(1.0, abs(fd_alpha))
        assert abs(d_gamma - fd_gamma) <= 1e-6 * max(1.0, abs(fd_gamma))

    def test_alpha_zero_one_sided(self):
        # with alpha=0 and m>0 the alpha-partial is one-sided
        h = 1e-8
        d_alpha = log_series_sum_partials(0.0, 1.0, 2).d_alpha
        fd = (log_series_sum(h, 1.0, 2).value
              - log_series_sum(0.0, 1.0, 2).value) / h
        assert abs(d_alpha - fd) <= 1e-6 * max(1.0, abs(fd))


def _mp_log_series_partials(alpha, gamma, m):
    """log S and its five partials from direct 60-digit sums of the series
    and of its termwise derivatives (no weights, no numerical stencils).

    Returns (log S, d_alpha, d_gamma, d2_alpha, d2_gamma, d2_alpha_gamma).
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        a, g = mpmath.mpf(alpha), mpmath.mpf(gamma)

        def power(p):  # alpha^p with 0^0 = 1 and zero for p < 0
            return mpmath.mpf(0) if p < 0 else (mpmath.mpf(1) if p == 0 else a ** p)

        s = s_a = s_g = s_aa = s_gg = s_ag = mpmath.mpf(0)
        for i in range(m + 1):
            p, q = m - i, (i + 1) ** 2
            c = mpmath.binomial(m, i) * mpmath.exp(q * g ** 2 / 2)
            s += c * power(p)
            s_a += c * p * power(p - 1)
            s_g += c * power(p) * q * g
            s_aa += c * p * (p - 1) * power(p - 2)
            s_gg += c * power(p) * (q + q * q * g ** 2)
            s_ag += c * p * power(p - 1) * q * g
        l_a, l_g = s_a / s, s_g / s
        return tuple(float(v) for v in (
            mpmath.log(s), l_a, l_g, s_aa / s - l_a ** 2, s_gg / s - l_g ** 2,
            s_ag / s - l_a * l_g))


class TestKernelOracle:
    """log S and all five partials against 60-digit sums; alpha = 0 is the
    one-sided limit (the series is a polynomial in alpha, so the termwise
    derivatives at 0 are the right-hand ones)."""

    @pytest.mark.parametrize("m", [0, 1, 27, 60])
    @pytest.mark.parametrize("gamma", [1e-2, 0.4, 1.0])
    @pytest.mark.parametrize("alpha", [0.0, 1e-3, 1.0, 1e3])
    def test_matches_mpmath(self, alpha, gamma, m):
        ref = _mp_log_series_partials(alpha, gamma, m)
        d = log_series_sum_partials(alpha, gamma, m)
        got = (log_series_sum(alpha, gamma, m).value, d.d_alpha, d.d_gamma,
               d.d2_alpha, d.d2_gamma, d.d2_alpha_gamma)
        for name, g, r in zip(("log S", "d_alpha", "d_gamma", "d2_alpha",
                               "d2_gamma", "d2_alpha_gamma"), got, ref):
            assert abs(g - r) <= 1e-10 * abs(r), (name, g, r)

    @pytest.mark.parametrize("m", [1, 2, 27])
    def test_tiny_alpha_meets_the_one_sided_limit(self, m):
        # alpha^2 underflows here; the alpha moments must not
        near, limit = (log_series_sum_partials(a, 0.4, m) for a in (1e-200, 0.0))
        assert near == pytest.approx(limit, rel=1e-14)

    def test_weights_are_the_normalized_terms(self):
        s = log_series_sum(0.5, 0.5, 1)
        t = [0.5 * math.exp(0.125), math.exp(0.5)]
        assert abs(s.weights[0] - t[0] / sum(t)) <= 1e-15
        assert abs(s.weights.sum() - 1.0) <= 1e-15
        assert not s.weights.flags.writeable
