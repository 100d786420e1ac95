"""Finite-difference derivatives and the dense Newton-type minimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gels.optimize import (
    MinimizeResult,
    StencilError,
    _descent_direction,
    _loaded_step,
    minimize,
    numerical_gradient,
    numerical_hessian,
)


class TestNumericalGradient:
    def test_square(self):
        g = numerical_gradient(lambda v: v[0] ** 2, np.array([3.0]))
        assert abs(g[0] - 6.0) <= 1e-7

    def test_cross_term(self):
        h = numerical_hessian(lambda v: v[0] * v[1], np.array([0.7, -0.3]))
        assert abs(h[0, 1] - 1.0) <= 1e-5
        assert abs(h[1, 0] - 1.0) <= 1e-5

    def test_square_hessian(self):
        h = numerical_hessian(lambda v: v[0] ** 2, np.array([3.0]))
        assert abs(h[0, 0] - 2.0) <= 1e-4

    def test_quadratic_surrogate_information(self):
        # negative log-likelihood surrogate (a-1)^2 + 2(g-1)^2 has
        # curvature diag(2, 4)
        f = lambda v: (v[0] - 1.0) ** 2 + 2.0 * (v[1] - 1.0) ** 2
        h = numerical_hessian(f, np.array([1.0, 1.0]))
        assert np.allclose(h, np.diag([2.0, 4.0]), atol=1e-4)

    def test_hessian_symmetrized(self):
        f = lambda v: v[0] ** 3 * v[1] + math.sin(v[0] * v[1] ** 2)
        h = numerical_hessian(f, np.array([0.4, 0.9]))
        assert np.array_equal(h, h.T)

    def test_stencil_failure(self):
        def f(v):
            if v[0] > 1.0:
                return math.nan
            return v[0] ** 2

        with pytest.raises(StencilError) as err:
            numerical_gradient(f, np.array([1.0]))
        assert err.value.point is not None

    def test_matches_analytic_score(self):
        # gradient of the negative log-likelihood vs the analytic score
        from gels.distribution import GelSParams, sample
        from gels.estimation import Dataset, log_likelihood, score

        data = Dataset(values=sample(GelSParams(1.0, 2, 1.0), 500, seed=5))
        theta = np.array([0.8, 1.1])

        def nll(v):
            return -log_likelihood(GelSParams(v[0], 2, v[1]), data)

        g = numerical_gradient(nll, theta)
        s = score(GelSParams(theta[0], 2, theta[1]), data)
        assert abs(-g[0] - s[0]) <= 1e-5 * max(1.0, abs(s[0]))
        assert abs(-g[1] - s[1]) <= 1e-5 * max(1.0, abs(s[1]))


class TestStepSolve:
    """The plain-float Cholesky step of the Newton loop."""

    @given(st.integers(1, 4), st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy_solve_on_spd(self, dim, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(dim, dim))
        H = A @ A.T + np.eye(dim)
        g = rng.normal(size=dim)
        p = np.array(_descent_direction(H.tolist(), g.tolist()))
        want = np.linalg.solve(H, -g)
        assert np.linalg.norm(p - want) <= 1e-12 * np.linalg.norm(want)

    @given(st.integers(1, 4), st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_descent_direction_on_indefinite(self, dim, seed):
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        eig = rng.uniform(0.1, 10.0, size=dim)
        eig[0] = -eig[0]  # at least one negative curvature direction
        H = Q @ np.diag(eig) @ Q.T
        g = rng.normal(size=dim)
        p = np.array(_descent_direction(H.tolist(), g.tolist()))
        assert float(p @ g) < 0.0
        # the loaded Newton step: (H + tau I) p = -g with H + tau I
        # positive definite
        r = H @ p + g
        tau = -float(p @ r) / float(p @ p)
        assert np.linalg.norm(r + tau * p) <= 1e-9 * np.linalg.norm(g)
        assert np.linalg.eigvalsh(H + tau * np.eye(dim)).min() > 0.0

    @given(st.integers(1, 4), st.integers(0, 10 ** 6), st.floats(-12.0, 6.0))
    @settings(max_examples=100, deadline=None)
    def test_scan_finds_the_doubling_loading(self, dim, seed, log_shift):
        # reference: try tau = 0, then 1e-8 * max|H_ii| * 2^j for every
        # j = 0..38 in turn; the scan, which skips the loadings that cannot
        # succeed, must return the same step, bit for bit
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(dim, dim))
        H = (A + A.T - 10.0 ** log_shift * np.eye(dim)).tolist()
        g = rng.normal(size=dim).tolist()
        t0 = 1e-8 * max(max(abs(H[i][i]) for i in range(dim)), 1e-12)
        want = _loaded_step(H, g, 0.0)
        for j in range(39):
            if want is not None:
                break
            want = _loaded_step(H, g, math.ldexp(t0, j))
        assert _descent_direction(H, g) == (want or [-v for v in g])

    def test_nan_hessian_falls_back_to_steepest_descent(self):
        assert _descent_direction([[math.nan, 0.0], [0.0, 1.0]], [1.0, -2.0]) == [-1.0, 2.0]


class TestMinimize:
    def test_shifted_quadratic(self):
        f = lambda v: (v[0] - 1.0) ** 2 + (v[1] + 2.0) ** 2
        res = minimize(f, np.array([0.0, 0.0]))
        assert isinstance(res, MinimizeResult)
        assert res.converged
        assert np.allclose(res.x_min, [1.0, -2.0], atol=1e-8)
        assert res.f_min <= 1e-10
        assert res.iterations <= 4

    @given(st.integers(1, 4), st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_convex_quadratics_fast(self, dim, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(dim, dim))
        H = A @ A.T + np.eye(dim)  # safely positive definite
        b = rng.normal(size=dim)
        f = lambda v: 0.5 * float(v @ H @ v) + float(b @ v)
        res = minimize(f, np.zeros(dim))
        x_star = np.linalg.solve(H, -b)
        assert res.iterations <= dim + 2
        assert abs(res.f_min - f(x_star)) <= 1e-10 * max(1.0, abs(f(x_star)))

    def test_rosenbrock(self):
        f = lambda v: (1.0 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2
        res = minimize(f, np.array([-1.2, 1.0]), gtol=1e-8)
        assert res.converged
        assert res.gradient_norm <= 1e-8
        assert np.allclose(res.x_min, [1.0, 1.0], atol=1e-6)

    def test_infeasible_region_barrier(self):
        calls = []

        def f(v):
            calls.append(float(v[0]))
            if v[0] < 0.0:
                return math.inf
            return (v[0] - 0.5) ** 2

        res = minimize(f, np.array([2.0]))
        assert res.converged
        assert abs(res.x_min[0] - 0.5) <= 1e-6
        assert math.isfinite(res.f_min)

    def test_accepted_values_monotone(self):
        # replay the evaluation log: every improvement on the accepted path
        # must be monotone, and the reported minimum is the best point seen
        log = []

        def f(v):
            val = (v[0] - 3.0) ** 2 + (v[1] - 1.0) ** 4
            log.append(val)
            return val

        res = minimize(f, np.array([0.0, 0.0]))
        assert res.converged
        assert res.f_min < log[0]
        # a rejected line-search trial may beat the accepted point by a hair
        assert res.f_min <= min(log) + 1e-9

    def test_max_iter_flagged(self):
        f = lambda v: (1.0 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2
        res = minimize(f, np.array([-1.2, 1.0]), max_iter=2)
        assert not res.converged
        assert res.iterations == 2
