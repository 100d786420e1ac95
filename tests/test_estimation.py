"""Likelihood, score, observed information, grid fitting, intervals."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from gels import datasets, estimation, optimize, special_math
from gels.distribution import GelSParams, sample
from gels.estimation import (
    ConfidenceIntervals,
    Dataset,
    DegenerateDataError,
    FitError,
    FitResult,
    confidence_intervals,
    fit,
    fit_given_k,
    information_criteria,
    log_likelihood,
    observed_information,
    score,
)
from gels.optimize import numerical_hessian


def simulated(alpha, k, gamma, n, seed):
    return Dataset(values=sample(GelSParams(alpha, k, gamma), n, seed),
                   name="simulated")


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(values=np.array([]))
        with pytest.raises(ValueError):
            Dataset(values=np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            Dataset(values=np.array([1.0, math.nan]))
        with pytest.raises(ValueError):
            Dataset(values=np.array([[1.0], [2.0]]))

    def test_n(self):
        assert Dataset(values=np.array([1.0, 2.0, 3.0])).n == 3


class TestLogLikelihood:
    def test_single_observation_reduction(self):
        data = Dataset(values=np.array([2.0]))
        got = log_likelihood(GelSParams(0.0, 0, 1.0), data)
        expected = math.log(
            math.exp(-((math.log(2.0) - 1.0) ** 2) / 2.0)
            / (2.0 * math.sqrt(2 * math.pi)))
        assert abs(got - expected) <= 1e-12

    def test_support_violation(self):
        data = Dataset(values=np.array([1.0, 2.0, 3.0]))
        assert log_likelihood(GelSParams(1.0, 0, 1.0), data) == -math.inf
        assert log_likelihood(GelSParams(2.5, 0, 1.0), data) == -math.inf

    def test_series_overflow(self):
        # log S = inf past the float range, so the likelihood is 0
        data = Dataset(values=np.array([1.0, 2.0, 3.0]))
        assert log_likelihood(GelSParams(0.5, 60, 1e153), data) == -math.inf


class TestScore:
    def test_matches_finite_differences_random_cases(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 100:
            k = int(rng.integers(0, 5))
            truth = GelSParams(float(rng.uniform(0, 2)), k,
                               float(rng.uniform(0.3, 1.5)))
            data = Dataset(values=sample(truth, 40, seed=int(rng.integers(1e9))))
            alpha = float(rng.uniform(0, 0.9)) * float(data.values.min())
            gamma = float(rng.uniform(0.3, 1.8))
            params = GelSParams(alpha, k, gamma)

            d_alpha, d_gamma = score(params, data)
            h_a = 1e-6 * max(1.0, alpha)
            if alpha - h_a < 0:
                h_a = alpha / 2 if alpha > 0 else None
            h_g = 1e-6 * max(1.0, gamma)
            fd_g = (log_likelihood(GelSParams(alpha, k, gamma + h_g), data)
                    - log_likelihood(GelSParams(alpha, k, gamma - h_g), data)
                    ) / (2 * h_g)
            assert abs(d_gamma - fd_g) <= 1e-5 * max(1.0, abs(fd_g))
            if h_a:
                fd_a = (log_likelihood(GelSParams(alpha + h_a, k, gamma), data)
                        - log_likelihood(GelSParams(alpha - h_a, k, gamma), data)
                        ) / (2 * h_a)
                assert abs(d_alpha - fd_a) <= 1e-5 * max(1.0, abs(fd_a))
            checked += 1

    def test_k0_alpha0_gamma_root_closed_form(self):
        # with k=0, alpha=0 the gamma score vanishes at
        # gamma^2 = (-1 + sqrt(1 + 4 S / n)) / 2, S = sum (log x_i)^2
        data = simulated(0.0, 0, 0.8, 200, seed=21)
        S = float(np.sum(np.log(data.values) ** 2))
        g2 = (-1.0 + math.sqrt(1.0 + 4.0 * S / data.n)) / 2.0
        _, d_gamma = score(GelSParams(0.0, 0, math.sqrt(g2)), data)
        assert abs(d_gamma) <= 1e-9 * data.n

    def test_infeasible_raises(self):
        data = Dataset(values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            score(GelSParams(1.5, 0, 1.0), data)


class TestObservedInformation:
    def test_agrees_with_direct_hessian(self):
        data = simulated(1.0, 2, 1.0, 300, seed=8)
        params = GelSParams(0.9, 2, 1.05)
        J = observed_information(params, data)

        def loglik_of(v):
            return log_likelihood(GelSParams(v[0], 2, v[1]), data)

        H = numerical_hessian(loglik_of, np.array([0.9, 1.05]))
        assert np.allclose(J, -H, rtol=1e-4, atol=1e-4 * np.abs(H).max())

    def test_symmetric_and_positive_definite_at_mle(self):
        data = simulated(1.0, 2, 1.0, 2000, seed=12)
        res = fit_given_k(data, 2)
        J = observed_information(GelSParams(res.alpha_hat, 2, res.gamma_hat),
                                 data)
        assert np.array_equal(J, J.T)
        assert np.all(np.linalg.eigvalsh(J) > 0)


class TestInformationCriteria:
    def test_reference_values(self):
        aic, sic = information_criteria(2, -153.24, 33)
        assert abs(aic - 310.48) <= 0.005
        assert abs(sic - 313.47) <= 0.005
        aic, sic = information_criteria(2, -112.99, 23)
        assert abs(aic - 229.98) <= 0.005
        assert abs(sic - 232.25) <= 0.005

    def test_trivial(self):
        assert information_criteria(1, 0.0, 1) == (2.0, 0.0)

    def test_sic_dominates_aic_for_n_at_least_8(self):
        for n in (8, 9, 23, 33, 63, 10 ** 6):
            aic, sic = information_criteria(2, -50.0, n)
            assert sic >= aic


class TestFitGivenK:
    def test_two_point_dataset(self):
        data = Dataset(values=np.array([1.0, 2.0]))
        res = fit_given_k(data, 0)
        assert res.converged
        assert res.alpha_hat < 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_given_k(Dataset(values=np.array([3.0, 3.0, 3.0])), 0)

    def test_recovers_simulated_parameters(self):
        data = simulated(1.0, 2, 1.0, 10000, seed=4)
        res = fit_given_k(data, 2)
        assert res.converged
        assert abs(res.alpha_hat - 1.0) <= 0.15
        assert abs(res.gamma_hat - 1.0) <= 0.03

    def test_reparameterization_bit_for_bit(self):
        data = simulated(0.5, 1, 0.6, 400, seed=30)
        res = fit_given_k(data, 1)
        direct = log_likelihood(GelSParams(res.alpha_hat, 1, res.gamma_hat),
                                data)
        assert res.loglik == direct
        assert res.alpha_hat == res.raw_a_hat ** 2

    def test_alpha_stays_below_min(self):
        data = simulated(2.0, 4, 0.5, 500, seed=44)
        res = fit_given_k(data, 4)
        assert 0.0 <= res.alpha_hat < float(data.values.min())

    def test_score_small_at_mle(self):
        for seed, triple in ((7, (1.0, 2, 1.0)), (9, (2.0, 4, 0.5))):
            data = simulated(*triple, n=1500, seed=seed)
            res = fit_given_k(data, triple[1])
            s = score(GelSParams(res.alpha_hat, triple[1], res.gamma_hat), data)
            assert math.hypot(*s) <= 1e-4 * data.n

    def test_criteria_fields(self):
        data = simulated(1.0, 2, 1.0, 100, seed=1)
        res = fit_given_k(data, 2)
        aic, sic = information_criteria(2, res.loglik, data.n)
        assert res.aic == aic
        assert res.sic == sic


class TestFitGrid:
    def test_selected_beats_neighbors(self):
        data = simulated(1.0, 2, 1.0, 3000, seed=15)
        trace = fit(data, k_min=0, k_max=5)
        i = trace.selected_index
        sel = trace.per_k[i]
        for j in (i - 1, i + 1):
            if 0 <= j < len(trace.per_k) and trace.per_k[j].converged:
                assert sel.loglik >= trace.per_k[j].loglik

    def test_warm_start_equals_cold_start(self):
        data = simulated(1.0, 2, 1.0, 800, seed=2)
        trace = fit(data, k_min=0, k_max=4)
        for r in trace.per_k:
            cold = fit_given_k(data, r.k)
            assert abs(cold.loglik - r.loglik) <= 1e-6 * max(1.0, abs(r.loglik))

    def test_all_failures_raise(self):
        with pytest.raises((FitError, DegenerateDataError)):
            fit(Dataset(values=np.array([5.0, 5.0, 5.0, 5.0])), 0, 2)

    def test_ties_prefer_smaller_k(self):
        data = simulated(1.0, 2, 1.0, 3000, seed=15)
        trace = fit(data, 0, 5)
        best = max(r.loglik for r in trace.per_k if r.converged)
        first = next(i for i, r in enumerate(trace.per_k)
                     if r.converged and r.loglik == best)
        assert trace.selected_index == first


class TestConfidenceIntervals:
    def _fake_fit(self, se_alpha=0.1, se_gamma=0.02):
        return FitResult(k=0, alpha_hat=1.0, gamma_hat=0.5, raw_a_hat=1.0,
                         loglik=-10.0, cov=np.diag([se_alpha ** 2,
                                                    se_gamma ** 2]),
                         se_alpha=se_alpha, se_gamma=se_gamma,
                         aic=24.0, sic=24.0, converged=True)

    def test_wald_arithmetic(self):
        ci = confidence_intervals(self._fake_fit(), level=0.95)
        assert isinstance(ci, ConfidenceIntervals)
        assert abs(ci.alpha_ci[0] - 0.804) <= 1e-3
        assert abs(ci.alpha_ci[1] - 1.196) <= 1e-3

    def test_narrower_at_lower_level(self):
        wide = confidence_intervals(self._fake_fit(), level=0.95)
        narrow = confidence_intervals(self._fake_fit(), level=0.5)
        assert (narrow.alpha_ci[1] - narrow.alpha_ci[0]
                < wide.alpha_ci[1] - wide.alpha_ci[0])

    def test_unavailable_when_cov_missing(self):
        from gels.estimation import UncertaintyUnavailableError

        bad = FitResult(k=0, alpha_hat=1.0, gamma_hat=0.5, raw_a_hat=1.0,
                        loglik=-10.0, cov=None, se_alpha=math.nan,
                        se_gamma=math.nan, aic=24.0, sic=24.0, converged=True)
        with pytest.raises(UncertaintyUnavailableError):
            confidence_intervals(bad)

    def test_half_widths_match_large_sample_scale(self):
        # n=10,000 draws from (1, 2, 1): alpha half-width near 0.099 and
        # gamma half-width near 0.003, both within +-30%
        data = simulated(1.0, 2, 1.0, 10000, seed=20260814)
        res = fit_given_k(data, 2)
        ci = confidence_intervals(res, level=0.95)
        half_alpha = (ci.alpha_ci[1] - ci.alpha_ci[0]) / 2
        half_gamma = (ci.gamma_ci[1] - ci.gamma_ci[0]) / 2
        assert 0.7 * 0.099 <= half_alpha <= 1.3 * 0.099
        assert 0.7 * 0.003 <= half_gamma <= 1.3 * 0.003


class TestFitCost:
    def test_ball_bearings_grid_likelihood_evaluations(self, monkeypatch):
        # the profile over k = 0..30 made 19,328 likelihood evaluations with
        # finite-difference Newton stencils; the objective handed to
        # minimize is counted, whatever it calls inside
        evals = []
        real = estimation.minimize

        def counting_minimize(objective, x0, **kwargs):
            def counted(v):
                evals.append(1)
                return objective(v)
            return real(counted, x0, **kwargs)

        monkeypatch.setattr(estimation, "minimize", counting_minimize)
        sel = fit(datasets.load("ball_bearings"), 0, 30).selected
        assert 31 <= len(evals) <= 1000
        assert sel.converged and sel.k == 27
        assert abs(sel.alpha_hat - 7.7954) <= 1e-4
        assert abs(sel.gamma_hat - 0.4063) <= 1e-4

    def test_ball_bearings_grid_kernel_calls(self, monkeypatch):
        # one kernel call per Newton point: 1,381 calls when the value and
        # the derivatives each called it
        calls = []
        real = special_math.log_series_sum

        def counting(*args):
            calls.append(args)
            return real(*args)

        patched = []
        for name, module in list(sys.modules.items()):
            if (name == "gels" or name.startswith("gels.")) \
                    and getattr(module, "log_series_sum", None) is real:
                monkeypatch.setattr(module, "log_series_sum", counting)
                patched.append(name)
        assert "gels.estimation" in patched
        fit(datasets.load("ball_bearings"), 0, 30)
        assert 31 <= len(calls) <= 800

    def test_ball_bearings_grid_step_factorizations(self, monkeypatch):
        # the indefinite Hessians' diagonal loading, searched by doubling,
        # took 1,433 Cholesky factorizations over the grid's 605 Newton steps
        factorizations, iterations = [], []
        real_step, real_minimize = optimize._loaded_step, estimation.minimize

        def counting_step(*args):
            factorizations.append(1)
            return real_step(*args)

        def counting_minimize(objective, x0, **kwargs):
            res = real_minimize(objective, x0, **kwargs)
            iterations.append(res.iterations)
            return res

        monkeypatch.setattr(optimize, "_loaded_step", counting_step)
        monkeypatch.setattr(estimation, "minimize", counting_minimize)
        fit(datasets.load("ball_bearings"), 0, 30)
        assert sum(iterations) == 368
        assert sum(iterations) <= len(factorizations) <= 900

    def test_ball_bearings_grid_minimize_calls(self, monkeypatch):
        # three starts at every k made 93 calls; each k after the first now
        # runs two: the previous k's optimum and alpha0 = 0.1 min(x)
        calls = []
        real = estimation.minimize

        def counting_minimize(objective, x0, **kwargs):
            calls.append(x0)
            return real(objective, x0, **kwargs)

        monkeypatch.setattr(estimation, "minimize", counting_minimize)
        sel = fit(datasets.load("ball_bearings"), 0, 30).selected
        assert len(calls) <= 65
        assert sel.converged and sel.k == 27
        assert abs(sel.alpha_hat - 7.7954) <= 1e-4
        assert abs(sel.gamma_hat - 0.4063) <= 1e-4


class TestStarts:
    @staticmethod
    def grid_sets():
        for name, k_max in (("ball_bearings", 30), ("leukaemia", 10), ("strength_10mm", 10)):
            values = datasets.load(name).values
            yield name, Dataset(values=values), k_max
            yield f"{name}_times_7", Dataset(values=values * 7.0), 10

    def test_grid_matches_three_default_starts(self):
        # the grid's two starts per k lose no optimum that the three default
        # starts find, including the interior optima near the support edge
        for name, data, k_max in self.grid_sets():
            for r in fit(data, 0, k_max).per_k:
                cold = fit_given_k(data, r.k)
                assert r.converged == cold.converged, (name, r.k)
                assert r.loglik >= cold.loglik - 1e-10 * abs(cold.loglik), (name, r.k)

    @pytest.mark.parametrize("converges", [True, False])
    def test_half_start_only_as_fallback(self, monkeypatch, converges):
        data = datasets.load("leukaemia")
        warm = fit_given_k(data, 1)
        starts = []
        real = estimation.minimize

        def spy(objective, x0, **kwargs):
            starts.append(float(x0[0]) ** 2)
            res = real(objective, x0, **kwargs)
            return res if converges else dataclasses.replace(res, converged=False)

        monkeypatch.setattr(estimation, "minimize", spy)
        res = fit_given_k(data, 2, init=(warm.raw_a_hat, warm.gamma_hat))
        xmin = float(data.values.min())
        assert starts[0] == warm.raw_a_hat ** 2
        want = [0.1, 0.5] if not converges else [0.1]
        assert starts[1:] == pytest.approx([frac * xmin for frac in want], rel=1e-12)
        assert res.converged == converges


class TestFusedPath:
    """The fit's objective and derivatives, which share one kernel call per
    point, against the public log_likelihood/score/observed_information."""

    @staticmethod
    def fit_callables(monkeypatch, data, k):
        captured = []
        real = estimation.minimize

        def spy(objective, x0, **kwargs):
            captured.append((objective, kwargs["derivatives"]))
            return real(objective, x0, **kwargs)

        monkeypatch.setattr(estimation, "minimize", spy)
        fit_given_k(data, k)
        return captured[0]

    @pytest.mark.parametrize("name", ["ball_bearings", "leukaemia", "simulated"])
    def test_matches_public_functions(self, monkeypatch, name):
        if name == "simulated":
            data = simulated(1.0, 2, 1.0, 5000, seed=31)
        else:
            data = datasets.load(name)
        xmin = float(data.values.min())

        def close(got, want):
            return abs(got - want) <= 1e-12 * abs(want)

        for k in (0, 1, 5, 27):
            objective, derivatives = self.fit_callables(monkeypatch, data, k)
            for frac in (0.0, 1e-3, 0.3, 0.9):
                a = math.sqrt(frac * xmin)
                for gamma in (0.3, 0.7, 1.5):
                    params = GelSParams(a * a, k, gamma)
                    v = np.array([a, gamma])
                    l_a, l_g = score(params, data)
                    J = observed_information(params, data)
                    want_grad = (-2.0 * a * l_a, -l_g)
                    want_hess = ((4.0 * a * a * J[0, 0] - 2.0 * l_a, 2.0 * a * J[0, 1]),
                                 (2.0 * a * J[1, 0], J[1, 1]))
                    recomputed = derivatives(v)  # v is not the latest trial
                    assert close(objective(v), -log_likelihood(params, data))
                    cached = derivatives(v)  # v is the latest trial
                    for grad, hess in (recomputed, cached):
                        assert all(map(close, grad, want_grad))
                        for row, want_row in zip(hess, want_hess):
                            assert all(map(close, row, want_row))


class TestLargeScaleData:
    """Data far from unit scale, where the MLE of alpha sits close to min(x)
    relative to the spread (the old stencil stepped alpha past min(x))."""

    @pytest.mark.parametrize("name,transform", [
        ("leukaemia", lambda v: v * 1e6),
        ("leukaemia", lambda v: v + 1e6),
        ("ball_bearings", lambda v: v * 1e6),
    ], ids=["leukaemia_times_1e6", "leukaemia_plus_1e6", "ball_bearings_times_1e6"])
    def test_fit_converges(self, name, transform):
        data = Dataset(values=transform(datasets.load(name).values))
        sel = fit(data, 0, 10).selected
        assert sel.converged
        assert 0.0 <= sel.alpha_hat < float(data.values.min())
        assert math.isfinite(sel.loglik)
        s = score(GelSParams(sel.alpha_hat, sel.k, sel.gamma_hat), data)
        assert math.hypot(*s) <= 1e-4 * data.n * max(1.0, 1.0 / sel.gamma_hat)
