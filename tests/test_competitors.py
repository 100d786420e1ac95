"""Classical two-parameter families and the bundled comparison rows."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats

from gels import datasets
from gels.cli import main
from gels.distribution import GelSParams, sample
from gels.estimation import Dataset, DegenerateDataError, FitError, information_criteria
from gels.competitors import (
    CompetitorFit,
    fit_all,
    fit_gamma,
    fit_gen_exponential,
    fit_lognormal2,
    fit_weibull,
    reference_table,
)


@pytest.fixture(scope="module")
def bearings():
    return datasets.load("ball_bearings")


class TestLognormal:
    def test_closed_form(self, bearings):
        res = fit_lognormal2(bearings)
        logs = np.log(bearings.values)
        assert res.params[0] == pytest.approx(float(logs.mean()), abs=1e-12)
        assert res.params[1] == pytest.approx(float(logs.std()), abs=1e-12)
        assert res.n_p == 2

    def test_loglik_value(self, bearings):
        res = fit_lognormal2(bearings)
        mu, sigma = res.params
        direct = sum(
            math.log(math.exp(-((math.log(x) - mu) ** 2) / (2 * sigma ** 2))
                     / (x * sigma * math.sqrt(2 * math.pi)))
            for x in bearings.values)
        assert abs(res.loglik - direct) <= 1e-9

    def test_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_lognormal2(Dataset(values=np.full(3, math.e)))

    def test_consistency_on_reduced_model_samples(self):
        # alpha=0 draws are exactly log-normal(mu=gamma^2 (k+1), sigma=gamma)
        truth = GelSParams(0.0, 1, 0.6)
        data = Dataset(values=sample(truth, 20000, seed=77))
        res = fit_lognormal2(data)
        assert abs(res.params[0] - 0.6 ** 2 * 2) <= 0.02
        assert abs(res.params[1] - 0.6) <= 0.02


class TestAgainstScipyMle:
    def test_gamma(self, bearings):
        mine = fit_gamma(bearings)
        a, _, scale = scipy.stats.gamma.fit(bearings.values, floc=0)
        ref = float(np.sum(scipy.stats.gamma.logpdf(bearings.values, a,
                                                    scale=scale)))
        assert mine.loglik >= ref - 1e-6
        assert abs(mine.loglik - ref) <= 1e-3
        assert mine.params[0] == pytest.approx(a, rel=1e-2)

    def test_weibull(self, bearings):
        mine = fit_weibull(bearings)
        c, _, scale = scipy.stats.weibull_min.fit(bearings.values, floc=0)
        ref = float(np.sum(scipy.stats.weibull_min.logpdf(bearings.values, c,
                                                          scale=scale)))
        assert mine.loglik >= ref - 1e-6
        assert abs(mine.loglik - ref) <= 1e-3
        assert mine.params[0] == pytest.approx(c, rel=1e-2)


class TestLocalOptimality:
    @pytest.mark.parametrize("fitter", [fit_gamma, fit_weibull,
                                        fit_gen_exponential])
    def test_fit_beats_perturbations(self, fitter, bearings):
        res = fitter(bearings)
        x = bearings.values
        n = bearings.n

        def loglik_at(params):
            if fitter is fit_gamma:
                shape, rate = params
                return (n * (shape * math.log(rate) - math.lgamma(shape))
                        + (shape - 1) * float(np.log(x).sum())
                        - rate * float(x.sum()))
            if fitter is fit_weibull:
                shape, scale = params
                z = x / scale
                return (n * (math.log(shape) - math.log(scale))
                        + (shape - 1) * float(np.log(z).sum())
                        - float((z ** shape).sum()))
            shape, rate = params
            u = -np.expm1(-rate * x)
            return (n * (math.log(shape) + math.log(rate))
                    - rate * float(x.sum())
                    + (shape - 1) * float(np.log(u).sum()))

        rng = np.random.default_rng(5)
        for _ in range(100):
            wiggled = [p * float(f) for p, f in
                       zip(res.params, rng.uniform(0.99, 1.01, size=2))]
            assert res.loglik >= loglik_at(wiggled) - 1e-9

    def test_exponential_special_cases(self):
        # Weibull and GE both contain the exponential at shape 1
        rng = np.random.default_rng(123)
        data = Dataset(values=rng.exponential(scale=2.0, size=20000))
        wb = fit_weibull(data)
        ge = fit_gen_exponential(data)
        assert abs(wb.params[0] - 1.0) <= 0.02
        assert abs(ge.params[0] - 1.0) <= 0.05


class TestFitAll:
    def test_families_and_param_counts(self, bearings):
        fits = fit_all(bearings)
        assert [f.family for f in fits] == ["Gamma", "Weibull", "GE",
                                            "Log-normal"]
        for f in fits:
            assert isinstance(f, CompetitorFit)
            assert f.n_p == 2
            assert f.converged
            aic, sic = information_criteria(2, f.loglik, bearings.n)
            assert f.aic == pytest.approx(aic, abs=1e-12)
            assert f.sic == pytest.approx(sic, abs=1e-12)


class TestExtremeData:
    """Data at the edges of the float range end in a fit or a FitError,
    never in a numpy warning (which the test filter turns into an error)."""

    def test_gamma_when_the_sum_leaves_the_float_range(self):
        # sum x overflowed inside x.mean(); the likelihood's rate * sum x
        # term is still infinite at the moment start
        data = Dataset(values=[8.2e307, 8.2e307, 8.2e307, 8103.08])
        with pytest.raises(FitError, match="Gamma fit"):
            fit_gamma(data)

    def test_weibull_on_near_ties(self):
        # a line-search trial at a large shape made z^shape overflow
        data = Dataset(values=[1.0] + [0.9974606856163131] * 3)
        assert math.isfinite(fit_weibull(data).loglik)


DATASETS = ["ball_bearings", "leukaemia", "strength_10mm"]


class TestScaleEquivariance:
    """The four competitors are scale families, so the fit to c x has
    log-likelihood l(x) - n ln c: the search box sits on the moment start,
    not on unit scale."""

    @pytest.mark.parametrize("name", DATASETS)
    def test_loglik_shifts_by_n_ln_c(self, name):
        data = datasets.load(name)
        base = fit_all(data)
        for c in (1e-30, 1e-6, 1e6, 1e20, 1e30):
            for got, ref in zip(fit_all(Dataset(values=data.values * c)), base):
                assert got.converged, (got.family, c)
                assert got.loglik + data.n * math.log(c) == pytest.approx(ref.loglik, rel=1e-10)

    @pytest.mark.parametrize("name", DATASETS)
    @pytest.mark.parametrize("c", [1e-300, 1e300])
    def test_compare_at_the_ends_of_the_float_range(self, capsys, tmp_path, name, c):
        # the GE zero-spread test took x.std(), which under- or overflows here
        path = tmp_path / "scaled.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in datasets.load(name).values * c))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", str(path)]) == 0
        assert capsys.readouterr().err == ""


class TestReferenceRows:
    def test_bundled_tables_load(self):
        for name in ("ball_bearings", "leukaemia", "strength_10mm"):
            rows = reference_table(name)
            assert rows, name
            for row in rows:
                assert set(row) == {"model", "n_p", "aic", "sic"}

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            reference_table("nope")

    def test_bearings_rows_against_own_fits(self, bearings):
        # the shifted three-parameter reference fits nest the standard
        # two-parameter forms, so reference AIC <= own AIC at n_p=3, and
        # the slack stays small
        rows = {r["model"]: r for r in reference_table("ball_bearings")}
        fits = {f.family: f for f in fit_all(bearings)}
        for family in ("Gamma", "Weibull", "GE"):
            ref = rows[family]
            assert ref["n_p"] == 3
            aic3, sic3 = information_criteria(3, fits[family].loglik,
                                              bearings.n)
            assert ref["aic"] <= aic3 + 0.005
            assert aic3 <= ref["aic"] + 2.0
            assert ref["sic"] <= sic3 + 0.005
            assert sic3 <= ref["sic"] + 2.0

    def test_bearings_lognormal_row_matches(self, bearings):
        row = {r["model"]: r for r in reference_table("ball_bearings")}
        ln = fit_lognormal2(bearings)
        assert row["Log-normal"]["n_p"] == 2
        assert abs(ln.aic - row["Log-normal"]["aic"]) <= 0.1
        assert abs(ln.sic - row["Log-normal"]["sic"]) <= 0.1
