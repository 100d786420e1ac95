"""Competitor lifetime models for AIC/SIC comparison.

Four classic two-parameter families fitted by maximum likelihood:
log-normal (closed form), gamma, Weibull, and the generalized
exponential with cdf (1 - e^(-rate x))^shape. The numeric fits run
through `optimize.minimize` on log-parameters, so positivity never needs
explicit constraints.

A static table of published AIC/SIC values for a wider zoo of models
(28 strength rows, 9 leukaemia rows, 5 bearing rows) ships as a data
file for side-by-side reporting; `reference_table` loads it.
"""

import json
import math
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .estimation import DegenerateDataError, FitError, information_criteria
from .optimize import minimize
from .special_math import LOG_2PI


@dataclass(frozen=True)
class CompetitorFit:
    family: str
    params: tuple
    param_names: tuple
    loglik: float
    n_p: int
    aic: float
    sic: float
    converged: bool


def _package(family, names, params, loglik, n, converged=True):
    aic, sic = information_criteria(len(params), loglik, n)
    return CompetitorFit(family=family, params=tuple(float(p) for p in params),
                         param_names=tuple(names), loglik=float(loglik),
                         n_p=len(params), aic=aic, sic=sic, converged=converged)


def fit_lognormal2(data):
    """Closed-form MLE of the two-parameter log-normal."""
    x = data.values
    t = np.log(x)
    mu = float(t.mean())
    sigma2 = float(((t - mu) ** 2).mean())
    if sigma2 == 0.0:
        raise DegenerateDataError("zero log-variance; log-normal fit is degenerate")
    sigma = math.sqrt(sigma2)
    n = data.n
    loglik = -0.5 * n * LOG_2PI - n * math.log(sigma) - float(t.sum()) - 0.5 * n
    return _package("Log-normal", ("mu", "sigma"), (mu, sigma), loglik, n)


def _fit_log_parameterized(family, names, data, neg_loglik_of, theta0):
    """Shared driver: minimize -l over v = log theta, |v - log theta0| <= 50."""
    x = data.values
    v0 = np.log(theta0)

    def objective(v):
        # exp(v) stays a normal float; also rejects a NaN or infinite start
        if not (np.abs(v).max() <= 708.0 and np.abs(v - v0).max() <= 50.0):
            return math.inf
        return neg_loglik_of(np.exp(v), x)

    try:
        res = minimize(objective, v0)
    except ValueError as exc:  # the objective is not finite at the start
        raise FitError(f"{family} fit: {exc}") from exc
    params = np.exp(res.x_min)
    return _package(family, names, params, -res.f_min, data.n,
                    converged=res.converged)


def fit_gamma(data):
    """Gamma MLE, shape/rate."""
    x = data.values
    top = float(x.max())
    if top < sys.float_info.max / data.n:
        m, total = float(x.mean()), float(x.sum())
    else:  # the sum of x may pass the float range (total = inf); its mean does not
        m, total = top * float((x / top).mean()), top * float((x / top).sum())
    v = float((x / m).var())    # scale-free, so no overflow for huge values
    if v == 0.0:
        raise DegenerateDataError("zero variance; gamma fit is degenerate")

    def nll(theta, x):
        shape, rate = theta
        return -(data.n * (shape * math.log(rate) - math.lgamma(shape))
                 + (shape - 1.0) * float(np.log(x).sum()) - rate * total)

    return _fit_log_parameterized("Gamma", ("shape", "rate"), data, nll,
                                  [1.0 / v, 1.0 / (v * m)])


def fit_weibull(data):
    """Weibull MLE, shape/scale."""
    x = data.values
    t = np.log(x)
    if float(t.std()) == 0.0:
        raise DegenerateDataError("zero spread; Weibull fit is degenerate")

    def nll(theta, x):
        shape, scale = theta
        z = x / scale
        if not z.min() > 0.0:   # some z underflowed to 0, where ln z is -inf
            return math.inf
        log_z = np.log(z)
        if shape * float(log_z.max()) > 709.0:  # some z^shape > e^709: l is -inf in floats
            return math.inf
        return -(data.n * (math.log(shape) - math.log(scale))
                 + (shape - 1.0) * float(log_z.sum()) - float((z ** shape).sum()))

    c0 = min(max(1.2 / float(t.std()), 0.05), 50.0)
    return _fit_log_parameterized("Weibull", ("shape", "scale"), data, nll,
                                  [c0, float(x.mean())])


def fit_gen_exponential(data):
    """Generalized exponential MLE; cdf (1 - e^(-rate x))^shape."""
    x = data.values
    if float((x / x.max()).std()) == 0.0:   # scale-free: x.std() under- or overflows
        raise DegenerateDataError("zero spread; GE fit is degenerate")

    def nll(theta, x):
        shape, rate = theta
        u = -np.expm1(-rate * x)  # 1 - e^(-rate x), stable near 0
        return -(data.n * (math.log(shape) + math.log(rate)) - rate * float(x.sum())
                 + (shape - 1.0) * float(np.log(u).sum()))

    return _fit_log_parameterized("GE", ("shape", "rate"), data, nll,
                                  [1.0, 1.0 / float(x.mean())])


def fit_all(data):
    """The four implemented competitors, in reporting order."""
    return [fit_gamma(data), fit_weibull(data), fit_gen_exponential(data),
            fit_lognormal2(data)]


def reference_table(dataset_name):
    """Published AIC/SIC rows for a bundled dataset, as printed at source.

    Note: the source tables count gamma, Weibull, and GE as 3-parameter
    models (location-shifted variants in the cited literature), while the
    families fitted here have 2; comparisons recompute criteria under
    both conventions where it matters.
    """
    path = resources.files("gels.data") / "reference_model_comparison.json"
    table = json.loads(path.read_text())
    if dataset_name not in table:
        raise KeyError(
            f"no reference rows for {dataset_name!r}; available: {sorted(table)}")
    return table[dataset_name]
