"""Competitor lifetime models for AIC/SIC comparison.

Four classic two-parameter families fitted by maximum likelihood:
log-normal (closed form), gamma, Weibull, and the generalized
exponential with cdf (1 - e^(-rate x))^shape. For the other three one
parameter maximizes l in closed form given the other, which leaves one
scalar equation with an exact slope for `distribution.solve_bracketed`.
On t = ln(x / max x), x's scale enters l only as -n ln max x.

A static table of published AIC/SIC values for a wider zoo of models
(28 strength rows, 9 leukaemia rows, 5 bearing rows) ships as a data
file for side-by-side reporting; `reference_table` loads it.
"""

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import distribution
from .estimation import DegenerateDataError, FitError, information_criteria
# minimize: unused here, but perfbench/tracer.py wraps it here
from .optimize import minimize  # noqa: F401
from .special_math import LOG_2PI, digamma_trigamma


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


def _package(family, names, params, loglik, n):
    if not all(map(math.isfinite, params)):
        raise FitError(f"{family} fit: the MLE {tuple(params)} leaves the float range")
    aic, sic = information_criteria(len(params), loglik, n)
    return CompetitorFit(family, tuple(map(float, params)), tuple(names), float(loglik),
                         len(params), aic, sic, converged=True)


def _log_scaled(data):
    """max x, t = ln(x / max x) and ln mean(x / max x); t is rounded once
    where x / max x is a normal float."""
    x = data.values
    top = float(x.max())
    z = x / top
    t = np.log(z, out=np.log(x) - math.log(top), where=z >= np.finfo(float).tiny)
    return top, t, math.log1p(float(np.expm1(t).mean()))


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


def fit_gamma(data):
    """Gamma MLE, shape/rate. The shape k solves ln k - psi(k) = s, the log
    of the arithmetic over the geometric mean, and 1/(2k) < ln k - psi(k) < 1/k
    brackets it (Minka 2002)."""
    top, t, log_zbar = _log_scaled(data)
    mean_t = float(t.mean())
    s = log_zbar - mean_t
    if not s > 0.0:
        raise DegenerateDataError("zero variance; gamma fit is degenerate")

    def f(k):  # increasing, as psi'(k) > 1/k
        psi, dpsi = digamma_trigamma(k)
        return psi - math.log(k) + s, dpsi - 1.0 / k

    k0 = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)  # Minka's, inside
    k = distribution.solve_bracketed(f, 0.5 / s, 1.0 / s, k0)
    # k ln k - k - lgamma(k), from Stirling's series past k = 1e3, where it cancels
    m = (k * math.log(k) - k - math.lgamma(k) if k < 1e3
         else 0.5 * (math.log(k) - LOG_2PI) - (1.0 - 1.0 / (30.0 * k * k)) / (12.0 * k))
    loglik = data.n * (m - k * s - mean_t - math.log(top))
    return _package("Gamma", ("shape", "rate"), (k, k / (top * math.exp(log_zbar))),
                    loglik, data.n)


def fit_weibull(data):
    """Weibull MLE, shape/scale. The shape c solves E_c[t] - mean t = 1/c,
    where E_c weighs t by z^c = e^(c t) (Cohen 1965); scale^c = mean x^c."""
    top, t, _ = _log_scaled(data)
    mean_t = float(t.mean())
    if not mean_t < 0.0:
        raise DegenerateDataError("zero spread; Weibull fit is degenerate")

    def f(c):  # increasing: the slope is Var_c[t] + 1/c^2
        w = np.exp(c * t)  # the largest is 1, at t = 0
        w /= w.sum()
        d = t - (mean_c := float(w @ t))
        return mean_c - mean_t - 1.0 / c, float(w @ (d * d)) + 1.0 / (c * c)

    c0 = -0.5 / mean_t  # f(c0) = E_c0[t] + mean t < 0
    hi = distribution.expand_bracket(f, c0, 2.0 * c0)
    c = distribution.solve_bracketed(f, c0, hi, hi)
    log_mean_w = math.log(float(np.exp(c * t).mean()))  # ln mean z^c, in [-ln n, 0]
    loglik = data.n * (math.log(c) - log_mean_w - 1.0 - math.log(top) + (c - 1.0) * mean_t)
    return _package("Weibull", ("shape", "scale"), (c, top * math.exp(log_mean_w / c)),
                    loglik, data.n)


def fit_gen_exponential(data):
    """Generalized exponential MLE; cdf (1 - e^(-rate x))^shape.

    At theta = rate mean x the shape n / -L, L = sum ln(1 - e^-u) with
    u = theta x / mean x, maximizes l (Gupta & Kundu 2001). Then v = ln theta
    solves G(v) = theta - 1 + Q/n - Q/(-L) = 0, Q = sum u / (e^u - 1). Once
    every u passes 36, L and Q are summed over e^(u_min - u), as L underflows.
    """
    n = data.n
    top, t, log_zbar = _log_scaled(data)
    log_y = t - log_zbar  # ln(x / mean x)
    if not float(log_y.min()) < 0.0:
        raise DegenerateDataError("zero spread; GE fit is degenerate")

    def sums(v):
        """-L e^c, Q e^c, Q' e^c (Q' = dQ/dv) and the shift c at theta = e^v."""
        log_u = v + log_y
        u = np.exp(log_u)
        c = float(u.min())
        if c >= 36.0:  # -ln(1 - e^-u) = e^-u to rounding
            neg_l = np.exp(c - u)
            return float(neg_l.sum()), float(u @ neg_l), float((u - u * u) @ neg_l), c
        neg_l, q = -log_u, np.ones_like(u)  # their values below u = e^-36, to rounding
        m = log_u >= -36.0
        e, em1 = np.exp(-u[m]), -np.expm1(-u[m])  # e^-u, 1 - e^-u
        neg_l[m] = -np.where(u[m] < math.log(2.0), np.log(em1), np.log1p(-e))  # Maechler 2012
        q[m] = u[m] * e / em1
        return float(neg_l.sum()), float(q.sum()), float(q @ (1.0 - u - q)), 0.0

    def g(v):  # G and G' = theta - (Q/L)^2 + Q'/n - Q'/(-L)
        neg_l, q, dq, c = sums(v)
        theta, per_n = math.exp(v), math.exp(-c) / n
        return (theta - 1.0 + q * per_n - q / neg_l,
                theta - (q / neg_l) ** 2 + dq * per_n - dq / neg_l)

    lo = -1.0
    while g(lo)[0] > 0.0:  # G < 0 as theta -> 0, and G > 0 as theta -> inf
        lo *= 2.0
    hi = distribution.expand_bracket(g, lo, lo + 1.0)
    v = distribution.solve_bracketed(g, lo, hi, hi)
    neg_l, _, _, c = sums(v)
    log_shape = math.log(n / neg_l) + c
    shape = math.exp(log_shape) if log_shape < 709.78 else math.inf  # e^709.78: float max
    theta, log_mean = math.exp(v), math.log(top) + log_zbar
    loglik = n * (log_shape + v - 1.0 + math.exp(-log_shape) - theta - log_mean)
    return _package("GE", ("shape", "rate"), (shape, theta / (top * math.exp(log_zbar))),
                    loglik, n)


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
