"""Maximum likelihood estimation for the GEL-S family.

k enters the density as an integer, so the fit is a profile over a fixed
k grid: for each k maximize the likelihood in (alpha, gamma), then pick
the k with the highest maximized log-likelihood (ties break toward the
smaller k). The continuous optimization is Newton in (a, gamma) with
alpha = a^2, which keeps alpha nonnegative without explicit constraints;
the support condition alpha < min(x) is enforced as a hard +inf barrier.
Its gradient and Hessian are exact: the partials of log S are moments of
the mixture weights (`special_math.log_series_sum`).
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

# log_norm_const, log_series_sum_partials: unused here, but perfbench/tracer.py wraps them here
from .distribution import GelSParams, log_norm_const  # noqa: F401
from .optimize import minimize
from .special_math import (LOG_2PI, FloatOverflowError, log_series_sum,  # noqa: F401
                           log_series_sum_partials, std_normal_quantile)


class DegenerateDataError(ValueError):
    """Data without enough spread to identify the parameters."""


class FitError(RuntimeError):
    """No k in the requested grid produced a converged fit."""


class UncertaintyUnavailableError(RuntimeError):
    """Observed information was singular or otherwise unusable."""


@dataclass(frozen=True)
class Dataset:
    """Positive observations plus bookkeeping for reports."""

    values: np.ndarray
    name: str = ""
    source: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("dataset must be a non-empty 1-d array")
        if not np.isfinite(v).all():
            raise ValueError("dataset contains non-finite values")
        if (v <= 0.0).any():
            raise ValueError("dataset contains non-positive values")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self):
        return int(self.values.size)

    @cached_property
    def log_sum(self):
        """sum ln x, the data part of the k ln x likelihood term."""
        return float(np.log(self.values).sum())


@dataclass(frozen=True)
class FitResult:
    k: int
    alpha_hat: float
    gamma_hat: float
    raw_a_hat: float
    loglik: float
    cov: Optional[np.ndarray]
    se_alpha: float
    se_gamma: float
    aic: float
    sic: float
    converged: bool


@dataclass(frozen=True)
class KGridTrace:
    """Per-k fit results in grid order plus the index of the winner."""

    per_k: list
    selected_index: int

    @property
    def selected(self):
        return self.per_k[self.selected_index]


class _Point:
    """The log-likelihood at one (alpha, gamma, k) from one kernel call and
    one pass for t = ln(x - alpha), which `derivatives` reuses; ValueError
    off the support."""

    def __init__(self, data, alpha, gamma, k):
        self.n, self.gamma, self.u = data.n, gamma, data.values - alpha
        if not self.u.min() > 0.0:
            raise ValueError("score undefined: data off the support")
        self.t = np.log(self.u)
        self.series = log_series_sum(alpha, gamma, k)
        self.tt = float(self.t @ self.t)
        # n log C - sum t^2 / (2 gamma^2) + k sum ln x, log C as in log_norm_const
        self.value = (self.n * -(math.log(gamma) + 0.5 * LOG_2PI + self.series.value)
                      - self.tt / (2.0 * gamma**2))
        if k > 0:
            self.value += k * data.log_sum

    def derivatives(self):
        """Exact (l_alpha, l_gamma) and (l_alpha,alpha, l_alpha,gamma, l_gamma,gamma):

            l_alpha       = -n dS_alpha + gamma^-2 sum t/u
            l_gamma       = -n (1/gamma + dS_gamma) + gamma^-3 sum t^2
            l_alpha,alpha = -n dS_alpha,alpha + gamma^-2 sum (t - 1)/u^2
            l_alpha,gamma = -n dS_alpha,gamma - 2 gamma^-3 sum t/u
            l_gamma,gamma = n (1/gamma^2 - dS_gamma,gamma) - 3 gamma^-4 sum t^2

        where dS are the partials of log S(alpha, gamma, k). At alpha = 0
        the alpha partials are one-sided.
        """
        u, t, n, g, tt = self.u, self.t, self.n, self.gamma, self.tt
        d = self.series.partials()
        sum_t_u = float((t / u).sum())
        sum_t1_u2 = float(((t - 1.0) / u) @ (1.0 / u))
        g2 = g * g
        return ((-n * d.d_alpha + sum_t_u / g2, -n * (1.0 / g + d.d_gamma) + tt / (g2 * g)),
                (-n * d.d2_alpha + sum_t1_u2 / g2,
                 -n * d.d2_alpha_gamma - 2.0 * sum_t_u / (g2 * g),
                 n * (1.0 / g2 - d.d2_gamma) - 3.0 * tt / (g2 * g2)))


def log_likelihood(params, data):
    """Full-sample log-likelihood; -inf off the support or when log S overflows."""
    try:
        return _Point(data, params.alpha, params.gamma, params.k).value
    except (ValueError, FloatOverflowError):
        return -math.inf


def score(params, data):
    """Exact gradient (d l / d alpha, d l / d gamma) of the log-likelihood."""
    return _Point(data, params.alpha, params.gamma, params.k).derivatives()[0]


def observed_information(params, data):
    """Observed information: the exact negative Hessian in (alpha, gamma).

    At an interior MLE it is the realized observed information matrix; at
    alpha = 0 its alpha entries are one-sided.
    """
    h_aa, h_ag, h_gg = _Point(data, params.alpha, params.gamma, params.k).derivatives()[1]
    return -np.array([[h_aa, h_ag], [h_ag, h_gg]])


def information_criteria(n_params, loglik, n):
    """(AIC, SIC) = (2 n_p - 2 l, n_p ln(n) - 2 l); lower is better."""
    if n_params < 1 or n < 1:
        raise ValueError("n_params and n must be >= 1")
    return 2.0 * n_params - 2.0 * loglik, n_params * math.log(n) - 2.0 * loglik


def _check_spread(data):
    if data.values.max() == data.values.min():
        raise DegenerateDataError("all observations identical; fit is degenerate")


def _default_init(data, k, frac):
    """Starting point (a0, gamma0) with alpha0 = a0^2 = frac * min(x).

    gamma0 maximizes the likelihood at alpha0 with log S replaced by its
    i = k term, (k+1)^2 gamma^2 / 2 (exact at alpha = 0). Then
    g = gamma^2 solves (k+1)^2 g^2 + g = mean(t^2), t = ln(x - alpha0).
    """
    a0 = math.sqrt(frac * float(data.values.min()))
    t = np.log(data.values - a0 * a0)
    mean_t2 = float(t @ t) / data.n
    g2 = 2.0 * mean_t2 / (1.0 + math.sqrt(1.0 + 4.0 * (k + 1.0) ** 2 * mean_t2))
    return a0, max(math.sqrt(g2), 1e-2)


def fit_given_k(data, k, init=None):
    """Maximize the likelihood over (alpha, gamma) for one fixed k.

    Newton runs on (a, gamma) with alpha = a^2, using the exact gradient
    and Hessian from the chain rule: l_a,a = 4 a^2 l_alpha,alpha + 2 l_alpha
    and l_a,gamma = 2 a l_alpha,gamma. Without `init`, Newton runs from
    three default starts, alpha0 = 0.5, 0.1 and 0.9 times min(x). `init` is
    an optional (a0, gamma0) warm start; with it, Newton runs from the warm
    start and then the alpha0 = 0.1 min(x) start, which reaches the optima
    that following the previous k's optimum misses (at alpha near 0 or away
    from it), and from the alpha0 = 0.5 min(x) start only when neither of
    those converged. The best converged candidate wins. Covariance comes
    from the exact observed information in (alpha, gamma).
    """
    _check_spread(data)
    xmin = float(data.values.min())
    barrier = xmin * (1.0 - 1e-12)

    last = (None, None)  # one-slot cache: (a, gamma) of the latest trial, its _Point

    def neg_loglik(v):
        nonlocal last
        a, g = float(v[0]), float(v[1])
        if a * a >= barrier or g <= 0.0:
            return math.inf
        try:
            last = (a, g), _Point(data, a * a, g, k)
        except FloatOverflowError:  # log S = inf, so -log L = inf
            return math.inf
        return -last[1].value

    def derivatives(v):
        # minimize asks at the point it just accepted, the latest trial
        a, g = float(v[0]), float(v[1])
        point = last[1] if last[0] == (a, g) else _Point(data, a * a, g, k)
        (l_alpha, l_gamma), (h_aa, h_ag, h_gg) = point.derivatives()
        h_ag *= -2.0 * a
        return ((-2.0 * a * l_alpha, -l_gamma),
                ((-(4.0 * a * a * h_aa + 2.0 * l_alpha), h_ag), (h_ag, -h_gg)))

    found = []

    def solve(a0, g0):
        if a0 * a0 < barrier:
            try:
                found.append(minimize(neg_loglik, [a0, g0], derivatives=derivatives))
            except ValueError:
                pass

    if init is None:
        for frac in (0.5, 0.1, 0.9):
            solve(*_default_init(data, k, frac))
    else:
        solve(*init)
        solve(*_default_init(data, k, 0.1))
        if not any(res.converged for res in found):
            solve(*_default_init(data, k, 0.5))

    if not found:
        raise FitError(f"no feasible starting point for k={k}")
    best = min(found, key=lambda res: (not res.converged, res.f_min))

    a_hat = abs(float(best.x_min[0]))
    alpha_hat = a_hat * a_hat
    gamma_hat = float(best.x_min[1])
    loglik = -best.f_min
    params = GelSParams(alpha_hat, k, gamma_hat)

    cov = None
    se_alpha = se_gamma = math.nan
    try:
        cov = np.linalg.inv(observed_information(params, data))
        if np.isfinite(cov).all() and cov[0, 0] > 0.0 and cov[1, 1] > 0.0:
            se_alpha = math.sqrt(cov[0, 0])
            se_gamma = math.sqrt(cov[1, 1])
        else:
            cov = None
    except np.linalg.LinAlgError:
        cov = None

    aic, sic = information_criteria(2, loglik, data.n)
    return FitResult(
        k=int(k), alpha_hat=alpha_hat, gamma_hat=gamma_hat, raw_a_hat=a_hat,
        loglik=loglik, cov=cov, se_alpha=se_alpha, se_gamma=se_gamma,
        aic=aic, sic=sic, converged=bool(best.converged),
    )


def fit(data, k_min=0, k_max=10):
    """Profile the likelihood over the integer grid k_min..k_max.

    The first k runs the three default starts of `fit_given_k`. Each later k
    starts from the previous converged solution and from alpha0 = 0.1 min(x),
    falling back to the alpha0 = 0.5 min(x) start only when neither
    converges. Selection is by maximal log-likelihood among converged fits,
    ties toward smaller k.
    """
    if k_min < 0 or k_max < k_min:
        raise ValueError(f"bad k grid [{k_min}, {k_max}]")
    per_k = []
    warm = None
    for k in range(k_min, k_max + 1):
        try:
            res = fit_given_k(data, k, init=warm)
        except FitError:
            res = FitResult(k=k, alpha_hat=math.nan, gamma_hat=math.nan,
                            raw_a_hat=math.nan, loglik=-math.inf, cov=None,
                            se_alpha=math.nan, se_gamma=math.nan, aic=math.inf,
                            sic=math.inf, converged=False)
        per_k.append(res)
        if res.converged:
            warm = (res.raw_a_hat, res.gamma_hat)
    converged = [r for r in per_k if r.converged]
    if not converged:
        raise FitError(f"no converged fit for any k in [{k_min}, {k_max}]")
    best = max(converged, key=lambda r: r.loglik)
    return KGridTrace(per_k=per_k, selected_index=per_k.index(best))


@dataclass(frozen=True)
class ConfidenceIntervals:
    alpha_ci: tuple
    gamma_ci: tuple
    level: float


def confidence_intervals(fit_result, level=0.95):
    """Wald intervals estimate +- z * se from the observed information."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    if fit_result.cov is None or not (math.isfinite(fit_result.se_alpha)
                                      and math.isfinite(fit_result.se_gamma)):
        raise UncertaintyUnavailableError(
            "observed information unavailable or singular for this fit")
    z = std_normal_quantile(1.0 - (1.0 - level) / 2.0)
    a, g = fit_result.alpha_hat, fit_result.gamma_hat
    return ConfidenceIntervals(
        alpha_ci=(a - z * fit_result.se_alpha, a + z * fit_result.se_alpha),
        gamma_ci=(g - z * fit_result.se_gamma, g + z * fit_result.se_gamma),
        level=level,
    )
