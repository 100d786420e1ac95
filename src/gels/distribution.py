"""The generalized exponential log-squared (GEL-S) distribution.

A three-parameter family on (alpha, infinity) with density proportional to

    x^k * exp(-(ln(x - alpha))^2 / (2 gamma^2)),   x > alpha >= 0,

for integer k >= 0 and gamma > 0. Expanding x^k = ((x - alpha) + alpha)^k
binomially turns every global quantity into the series S(alpha, gamma, m)
from `special_math`, and the cdf into a finite mixture of shifted
log-normal cdfs with component means mu_i = (i+1) gamma^2 on the
log scale. At alpha = 0 the family collapses to a plain log-normal with
mu = (k+1) gamma^2 and sigma = gamma.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

from .rootfind import Bracket, expand_bracket, solve_bracketed
from .special_math import LOG_2PI, log_series_sum, std_normal_cdf


class MomentOverflowError(OverflowError):
    """Moment too large for a float; `log_value` carries log E[X^n]."""

    def __init__(self, message, log_value):
        super().__init__(message)
        self.log_value = log_value


@dataclass(frozen=True)
class GelSParams:
    """Parameter triple (alpha, k, gamma) with eager validation."""

    alpha: float
    k: int
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.k != int(self.k) or self.k < 0:
            raise ValueError(f"k must be a nonnegative integer, got {self.k}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "gamma", float(self.gamma))


@dataclass(frozen=True)
class DistributionSummary:
    mean: float
    variance: float
    skewness: float
    kurtosis: float
    mode: float
    median: float


def log_norm_const(params):
    """log C where the density is C * x^k * exp(-(ln(x-alpha))^2/(2 gamma^2)).

    C^-1 = gamma * sqrt(2 pi) * S(alpha, gamma, k), evaluated in log space
    so that large k (the bundled bearing fit needs k = 27) cannot overflow.
    """
    s = log_series_sum(params.alpha, params.gamma, params.k)
    return -(math.log(params.gamma) + 0.5 * LOG_2PI + s.value)


def log_pdf(params, x):
    """Log density at a scalar x; -inf off the support (x <= alpha)."""
    if not x > params.alpha:
        return -math.inf
    t = math.log(x - params.alpha)
    out = log_norm_const(params) - t * t / (2.0 * params.gamma**2)
    if params.k > 0:
        out += params.k * math.log(x)
    return out


def pdf(params, x):
    return math.exp(log_pdf(params, x))


@lru_cache(maxsize=512)
def _mixture(params):
    """Log-normal mixture view of the cdf.

    Returns (mus, weights): component log-scale means mu_i = (i+1) gamma^2
    and the series weights w_i = C(k,i) alpha^(k-i) e^((i+1)^2 g^2/2) / S.
    At alpha = 0 only the i = k component is kept. Arrays are frozen
    since lru_cache hands back shared objects.
    """
    w = log_series_sum(params.alpha, params.gamma, params.k).weights
    mus = np.arange(1.0, params.k + 2.0) * params.gamma**2
    if params.alpha == 0.0:
        mus, w = mus[-1:], w[-1:]
    mus.flags.writeable = False
    return mus, w


def cdf(params, x):
    """Distribution function: sum_i w_i * Phi((ln(x-alpha) - mu_i)/gamma)."""
    if not x > params.alpha:
        return 0.0
    y = math.log(x - params.alpha)
    mus, w = _mixture(params)
    acc = 0.0
    for mu, wi in zip(mus, w):
        acc += wi * std_normal_cdf((y - mu) / params.gamma)
    return min(1.0, max(0.0, acc))


def sf(params, x):
    """Survival function, computed from the complement side for tail accuracy."""
    if not x > params.alpha:
        return 1.0
    y = math.log(x - params.alpha)
    mus, w = _mixture(params)
    acc = 0.0
    for mu, wi in zip(mus, w):
        acc += wi * std_normal_cdf(-(y - mu) / params.gamma)
    return min(1.0, max(0.0, acc))


def moment(params, n):
    """Raw moment E[X^n] = exp(log S(alpha, gamma, n+k) - log S(alpha, gamma, k)).

    All orders exist (the log-squared tail beats any polynomial). If the
    value itself exceeds float range the error carries the log-space value.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"moment order must be a nonnegative integer, got {n}")
    n = int(n)
    log_m = (log_series_sum(params.alpha, params.gamma, n + params.k).value
             - log_series_sum(params.alpha, params.gamma, params.k).value)
    if log_m > 709.0:
        raise MomentOverflowError(
            f"E[X^{n}] overflows a float (log value {log_m:.3f})", log_m
        )
    return math.exp(log_m)


def mode(params):
    """Unique interior maximum of the density.

    For k = 0 the mode is exactly 1 + alpha. For k > 0 it is the single
    root of x ln(x - alpha) = k gamma^2 (x - alpha) beyond 1 + alpha; the
    seed interval [1 + alpha, alpha + e^(k gamma^2 + 1)] already brackets
    it (the right end makes the left side strictly larger).
    """
    a, k, g = params.alpha, params.k, params.gamma
    if k == 0:
        return 1.0 + a

    def grad_sign(x):
        return x * math.log(x - a) - k * g * g * (x - a)

    br = expand_bracket(grad_sign, 1.0 + a, a + math.exp(k * g * g + 1.0))
    return solve_bracketed(grad_sign, br, xtol=1e-13, ftol=0.0, max_iter=200)


def _quantile_log_scale(params, p):
    """Solve for y = ln(q - alpha) with mixture cdf equal to p."""
    mus, w = _mixture(params)
    g = params.gamma
    z = ndtri(p)

    def excess(y):
        acc = 0.0
        for mu, wi in zip(mus, w):
            acc += wi * std_normal_cdf((y - mu) / g)
        return acc - p

    # Common-sigma mixture quantile is pinned between the extreme
    # component quantiles; pad for rounding, then grow if needed.
    pad = 1e-6 * g
    lo = mus.min() + g * z - pad
    hi = mus.max() + g * z + pad
    f_lo, f_hi = excess(lo), excess(hi)
    step = max(g, 1.0)
    while f_lo > 0.0:
        lo -= step
        step *= 2.0
        f_lo = excess(lo)
    step = max(g, 1.0)
    while f_hi < 0.0:
        hi += step
        step *= 2.0
        f_hi = excess(hi)
    return solve_bracketed(
        excess, Bracket(lo, hi, f_lo, f_hi), xtol=1e-13, ftol=0.0, max_iter=200
    )


def quantile(params, p):
    """Inverse cdf; satisfies |cdf(quantile(p)) - p| <= 1e-10 for interior p.

    Always inside the open support: the smallest float above alpha at least.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {p}")
    q = params.alpha + math.exp(_quantile_log_scale(params, p))
    return q if q > params.alpha else math.nextafter(params.alpha, math.inf)


def sample(params, n, seed):
    """Inverse-transform sample of size n.

    Uniforms come from numpy's PCG64 generator (documented period 2^128)
    seeded with `seed`, so output is fully deterministic. Each variate
    solves cdf(x) = u on the log scale by a bisection-safeguarded Newton
    iteration, vectorized across the whole draw; tolerance matches the
    scalar `quantile` path.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"sample size must be a nonnegative integer, got {n}")
    n = int(n)
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    u = np.maximum(u, 2.0**-53)  # rng.random is [0, 1); keep strictly inside

    mus, w = _mixture(params)
    g = params.gamma
    z = ndtri(u)
    lo = mus.min() + g * z - 1e-9
    hi = mus.max() + g * z + 1e-9
    y = 0.5 * (lo + hi)
    inv_sqrt2pi = 1.0 / math.sqrt(2.0 * math.pi)
    for _ in range(90):
        t = (y[None, :] - mus[:, None]) / g
        diff = (w[:, None] * ndtr(t)).sum(axis=0) - u
        dens = (w[:, None] * np.exp(-0.5 * t * t)).sum(axis=0) * inv_sqrt2pi / g
        width = hi - lo
        if (np.abs(diff) <= 1e-12).all() or (width <= 1e-12 * np.maximum(1.0, np.abs(y))).all():
            break
        hi = np.where(diff > 0.0, y, hi)
        lo = np.where(diff <= 0.0, y, lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            y_new = y - diff / dens
        bad = ~np.isfinite(y_new) | (y_new <= lo) | (y_new >= hi)
        y = np.where(bad, 0.5 * (lo + hi), y_new)
    return params.alpha + np.exp(y)


def summary(params):
    """First four moments (central form), mode, and median in one record.

    Skewness and kurtosis use the raw-to-central recursions
        skew = (E[X^3] - 3 mu var - mu^3) / var^(3/2)
        kurt = (E[X^4] - 4 mu var^(3/2) skew - 6 mu^2 var - mu^4) / var^2.
    """
    m1 = moment(params, 1)
    m2 = moment(params, 2)
    m3 = moment(params, 3)
    m4 = moment(params, 4)
    var = m2 - m1 * m1
    sd = math.sqrt(var)
    skew = (m3 - 3.0 * m1 * var - m1**3) / sd**3
    kurt = (m4 - 4.0 * m1 * sd**3 * skew - 6.0 * m1**2 * var - m1**4) / var**2
    return DistributionSummary(
        mean=m1,
        variance=var,
        skewness=skew,
        kurtosis=kurt,
        mode=mode(params),
        median=quantile(params, 0.5),
    )
