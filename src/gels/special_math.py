"""Scalar special functions and the log-space series kernel.

Everything downstream (normalizing constant, cdf weights, moments,
likelihood derivatives) funnels through the binomial-exponential series

    S(alpha, gamma, m) = sum_{i=0}^{m} T_i,
    T_i = C(m, i) * alpha^(m-i) * exp((i+1)^2 gamma^2 / 2),

which overflows in raw form for even moderate m * gamma^2, so it is only
ever evaluated in log space here. log S is a log-sum-exp of log T_i, so
every partial of log S is a moment under the mixture weights w_i = T_i / S;
`log_series_sum` computes log S, the weights and those partials in one pass.
"""

import math
from functools import lru_cache
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()


class FloatOverflowError(OverflowError):
    """A result too large for a float; `log_value` carries its log."""

    def __init__(self, message, log_value):
        super().__init__(message)
        self.log_value = log_value


def std_normal_cdf(z):
    """Standard normal cdf via the complementary error function.

    Accurate to ~1e-16 absolute across the whole real line; saturates
    cleanly to 0.0 / 1.0 in the far tails.
    """
    return 0.5 * math.erfc(-z / _SQRT2)


def std_normal_quantile(p):
    """Standard normal quantile for 0 < p < 1 (Wichura's AS241, ~1e-16)."""
    return _STD_NORMAL.inv_cdf(p)


def log_binomial(n, i):
    """log of C(n, i) through log-gamma; exact-ish to ~1e-14 relative."""
    if i < 0 or i > n:
        raise ValueError(f"binomial index out of range: C({n}, {i})")
    return math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)


class _Layout(NamedTuple):
    """Per-order constants of the series, for i = 0..m."""

    terms: np.ndarray  # rows log C(m, i), m - i, (i+1)^2: log T_i = (1, ln alpha, h) @ terms
    tip: np.ndarray    # log T_i - log T_m at alpha = 0: -inf for i < m, 0 at i = m
    decay: np.ndarray  # rows 0, 2i+1, 4i; see log_series_sum
    sums: np.ndarray   # columns 1, q, q^2, i, i^3, i(i-1)


@lru_cache(maxsize=256)
def _layout(m):
    i = np.arange(m + 1.0)
    q = (i + 1.0) ** 2
    log_c = np.array([log_binomial(m, j) for j in range(m + 1)])
    tip = np.full(m + 1, -np.inf)
    tip[m] = 0.0
    layout = _Layout(np.stack([log_c, m - i, q]), tip,
                     np.stack([np.zeros_like(i), 2.0 * i + 1.0, 4.0 * i]),
                     np.stack([np.ones_like(i), q, q * q, i, i ** 3, i * (i - 1.0)], axis=1))
    for a in layout:
        a.flags.writeable = False  # shared by every call at this order
    return layout


class SeriesPartials(NamedTuple):
    """First and second partials of log S(alpha, gamma, m)."""

    d_alpha: float
    d_gamma: float
    d2_alpha: float
    d2_gamma: float
    d2_alpha_gamma: float


class LogSeriesSum(NamedTuple):
    """log S(alpha, gamma, m), the weights w_i = T_i / S and the partials of log S.

    With p = m - i and q = (i+1)^2, the partials of log S are moments
    under w (the Hessian of a log-sum-exp is E_w[Hessian of log T] plus
    Cov_w[gradient of log T]):

        d/d gamma          log S = gamma E_w[q]
        d2/d gamma2        log S = E_w[q] + gamma^2 Var_w[q]
        d/d alpha          log S = E_w[p] / alpha
        d2/d alpha2        log S = (Var_w[i] - E_w[p]) / alpha^2
                                 = E_w[p (p-1)] / alpha^2 - (E_w[p] / alpha)^2
        d2/d alpha d gamma log S = -(gamma / alpha) Cov_w[i, q]
                                 = gamma Cov_w[p, q] / alpha

    The alpha moments are formed divided by their power of alpha. Since
    p T_(i-1) / alpha = i T_i exp(-(2i+1) gamma^2 / 2), they are sums over
    the weights with no division by alpha, stay finite as alpha -> 0, and
    equal the one-sided limits at alpha = 0.
    """

    value: float
    alpha: float
    gamma: float
    m: int
    weights: np.ndarray      # w_i, i = 0..m, read-only
    partials: SeriesPartials

    @property
    def log_c(self):
        """log C, the GEL-S normalizing constant at k = m: C^-1 = gamma sqrt(2 pi) S."""
        return -(math.log(self.gamma) + 0.5 * LOG_2PI + self.value)


def _check_series_args(alpha, gamma, m):
    if not (alpha >= 0.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
    if m != int(m) or m < 0:
        raise ValueError(f"series order must be a nonnegative integer, got {m}")


def log_series_sum(alpha, gamma, m):
    """log S(alpha, gamma, m) with its weights and the partials of log S.

    The log terms come from the cached layout of order m and are summed
    with a max-shifted exp-sum. At alpha = 0 only the i = m term survives
    (0^0 = 1 convention), giving log S = (m+1)^2 gamma^2 / 2 exactly.
    Past the float range it raises FloatOverflowError carrying log S = inf.
    """
    _check_series_args(alpha, gamma, m)
    m = int(m)
    lay = _layout(m)
    h = 0.5 * gamma * gamma
    # log T_m; no log T_i exceeds it by more than m ln(2 max(1, alpha)), so
    # when it is finite so is the largest, and no inf - inf reaches `shifted`
    top = h * (m + 1) ** 2
    if not math.isfinite(top):
        raise FloatOverflowError(f"log S({alpha!r}, {gamma!r}, {m}) overflows a float "
                                 "(log value inf)", math.inf)
    if alpha == 0.0:
        shifted = lay.tip
    else:
        log_t = np.array((1.0, math.log(alpha), h)) @ lay.terms
        top = float(log_t.max())
        shifted = log_t - top
    # Rows T_i, T_i e^(-(2i+1)h) and T_i e^(-4ih), all over the largest
    # T_i. The last two equal p T_(i-1) / (i alpha) and
    # p (p-1) T_(i-2) / (i (i-1) alpha^2), p counted at i-1 and i-2.
    scaled = np.exp(shifted - h * lay.decay)
    sums = (scaled @ lay.sums).tolist()
    s, sq, sq2 = sums[0][:3]  # S, S E_w[q], S E_w[q^2]
    s1, s3 = sums[1][3:5]     # S E_w[p] / alpha, S E_w[p q] / alpha
    s2 = sums[2][5]           # S E_w[p (p-1)] / alpha^2
    w = scaled[0] / s
    w.flags.writeable = False
    mean_q = sq / s
    mean_p = s1 / s         # E_w[p] / alpha
    partials = SeriesPartials(mean_p, gamma * mean_q, s2 / s - mean_p ** 2,
                              mean_q + gamma * gamma * (sq2 / s - mean_q * mean_q),
                              gamma * (s3 / s - mean_q * mean_p))
    return LogSeriesSum(top + math.log(s), alpha, gamma, m, w, partials)


def log_series_sum_partials(alpha, gamma, m):
    """First and second partials of log S(alpha, gamma, m); at alpha = 0 the
    alpha partials are the one-sided limits, e.g. d/d alpha log S = m e^(-(2m+1) gamma^2 / 2)."""
    return log_series_sum(alpha, gamma, m).partials
