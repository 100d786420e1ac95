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
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .special_math import (LOG_2PI, FloatOverflowError, log_series_sum,
                           std_normal_cdf, std_normal_quantile)

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_XTOL = 1e-13          # root tolerance, relative to max(1, |y|)
_MAX_ITER = 200        # Newton or bisection steps per root
_MAX_DOUBLINGS = 60    # bracket growth before giving up
_GAMMA_MIN = math.sqrt(sys.float_info.min)  # smallest gamma whose square is a normal float
_BLOCK = 8192          # most draws per block of the vectorized inverse
_BLOCK_ELEMENTS = 2**20  # K x block entries per buffer of the vectorized inverse


class MomentOverflowError(FloatOverflowError):
    """Moment or summary figure too large for a float; `log_value` carries its log."""


class BracketError(RuntimeError):
    """No sign change found while growing the candidate interval."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the last bracket."""

    def __init__(self, message, lo, hi):
        super().__init__(message)
        self.lo = lo
        self.hi = hi


def ndtr(x, out=None):
    """Elementwise standard normal cdf; `sample` calls it once per block sweep."""
    from scipy.special import ndtr  # scipy loads only when drawing variates
    return ndtr(x, out=out)


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
        if self.gamma * self.gamma < sys.float_info.min:
            # the component means (i+1) gamma^2 and the summary need gamma^2
            raise ValueError(f"gamma^2 underflows a float, need gamma >= {_GAMMA_MIN!r}, "
                             f"got {self.gamma}")
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
    return log_series_sum(params.alpha, params.gamma, params.k).log_c


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
    """Log-normal mixture view of the cdf, over its live components.

    Returns (mus, weights): log-scale means mu_i = (i+1) gamma^2 and series
    weights w_i = C(k,i) alpha^(k-i) e^((i+1)^2 g^2/2) / S for each i with
    w_i != 0.0 (at alpha = 0, i = k only): a dead row only costs time, and
    would meet an infinite mu_i as 0 * inf. Frozen: lru_cache shares them.
    """
    w = log_series_sum(params.alpha, params.gamma, params.k).weights
    live = w.nonzero()[0]
    g2 = params.gamma**2 if params.gamma < 1e154 else math.inf  # float ** raises past the range
    mus, w = (live + 1.0) * g2, w[live]
    mus.flags.writeable = w.flags.writeable = False
    return mus, w


def _tail(params, x, side):
    """sum_i w_i * Phi(side (ln(x-alpha) - mu_i)/gamma): cdf at side 1, sf at -1."""
    if not x > params.alpha:
        return 0.0 if side > 0.0 else 1.0
    y = math.log(x - params.alpha)
    mus, w = _mixture(params)
    scale = side * params.gamma     # a / -g is -(a / g) to the bit
    acc = 0.0
    for mu, wi in zip(mus.tolist(), w.tolist()):
        acc += wi * std_normal_cdf((y - mu) / scale)
    return min(1.0, max(0.0, acc))


def cdf(params, x):
    """Distribution function: sum_i w_i * Phi((ln(x-alpha) - mu_i)/gamma)."""
    return _tail(params, x, 1.0)


def sf(params, x):
    """Survival function, computed from the complement side for tail accuracy."""
    return _tail(params, x, -1.0)


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


def solve_bracketed(f, lo, hi, y):
    """Root of an increasing f in [lo, hi] by safeguarded Newton from y.

    f(y) returns (f(y), f'(y)), with f(lo) <= 0 <= f(hi) and lo <= y <= hi.
    Each value moves one end of the bracket to y. A Newton step that would
    leave the bracket, or that is not half the step before last (Newton
    crawling down a steep exponential tail), is replaced by bisection.
    Stops once the step, or else the bracket, is within
    1e-13 * max(1, |y|); the step is tested first, so a step below one ulp
    of y cannot land on a bracket end.
    """
    step = last = hi - lo
    for _ in range(_MAX_ITER):
        value, slope = f(y)
        if value < 0.0:
            lo = y
        else:
            hi = y
        tol = _XTOL * max(1.0, abs(y))
        newton = value / slope if slope > 0.0 else math.inf
        if abs(newton) <= tol:
            return min(max(y - newton, lo), hi)
        if hi - lo <= tol:
            return y
        if lo < y - newton < hi and 2.0 * abs(newton) <= abs(last):
            last, step, y = step, newton, y - newton
        else:
            mid = 0.5 * (lo + hi)
            last, step, y = step, y - mid, mid
    raise ConvergenceError(f"no convergence in {_MAX_ITER} steps", lo, hi)


def expand_bracket(f, lo, hi):
    """Upper end of a bracket for `solve_bracketed`: probes lo + 2^j (hi - lo),
    j = 0, 1, ..., until f >= 0 there; BracketError after 60 doublings."""
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    width = hi - lo
    for j in range(_MAX_DOUBLINGS + 1):
        hi = lo + 2.0 ** j * width
        if f(hi)[0] >= 0.0:
            return hi
    raise BracketError(f"no sign change in [{lo}, {hi}] after {_MAX_DOUBLINGS} doublings")


def _shift_exp(alpha, y, what):
    """alpha + e^y; past the float range, FloatOverflowError carrying y."""
    x = alpha + math.exp(y) if y <= _LOG_FLOAT_MAX else math.inf
    if x == math.inf:
        raise FloatOverflowError(f"{what} overflows a float (ln(x - alpha) = {y:.3f})", y)
    return x


def mode(params):
    """Global maximum of the density.

    For k = 0 it is 1 + alpha. For k > 0 the density's turning points are
    the roots of h(y) = y (1 + alpha e^-y) - k gamma^2 in y = ln(x - alpha),
    all in [0, k gamma^2], and its maxima are where h rises through 0.
    h' = 1 + alpha e^-y (1 - y) < 0 only between the roots y1 < 2 < y2 of
    (y - 1) e^-y = 1/alpha, which exist for alpha > e^2; as there
    h(y_i) = y_i^2 / (y_i - 1) - k gamma^2 >= 4 - k gamma^2, two maxima
    also need k gamma^2 > 4, and then the higher of the roots on [0, y1]
    and [y2, k gamma^2] wins. Past the float range the mode raises
    FloatOverflowError carrying ln(x - alpha).
    """
    a, k, g = params.alpha, params.k, params.gamma
    if k == 0:
        return 1.0 + a
    c = k * g * g

    def h(y):
        s = a * math.exp(-y)
        return y * (1.0 + s) - c, 1.0 + s * (1.0 - y)

    pieces = [(0.0, c)]
    if a > math.e ** 2 and c > 4.0:
        # with y = 1 + e^u, (y - 1) e^-y = 1/alpha reads e^u - u = b; its
        # roots lie in [-b, 0] and [ln b, ln 2b]
        b = math.log(a) - 1.0
        u1 = solve_bracketed(lambda u: (u - math.exp(u) + b, 1.0 - math.exp(u)), -b, 0.0, -b)
        u2 = solve_bracketed(lambda u: (math.exp(u) - u - b, math.exp(u) - 1.0),
                             math.log(b), math.log(2.0 * b), math.log(b))
        y1, y2 = 1.0 + math.exp(u1), 1.0 + math.exp(u2)
        pieces = [(0.0, y1)] if h(y1)[0] > 0.0 else []
        if h(y2)[0] < 0.0 or not pieces:
            pieces.append((y2, c))

    # every root y satisfies y = c / (1 + a e^-y) <= c / (1 + a e^-c)
    top = c / (1.0 + a * math.exp(-c))
    roots = [solve_bracketed(h, lo, hi, min(top, hi)) for lo, hi in pieces]
    y = max(roots, key=lambda y: k * (y + math.log1p(a * math.exp(-y))) - y * y / (2 * g * g))
    return _shift_exp(a, y, "mode")


def _quantile_log_scale(params, p):
    """Solve for y = ln(q - alpha) with mixture cdf equal to p.

    Newton on the cdf excess, whose slope is the mixture density, starts at
    the quantile of the normal with the mixture's mean and variance. The
    root lies between the extreme component quantiles (padded for rounding;
    the upper end still grows if it must). For p > 0.5 it solves for -y,
    whose law is the mixture of N(-mu_i, gamma^2), at level 1 - p: the cdf
    of -y is the sf of y, so the solve matches the sf to 1 - p, which keeps
    its digits where the cdf next to 1 rounds short of p.
    """
    mus, w = _mixture(params)
    sign = 1.0
    if p > 0.5:
        sign, p, mus, w = -1.0, 1.0 - p, -mus[::-1], w[::-1]
    comps = list(zip(mus.tolist(), w.tolist()))
    g = params.gamma
    z = std_normal_quantile(p)
    scale = math.exp(-0.5 * LOG_2PI) / g

    def excess(y):
        acc = dens = 0.0
        for mu, wi in comps:
            t = (y - mu) / g
            acc += wi * std_normal_cdf(t)
            dens += wi * math.exp(-0.5 * t * t)
        return acc - p, dens * scale

    lo, hi = comps[0][0] + g * z, comps[-1][0] + g * z
    if not (math.isfinite(lo) and math.isfinite(hi)):  # gamma^2 past the float range
        raise FloatOverflowError("quantile overflows a float (ln(x - alpha) = inf)", math.inf)
    # where the means dwarf gamma, 1e-6 gamma is below their rounding
    pad = max(1e-6 * g, 4.0 * math.ulp(max(abs(lo), abs(hi))))
    lo -= pad
    hi = expand_bracket(excess, lo, hi + pad)
    mean = sum(wi * mu for mu, wi in comps)
    var = sum(wi * (mu - mean) * (mu - mean) for mu, wi in comps)
    y = mean + z * math.sqrt(g * g + var)
    return sign * solve_bracketed(excess, lo, hi, max(lo, min(y, hi)))  # a NaN y starts at lo


def quantile(params, p):
    """Inverse cdf; satisfies |cdf(quantile(p)) - p| <= 1e-10 for interior p.

    Always inside the open support: the smallest float above alpha at least.
    Past the float range it raises FloatOverflowError carrying ln(q - alpha).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {p}")
    y = _quantile_log_scale(params, p)
    q = _shift_exp(params.alpha, y, f"quantile at p={p}")
    return q if q > params.alpha else math.nextafter(params.alpha, math.inf)


def _invert(mus, w, g, u):
    """y = ln(x - alpha) with mixture cdf equal to u, elementwise.

    `solve_bracketed` run over an active set: each element takes the same
    Newton or bisection steps from the same moment-matched start, stops by
    the same rule, and for u > 0.5 solves for -y at level 1 - u, as
    `_quantile_log_scale` does. Draws run in blocks of at most `_BLOCK`, and
    of at most `_BLOCK_ELEMENTS` // K, reusing two K x block buffers, and an
    element leaves the active set once it stops.
    """
    from scipy.special import ndtri

    k = mus.size
    scale = math.exp(-0.5 * LOG_2PI) / g
    mean = float(w @ mus)
    spread = math.sqrt(g * g + float(w @ (mus - mean) ** 2))
    block = max(1, min(_BLOCK, _BLOCK_ELEMENTS // k))
    out = np.empty(u.size)
    t_buf = np.empty(k * min(u.size, block))
    e_buf = np.empty_like(t_buf)
    for start in range(0, u.size, block):
        ub = u[start:start + block]
        # per element: sign s = -1 solves for -y at p = 1 - u
        sign = np.where(ub > 0.5, -1.0, 1.0)
        p = np.where(ub > 0.5, 1.0 - ub, ub)
        z = ndtri(p)
        lo = np.where(sign > 0, mus[0], -mus[-1]) + g * z - 1e-9
        hi = np.where(sign > 0, mus[-1], -mus[0]) + g * z + 1e-9
        y = np.clip(sign * mean + z * spread, lo, hi)
        step = last = hi - lo
        idx = np.arange(ub.size)
        for _ in range(_MAX_ITER):
            t = t_buf[:k * idx.size].reshape(k, idx.size)
            e = e_buf[:t.size].reshape(t.shape)
            np.subtract(sign * y, mus[:, None], out=t)
            t /= g
            t *= sign                        # t of the reflected mixture
            value = w @ ndtr(t, out=e) - p
            np.multiply(t, t, out=e)
            e *= -0.5
            slope = (w @ np.exp(e, out=e)) * scale
            below = value < 0.0
            lo = np.where(below, y, lo)
            hi = np.where(below, hi, y)
            tol = _XTOL * np.maximum(1.0, np.abs(y))
            newton = np.full_like(y, np.inf)
            np.divide(value, slope, out=newton, where=slope > 0.0)
            small = np.abs(newton) <= tol
            root = np.where(small, np.clip(y - newton, lo, hi), y)
            stop = small | (hi - lo <= tol)
            out[start + idx[stop]] = sign[stop] * root[stop]
            keep = ~stop
            if not keep.any():
                break
            cand = y - newton
            take = (lo < cand) & (cand < hi) & (2.0 * np.abs(newton) <= np.abs(last))
            mid = 0.5 * (lo + hi)
            last, step = step, np.where(take, newton, y - mid)
            y = np.where(take, cand, mid)
            idx, sign, p, y, lo, hi, step, last = (
                a[keep] for a in (idx, sign, p, y, lo, hi, step, last))
        else:
            raise ConvergenceError(f"no convergence in {_MAX_ITER} steps",
                                   float(lo.min()), float(hi.max()))
    return out


def sample(params, n, seed):
    """Inverse-transform sample of size n.

    Uniforms come from numpy's PCG64 generator (documented period 2^128)
    seeded with `seed`, so output is fully deterministic. Each draw is
    quantile(u), to about 1e-15 relative: a blocked active-set inverse takes
    the scalar solver's safeguarded Newton steps on ln(x - alpha) for many
    draws at once, in blocks of at most 8192 draws and 2^20 mixture terms,
    so its buffers are bounded whatever n and k. A draw past the float range
    raises FloatOverflowError carrying the largest ln(x - alpha).
    """
    if n != int(n) or n < 0:
        raise ValueError(f"sample size must be a nonnegative integer, got {n}")
    n = int(n)
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    np.maximum(u, 2.0**-53, out=u)  # rng.random is [0, 1); keep strictly inside

    mus, w = _mixture(params)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = _invert(mus, w, params.gamma, u)    # ln(x - alpha) until the exp
        y_max = float(x.max(initial=-np.inf))
        np.exp(x, out=x)
        x += params.alpha
    if np.isinf(x).any():
        raise FloatOverflowError(
            f"draws overflow a float (ln(x - alpha) up to {y_max:.3f})", y_max)
    # as quantile: inside the open support, the smallest float above alpha at least
    return np.maximum(x, math.nextafter(params.alpha, math.inf), out=x)


def _overflow_check(value, log_value, what):
    """`value` as a float if finite; else MomentOverflowError carrying `log_value`."""
    value, log_value = float(value), float(log_value)
    if math.isfinite(value):
        return value
    raise MomentOverflowError(f"{what} overflows a float (log value {log_value:.3f})", log_value)


def summary(params):
    """First four moments (central form), mode, and median in one record.

    Central moments are shift-invariant, so they are those of e^Y, where
    Y = ln(X - alpha) is the normal mixture with weights w_i, means mu_i and
    sd gamma; alpha enters only the mean. With E = expm1(gamma^2), the
    component means of e^Y scaled by e^-s (s = log E[e^Y]), m_i, and
    d_i = m_i - sum_j w_j m_j, the component central moments are
    v_i = m_i^2 E, c3_i = m_i^3 E^2 (E + 3) and
    c4_i = m_i^4 E^2 (E^4 + 6E^3 + 15E^2 + 16E + 3), and the mixture law gives
        mu2 = sum w (v + d^2)
        mu3 = sum w (c3 + 3 d v + d^3)
        mu4 = sum w (c4 + 4 d c3 + 6 d^2 v + d^4),
    each formed divided by a power of E, so nothing cancels, and each
    w m^a d^b in log space, so no power overflows on its own. A figure past
    the float range raises MomentOverflowError carrying its log value.
    """
    mus, w = _mixture(params)
    g2 = params.gamma * params.gamma
    e = math.expm1(g2) if g2 < _LOG_FLOAT_MAX else math.inf
    log_e = g2 + math.log(-math.expm1(-g2))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_w = np.log(w)
        x = mus + 0.5 * g2                  # log means of the components of e^Y
        s = float(w @ x)
        x -= s
        dm = np.expm1(x)
        # s to log E[e^Y]; expm1 keeps the digits when the means are close
        shift = (math.log1p(float(w @ dm)) if np.isfinite(dm).all()
                 else float(np.logaddexp.reduce(log_w + x)))
        s += shift
        x -= shift                          # log m_i
        dm = np.expm1(x)                    # m_i - 1
        d = dm - w @ dm
        log_d, sign_d = np.log(np.abs(d)), np.sign(d)

        def term(a, b):
            """sum w m^a d^b, a numpy scalar: no exception past the float range"""
            if b == 0:
                return np.exp(log_w + a * x).sum()
            return (sign_d ** b * np.exp(log_w + a * x + b * log_d)).sum()

        poly = (((e + 6.0) * e + 15.0) * e + 16.0) * e + 3.0
        m2, m3, m4 = term(2, 0), term(3, 0), term(4, 0)
        s2 = m2 + term(0, 2) / e                                        # mu2 / E
        s3 = (e + 3.0) * m3 + 3.0 * term(2, 1) / e + term(0, 3) / e / e  # mu3 / E^2
        s4 = (poly * m4 + 4.0 * (e + 3.0) * term(3, 1)                  # mu4 / E^2
              + 6.0 * term(2, 2) / e + term(0, 4) / e / e)
        skew = s3 * np.sqrt(e) / s2 ** 1.5
        kurt = s4 / s2 ** 2
        log_s2 = np.log(s2)
        log_excess = s + np.log1p(w @ dm)       # log E[e^Y] = log(mean - alpha)
        log_mean = np.logaddexp(np.log(params.alpha), log_excess)
        log_var = log_s2 + log_e + 2.0 * s
        # past the float range only the leading terms count: E^(3/2) m^3 and E^4 m^4
        log_poly = (4.0 * log_e + np.log1p((6.0 + (15.0 + (16.0 + 3.0 / e) / e) / e) / e)
                    if e > 1.0 else np.log(poly))
        log_skew = np.log(m3) + 1.5 * (log_e - log_s2)
        log_kurt = np.log(m4) + log_poly - 2.0 * log_s2
        mean = params.alpha + np.exp(log_excess)
        var = np.exp(log_var)
    mean = _overflow_check(mean, log_mean, "mean")
    var = _overflow_check(var, log_var, "variance")
    skew = _overflow_check(skew, log_skew, "skewness")
    kurt = _overflow_check(kurt, log_kurt, "kurtosis")
    return DistributionSummary(
        mean=mean,
        variance=var,
        skewness=skew,
        kurtosis=kurt,
        mode=mode(params),
        median=quantile(params, 0.5),
    )
