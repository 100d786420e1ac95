"""Small dense unconstrained minimizer.

Newton iteration with backtracking line search, on exact derivatives when
the caller has them (the GEL-S fits) and on finite-difference stencils
otherwise (the competitor fits). Objectives may return +inf to mark
infeasible points: such steps are simply rejected by the line search, so
the accepted iterates always carry finite, strictly decreasing function
values. This is all the likelihood fits need (2 parameters, smooth
interior, hard barrier at the support boundary).
"""

import math
from dataclasses import dataclass
from operator import mul

import numpy as np


class StencilError(RuntimeError):
    """A finite-difference stencil point produced a non-finite value."""

    def __init__(self, message, point):
        super().__init__(message)
        self.point = point


@dataclass(frozen=True)
class MinimizeResult:
    x_min: np.ndarray
    f_min: float
    gradient_norm: float
    hessian: np.ndarray
    iterations: int
    converged: bool


def numerical_gradient(f, x, h_rel=1e-5):
    """Central-difference gradient with per-coordinate step h_rel*max(1,|x_j|)."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for j in range(x.size):
        h = h_rel * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        fp, fm = f(xp), f(xm)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise StencilError("non-finite objective in gradient stencil",
                               xp if not math.isfinite(fp) else xm)
        g[j] = (fp - fm) / (2.0 * h)
    return g


def numerical_hessian(f, x, h_rel=1e-4):
    """Symmetrized central-difference Hessian, step h_rel*max(1,|x_j|)."""
    x = np.asarray(x, dtype=float)
    d = x.size
    h = np.array([h_rel * max(1.0, abs(x[j])) for j in range(d)])
    f0 = f(x)
    if not math.isfinite(f0):
        raise StencilError("non-finite objective at expansion point", x)
    H = np.empty((d, d))
    for j in range(d):
        xp, xm = x.copy(), x.copy()
        xp[j] += h[j]
        xm[j] -= h[j]
        fp, fm = f(xp), f(xm)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise StencilError("non-finite objective in Hessian stencil",
                               xp if not math.isfinite(fp) else xm)
        H[j, j] = (fp - 2.0 * f0 + fm) / h[j] ** 2
        for l in range(j + 1, d):
            vals = []
            for sj, sl in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                xx = x.copy()
                xx[j] += sj * h[j]
                xx[l] += sl * h[l]
                v = f(xx)
                if not math.isfinite(v):
                    raise StencilError("non-finite objective in Hessian stencil", xx)
                vals.append(v)
            H[j, l] = H[l, j] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4.0 * h[j] * h[l])
    return 0.5 * (H + H.T)


def _descent_direction(H, g):
    """Solve H p = -g by a plain-float Cholesky factor, loading the
    diagonal until H is positive definite; H and g are float sequences."""
    d = len(g)
    scale = max(max(abs(H[i][i]) for i in range(d)), 1e-12)
    tau = 0.0
    for _ in range(40):
        L = []  # rows of the Cholesky factor of H + tau I
        for i in range(d):
            row = []
            for j in range(i):
                row.append((H[i][j] - sum(map(mul, row, L[j]))) / L[j][j])
            s = H[i][i] + tau - sum(map(mul, row, row))
            if not s > 0.0:
                break  # not positive definite (or NaN)
            L.append(row + [math.sqrt(s)])
        else:
            p = []  # L y = -g, then L^T p = y, both in p
            for i in range(d):
                p.append((-g[i] - sum(map(mul, L[i], p))) / L[i][i])
            for i in reversed(range(d)):
                p[i] = (p[i] - sum(L[m][i] * p[m] for m in range(i + 1, d))) / L[i][i]
            if sum(map(mul, p, g)) < 0.0:
                return p
        tau = max(2.0 * tau, 1e-8 * scale)
    return [-v for v in g]  # steepest descent as last resort


def minimize(objective, x0, gtol=None, step_tol=1e-12, max_iter=500,
             grad_h_rel=1e-5, hess_h_rel=1e-4, derivatives=None):
    """Minimize a smooth function of a few variables from a feasible start.

    `derivatives(x)`, when given, returns the exact (gradient, Hessian) at
    a feasible x as float sequences (x itself is a numpy array); otherwise
    both come from finite-difference stencils. gtol defaults to
    1e-8 * max(1, |f(x0)|), which scales sensibly for log-likelihoods of
    any sample size. Gradient stencils that poke into the infeasible region
    are retried with a 10x smaller step before giving up on that iteration;
    a Hessian stencil that does is replaced by the identity (step -g).
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = objective(x)
    if not math.isfinite(fx):
        raise ValueError(f"objective not finite at starting point {x0}")
    if gtol is None:
        gtol = 1e-8 * max(1.0, abs(fx))
    if derivatives is None:
        def derivatives(x):
            g = _gradient_with_retry(objective, x, grad_h_rel)
            if g is None or math.hypot(*g) <= gtol:
                return g, None  # no step follows: skip the Hessian
            try:
                return g, numerical_hessian(objective, x, hess_h_rel)
            except StencilError:
                return g, None

    g, H = derivatives(x)
    iterations = 0
    flat = False
    while iterations < max_iter and g is not None and math.hypot(*g) > gtol:
        iterations += 1
        p = [-v for v in g] if H is None else _descent_direction(H, g)
        slope = sum(map(mul, p, g))
        # The step would lower f by about -slope / 2: once that is below
        # what f resolves, no line search can confirm it, and x is a
        # minimum to working precision.
        flat = -slope <= 1e-13 * max(1.0, abs(fx))
        if flat:
            break

        # Backtracking Armijo search; +inf trial values just keep shrinking.
        t = 1.0
        accepted = False
        while t >= 1e-14:
            x_new = x + t * np.array(p)
            f_new = objective(x_new)
            if math.isfinite(f_new) and f_new <= fx + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        x, fx = x_new, f_new
        g, H = derivatives(x)
        if t * math.hypot(*p) <= step_tol * max(1.0, math.hypot(*x.tolist())):
            break

    gnorm = math.inf if g is None else math.hypot(*g)
    if H is None:
        try:
            H = numerical_hessian(objective, x, hess_h_rel)
        except StencilError:
            H = np.full((x.size, x.size), np.nan)
    return MinimizeResult(
        x_min=x,
        f_min=fx,
        gradient_norm=gnorm,
        hessian=np.array(H, dtype=float),
        iterations=iterations,
        converged=bool(gnorm <= gtol or flat),
    )


def _gradient_with_retry(f, x, h_rel):
    for attempt in range(3):
        try:
            return numerical_gradient(f, x, h_rel * 10.0**-attempt)
        except StencilError:
            continue
    return None
