"""Monte Carlo parameter-recovery studies.

Draw GEL-S samples at known parameters, refit over a k grid, and report
how well the truth is recovered: the per-k estimate table, the selected
k, 95% Wald intervals, and (for multi-replication runs) coverage
fractions. Everything is a pure function of the config, including the
per-replication sub-seeds, so a report can always be regenerated
byte-for-byte.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distribution import GelSParams, sample
from .estimation import (Dataset, FitError, UncertaintyUnavailableError,
                         confidence_intervals, fit)

STUDY_PARAMS = {
    "I": GelSParams(alpha=1.0, k=2, gamma=1.0),
    "II": GelSParams(alpha=2.0, k=4, gamma=0.5),
}


@dataclass(frozen=True)
class StudyConfig:
    true_params: GelSParams
    n: int
    k_grid: tuple
    seed: int
    replications: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        k_min, k_max = self.k_grid
        if k_min < 0 or k_max < k_min:
            raise ValueError(f"bad k grid {self.k_grid}")
        if self.replications < 1:
            raise ValueError("need at least one replication")


@dataclass(frozen=True)
class ReplicationOutcome:
    seed: int
    converged: bool
    selected_k: int
    alpha_hat: float
    gamma_hat: float
    loglik: float
    alpha_ci: Optional[tuple]
    gamma_ci: Optional[tuple]
    k_recovered: bool
    alpha_covered: bool
    gamma_covered: bool


@dataclass(frozen=True)
class StudyReport:
    """Recovery report; `per_k` and the CI fields mirror the first replication."""

    config: StudyConfig
    per_k: list
    selected_k: int
    alpha_ci: Optional[tuple]
    gamma_ci: Optional[tuple]
    k_recovered: bool
    alpha_covered: bool
    gamma_covered: bool
    replications: list
    coverage_alpha: float
    coverage_gamma: float
    k_counts: dict


def _failed_outcome(seed):
    return ReplicationOutcome(seed=int(seed), converged=False, selected_k=-1,
                              alpha_hat=math.nan, gamma_hat=math.nan,
                              loglik=math.nan, alpha_ci=None, gamma_ci=None,
                              k_recovered=False, alpha_covered=False,
                              gamma_covered=False)


def _run_replication(config, seed):
    truth = config.true_params
    values = sample(truth, config.n, seed)
    data = Dataset(values=values, name="simulated")
    try:
        trace = fit(data, config.k_grid[0], config.k_grid[1])
    except FitError:
        return _failed_outcome(seed), None
    sel = trace.selected
    alpha_ci = gamma_ci = None
    alpha_cov = gamma_cov = False
    try:
        ci = confidence_intervals(sel, level=0.95)
        alpha_ci, gamma_ci = ci.alpha_ci, ci.gamma_ci
        alpha_cov = alpha_ci[0] <= truth.alpha <= alpha_ci[1]
        gamma_cov = gamma_ci[0] <= truth.gamma <= gamma_ci[1]
    except UncertaintyUnavailableError:
        pass
    outcome = ReplicationOutcome(
        seed=int(seed), converged=True, selected_k=sel.k,
        alpha_hat=sel.alpha_hat, gamma_hat=sel.gamma_hat, loglik=sel.loglik,
        alpha_ci=alpha_ci, gamma_ci=gamma_ci,
        k_recovered=sel.k == truth.k,
        alpha_covered=bool(alpha_cov), gamma_covered=bool(gamma_cov),
    )
    return outcome, trace


def run_study(config, workers=1):
    """Run the study described by `config`.

    Sub-seeds are spawned deterministically from the master seed, one per
    replication, and the replications run one after another. `workers` is
    accepted and ignored: the replications hold the GIL between short numpy
    calls, so a thread pool only added hand-off cost, and a process pool can
    only add CPU time. A replication whose fit fails outright is recorded
    as non-converged and the study continues.
    """
    seeds = np.random.SeedSequence(config.seed).generate_state(
        config.replications, dtype=np.uint64)
    results = [_run_replication(config, s) for s in seeds]

    outcomes = [r[0] for r in results]
    first_trace = results[0][1]
    per_k = first_trace.per_k if first_trace is not None else []
    first = outcomes[0]

    with_ci = [o for o in outcomes if o.alpha_ci is not None]
    cov_a = (sum(o.alpha_covered for o in with_ci) / len(with_ci)
             if with_ci else math.nan)
    cov_g = (sum(o.gamma_covered for o in with_ci) / len(with_ci)
             if with_ci else math.nan)
    k_counts = {}
    for o in outcomes:
        k_counts[o.selected_k] = k_counts.get(o.selected_k, 0) + 1
    k_counts = dict(sorted(k_counts.items()))

    return StudyReport(
        config=config, per_k=per_k, selected_k=first.selected_k,
        alpha_ci=first.alpha_ci, gamma_ci=first.gamma_ci,
        k_recovered=first.k_recovered, alpha_covered=first.alpha_covered,
        gamma_covered=first.gamma_covered, replications=outcomes,
        coverage_alpha=cov_a, coverage_gamma=cov_g, k_counts=k_counts,
    )
