#!/usr/bin/env python3
"""Run the two parameter-recovery studies at n = 1,000 and n = 10,000.

Study I draws from (alpha=1, k=2, gamma=1), study II from
(alpha=2, k=4, gamma=0.5); each fit scans k = 0..6 and the selected
model should recover the generating k at the larger sample size.
"""

import argparse
import time

from gels.simulation import STUDY_PARAMS, StudyConfig, run_study


def show(study, n, seed):
    truth = STUDY_PARAMS[study]
    config = StudyConfig(true_params=truth, n=n, k_grid=(0, 6), seed=seed)
    t0 = time.time()
    report = run_study(config)
    dt = time.time() - t0

    print(f"study {study}  truth=(alpha={truth.alpha:g}, k={truth.k}, "
          f"gamma={truth.gamma:g})  n={n}  seed={seed}  [{dt:.1f}s]")
    print(f"  {'k':>3} {'alpha_hat':>10} {'gamma_hat':>10} {'loglik':>14}")
    for r in report.per_k:
        mark = " *" if r.k == report.selected_k else ""
        print(f"  {r.k:>3} {r.alpha_hat:>10.4f} {r.gamma_hat:>10.4f} "
              f"{r.loglik:>14.3f}{mark}")
    print(f"  selected k = {report.selected_k}  "
          f"recovered = {report.k_recovered}")
    if report.alpha_ci:
        print(f"  95% CI alpha [{report.alpha_ci[0]:.4f}, {report.alpha_ci[1]:.4f}]"
              f"  covers = {report.alpha_covered}")
    if report.gamma_ci:
        print(f"  95% CI gamma [{report.gamma_ci[0]:.4f}, {report.gamma_ci[1]:.4f}]"
              f"  covers = {report.gamma_covered}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=20260814)
    ap.add_argument("--sizes", default="1000,10000",
                    help="comma-separated sample sizes")
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    for study in ("I", "II"):
        for n in sizes:
            show(study, n, args.seed)


if __name__ == "__main__":
    main()
