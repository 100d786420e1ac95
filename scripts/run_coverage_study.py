#!/usr/bin/env python3
"""Wald confidence-interval coverage for gamma under repeated sampling.

Draws `--replications` datasets of size `--n` from the study-I triple
(alpha=1, k=2, gamma=1) with k held at the truth, fits each, and reports
the fraction of 95% intervals that contain the true values. The gamma
coverage should sit near the nominal 95%.
"""

import argparse
import time

from gels.simulation import STUDY_PARAMS, StudyConfig, run_study


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--replications", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20260814)
    ap.add_argument("--study", choices=("I", "II"), default="I")
    args = ap.parse_args()

    truth = STUDY_PARAMS[args.study]
    config = StudyConfig(true_params=truth, n=args.n,
                         k_grid=(truth.k, truth.k), seed=args.seed,
                         replications=args.replications)
    t0 = time.time()
    report = run_study(config)
    dt = time.time() - t0

    ok = [o for o in report.replications if o.converged]
    with_ci = [o for o in ok if o.gamma_ci is not None]
    print(f"study {args.study}: {args.replications} replications of n={args.n}, "
          f"k fixed at {truth.k}  [{dt:.1f}s]")
    print(f"  converged fits:       {len(ok)}/{args.replications}")
    print(f"  fits with intervals:  {len(with_ci)}/{args.replications}")
    print(f"  95% coverage, alpha:  {report.coverage_alpha:.3f}")
    print(f"  95% coverage, gamma:  {report.coverage_gamma:.3f}")


if __name__ == "__main__":
    main()
