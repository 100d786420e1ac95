#!/usr/bin/env python3
"""Run the two parameter-recovery studies at n = 1,000 and n = 10,000.

Study I draws from (alpha=1, k=2, gamma=1), study II from
(alpha=2, k=4, gamma=0.5); each fit scans k = 0..6 and the selected
model should recover the generating k at the larger sample size.
Each study prints the `gels simulate` text report.
"""

import argparse
import time

from gels.cli import main as cli_main


def show(study, n, seed):
    t0 = time.time()
    rc = cli_main(["simulate", "--study", study, "--n", str(n), "--seed", str(seed)])
    assert rc == 0, f"simulate failed for study {study} at n={n}"
    print(f"\n[study {study}, n={n}: {time.time() - t0:.1f}s]\n")


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
