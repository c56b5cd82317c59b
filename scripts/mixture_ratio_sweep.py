#!/usr/bin/env python3
"""Entropy-ratio and KL bounds of the geometric product mixture.

Sweeps the geometric parameter theta at a fixed large n and tabulates the
union/base entropy-ratio bound (converging to H(2u-u^2)/H(u) from below as
theta shrinks) next to the n-independent KL bound (which grows like
-log theta)."""

import argparse
import sys

from uclab.counterexample import (
    CounterexampleParams,
    kl_upper_bound,
    marginal_inclusion,
    ratio_bound,
)
from uclab.reportio import format_float
from uclab.scalars import binary_entropy, union_prob


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ubar", type=float, default=0.2)
    ap.add_argument("--n", type=int, default=10**6)
    ap.add_argument("--thetas", type=float, nargs="+",
                    default=[0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.001])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    limit = binary_entropy(union_prob(args.ubar, args.ubar)) / binary_entropy(args.ubar)
    fh = open(args.out, "w") if args.out else sys.stdout
    print("theta,marginal,ratio_bound,ratio_limit,kl_bound", file=fh)
    for theta in args.thetas:
        p = CounterexampleParams.with_defaults(
            ubar=args.ubar, u=0.9, d=2.0 * limit, theta=theta, n=args.n
        )
        values = (theta, marginal_inclusion(p), ratio_bound(p), limit, kl_upper_bound(p))
        print(",".join(format_float(v) for v in values), file=fh)
    if args.out:
        fh.close()


if __name__ == "__main__":
    main()
