#!/usr/bin/env python3
"""How the certified mean-excess margin depends on the blending weight.

Runs the scanned-class delta search for a grid of alpha values and prints
one CSV row per alpha: the certified delta, the number of violating
measures found, and the worst slack seen.  Small alpha buys a small but
strictly positive margin; alpha near 1 breaks down entirely."""

import argparse
import sys

from uclab.coupling import delta_search
from uclab.reportio import format_float


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphas", type=float, nargs="+",
                    default=[0.01, 0.02, 0.05, 0.1, 0.2, 0.4])
    ap.add_argument("--delta-max", type=float, default=0.02)
    ap.add_argument("--delta-steps", type=int, default=200)
    ap.add_argument("--v-steps", type=int, default=64)
    ap.add_argument("--mean-steps", type=int, default=48)
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    fh = open(args.out, "w") if args.out else sys.stdout
    print("alpha,delta,violations,min_slack,failure_at_threshold", file=fh)
    for alpha in args.alphas:
        rep = delta_search(
            alpha,
            u_cap_steps=args.delta_steps,
            delta_max=args.delta_max,
            v_steps=args.v_steps,
            mean_steps=args.mean_steps,
            search_points=5,
            search_restarts=40,
            seed=args.seed,
        )
        print(
            f"{format_float(alpha)},{format_float(rep.delta)},{rep.violations},"
            f"{format_float(rep.min_slack)},{str(rep.failure_at_threshold).lower()}",
            file=fh,
        )
        print(f"alpha={alpha}: delta={rep.delta}", file=sys.stderr)
    if args.out:
        fh.close()


if __name__ == "__main__":
    main()
