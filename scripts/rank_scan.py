#!/usr/bin/env python3
"""Accessibility rank across bent configurations.

At straight shapes the bracket-generated span is four dimensional no
matter how deep the brackets go: the fifth singular value sits at
finite-difference noise while the fourth stays order one.  Bending the
swimmer opens the fifth direction.  This script scans a grid of joint
angles at a fixed heading and prints the rank and the smallest singular
value at each point.

The heading only rotates the plane and the field, so ``lie_rank`` reads
the rank in the body frame and every line after the first is the same
at every ``--theta``.
"""
import argparse
import sys

import numpy as np

from magswim import SwimmerParams, lie_rank


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--theta", type=float, default=0.0)
    parser.add_argument("--alpha-max", type=float, default=0.6)
    parser.add_argument("--n", type=int, default=5,
                        help="grid points per joint angle")
    parser.add_argument("--depth", type=int, default=2, choices=(1, 2, 3))
    args = parser.parse_args(argv)

    params = SwimmerParams(1.0, (0.8, 0.5, 0.5), (2.0, 1.0, 1.0), 1.0, 1.0)
    grid = np.linspace(-args.alpha_max, args.alpha_max, args.n)

    print(f"theta = {args.theta}, bracket depth = {args.depth}")
    print(f"{'alpha2':>8s} {'alpha3':>8s} {'rank':>5s} {'sigma5':>12s} "
          f"{'sigma4/sigma5':>14s}")
    for a2 in grid:
        for a3 in grid:
            point = np.array([0.0, 0.0, args.theta, a2, a3])
            report = lie_rank(params, point, depth=args.depth)
            gap = ("inf" if not np.isfinite(report.gap_4_5)
                   else f"{report.gap_4_5:.3e}")
            print(f"{a2:8.3f} {a3:8.3f} {report.rank:5d} "
                  f"{report.singular_values[4]:12.3e} {gap:>14s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
