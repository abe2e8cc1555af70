#!/usr/bin/env python3
"""Tabulate the asymptotic variance (two routes) and bias constants.

Prints sigma2 by the Monte Carlo k*var route and the quadrature route for a
gamma grid, and the bias constant B_K over a rho grid, as key=value lines.
"""

import argparse
import sys

from xustat import asymptotics, dist, harness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gammas", type=harness.parse_params, default="-0.5,-0.25,0,0.25,0.5")
    parser.add_argument("--rhos", type=harness.parse_params, default="-2,-1,-0.5,-0.25")
    parser.add_argument("--bias-gamma", type=float, default=0.5)
    parser.add_argument("--n", type=int, default=4000)
    parser.add_argument("--m", type=int, default=40)
    parser.add_argument("--reps", type=int, default=500)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=20260809)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("argument --seed: must be >= 0")

    for gi, gamma in enumerate(args.gammas):
        kvar = asymptotics.sigma2_kvar_mc(
            gamma, args.n, args.m, args.reps, dist.RngStream(args.seed, gi)
        )
        integ = asymptotics.sigma2_integral_mc(
            gamma, rng=dist.RngStream(args.seed, gi, (1,))
        )
        print(
            f"gamma={gamma:g} sigma2_kvar={kvar.sigma2!r} kvar_stderr={kvar.stderr!r} "
            f"sigma2_integral={integ.sigma2!r} integral_stderr={integ.stderr!r}"
        )
    for ri, rho in enumerate(args.rhos):
        bk = asymptotics.bias_bk_mc(
            args.bias_gamma, rho, 200_000, dist.RngStream(args.seed, ri, (2,))
        )
        print(f"gamma={args.bias_gamma:g} rho={rho:g} b_k={bk.b_k!r} stderr={bk.stderr!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
