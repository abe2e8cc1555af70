"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 failed self-check.
stdout is machine-parseable key=value lines; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import List, Optional

import numpy as np

from . import asymptotics, dist, harness, ustat
from .core import (
    PICKANDS_KERNEL,
    TailInferenceError,
    read_sample_file,
    sort_sample,
)

DEFAULT_SEED = 0x5EED_0000_0000_0001

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; this package's contract is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliUsageError(message)


def _seed(text: str) -> int:
    """The ``--seed`` type: an integer literal in any base ``int(text, 0)``
    reads; RNG streams take no negative seed."""
    seed = int(text, 0)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return seed


def _cmd_estimate(args) -> int:
    if args.boot_reps is not None:
        return _cmd_bootstrap(args)
    if args.m < 3:
        raise CliUsageError("--m must be at least 3")
    gamma_hat = ustat.pickands_ustat(read_sample_file(args.input), args.m)
    print(f"gamma_hat={gamma_hat!r}")
    return EXIT_OK


def _cmd_weights(args) -> int:
    if args.m < 3 or args.n < args.m:
        raise CliUsageError("need 3 <= m <= n")
    weights = ustat.pickands_weights(args.n, args.m)
    lines = [f"w[{j}]={float(w)!r}" for j, w in zip(weights.j, weights.w)]
    lines.append(f"zero_sum_residual={weights.zero_sum_residual()!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise TailInferenceError(f"cannot write {args.out}: {exc}") from exc
        print(f"out={args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    try:
        config = harness.load_config(args.config)
        if args.threads is not None:
            config = replace(config, threads=args.threads)
    except OSError as exc:
        raise TailInferenceError(f"cannot read config: {exc}") from exc
    except ValueError as exc:
        raise CliUsageError(f"bad config: {exc}") from exc
    try:
        path = harness.run_to_csv(config, per_rep=args.per_rep)
    except OSError as exc:
        raise TailInferenceError(f"cannot write output: {exc}") from exc
    print(f"out={path}")
    print(f"experiment={config.experiment}")
    print(f"reps={config.reps}")
    return EXIT_OK


def _cmd_variance_table(args) -> int:
    if not args.gammas:
        raise CliUsageError("--gammas must list at least one value")
    if args.m < 3 or args.m > args.n:
        raise CliUsageError("need 3 <= m <= n")
    if args.reps < 100:
        raise CliUsageError("--reps must be at least 100")
    for gi, gamma in enumerate(args.gammas):
        est = asymptotics.sigma2_kvar_mc(
            gamma, args.n, args.m, args.reps, dist.RngStream(args.seed, gi)
        )
        print(
            f"gamma={gamma!r} sigma2={est.sigma2!r} stderr={est.stderr!r} "
            f"gpml_norm={(1.0 + gamma) ** 2 / 3.0!r}"
        )
    return EXIT_OK


def _cmd_bias(args) -> int:
    if not args.rhos:
        raise CliUsageError("--rhos must list at least one value")
    if not math.isfinite(args.gamma):
        raise CliUsageError("--gamma must be finite")
    if any(r >= 0 for r in args.rhos):
        raise CliUsageError("every rho must be negative")
    if args.reps < 10_000:
        raise CliUsageError("--reps must be at least 10000")
    for ri, rho in enumerate(args.rhos):
        est = asymptotics.bias_bk_mc(
            args.gamma, rho, args.reps, dist.RngStream(args.seed, ri)
        )
        print(f"rho={rho!r} b_k={est.b_k!r} stderr={est.stderr!r}")
    return EXIT_OK


def _cmd_bootstrap(args) -> int:
    """``bootstrap --boot-reps B`` and ``estimate --bootstrap B``: every flag is
    checked before the file is read, and ``estimate`` prints ``dropped=`` only
    when it is nonzero."""
    flag = "--boot-reps" if args.command == "bootstrap" else "--bootstrap"
    if args.m < 3:
        raise CliUsageError("--m must be at least 3")
    if args.boot_reps < 200:
        raise CliUsageError(f"{flag} must be at least 200")
    if not 0.0 < args.level < 1.0:
        raise CliUsageError("--level must lie in (0, 1)")
    sample = read_sample_file(args.input)
    out = asymptotics.parametric_bootstrap(
        sample, args.m, args.boot_reps, args.level, dist.RngStream(args.seed)
    )
    print(f"gamma_hat={out.gamma_hat!r}")
    print(f"ci=[{out.ci_low!r},{out.ci_high!r}]")
    print(f"stderr={out.stderr!r}")
    if out.dropped or args.command == "bootstrap":
        print(f"dropped={out.dropped}")
    return EXIT_OK


def _oracle_checks(seed: int, inject_error: bool):
    """Cross-validation suite: fast formulas against oracles and identities."""
    rng = dist.RngStream(seed, 0).generator()
    checks = []

    bad = 0.0
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(6, 13))
        m = int(rng.integers(3, 7))
        m = min(m, n)
        sample = sort_sample(rng.random(n) * 10.0)
        brute = ustat.brute_force_ustat(sample, m, PICKANDS_KERNEL)
        fast = ustat.pickands_ustat(sample, m)
        generic = ustat.topq_weighted_ustat(sample, m, PICKANDS_KERNEL)
        if inject_error:
            fast += 1e-6
        worst = max(
            worst,
            abs(fast - brute) / (1.0 + abs(brute)),
            abs(generic - brute) / (1.0 + abs(brute)),
        )
    checks.append(("brute_vs_fast_vs_generic", worst <= 1e-10, worst))

    residual = 0.0
    for n, m in ((10, 3), (100, 10), (10_000, 100), (10_000, 3)):
        residual = max(residual, abs(ustat.pickands_weights(n, m).zero_sum_residual()))
    checks.append(("weight_zero_sum", residual <= 1e-8, residual))

    pmf_err = 0.0
    for n, m in ((10, 4), (100, 10), (500, 100)):
        pmf = ustat.overlap_pmf(n, m)
        pmf_err = max(
            pmf_err,
            abs(float(pmf.p.sum()) - 1.0),
            abs(pmf.mean() - m * m / n) / (m * m / n),
        )
    checks.append(("hypergeometric_pmf", pmf_err <= 1e-10, pmf_err))

    ident = 0.0
    for gamma in np.linspace(-1.0, 1.0, 41):
        mom = asymptotics.digamma_moments(float(gamma))
        ident = max(ident, abs(mom.kernel_mean - float(gamma)))
    checks.append(("digamma_kernel_mean", ident <= 1e-10, ident))

    return checks


def _cmd_oracle_check(args) -> int:
    checks = _oracle_checks(args.seed, args.inject_error)
    all_ok = True
    for name, ok, value in checks:
        print(f"{name}={'pass' if ok else 'fail'}")
        print(f"{name}.worst={value!r}", file=sys.stderr)
        all_ok = all_ok and ok
    print(f"result={'pass' if all_ok else 'fail'}")
    return EXIT_OK if all_ok else EXIT_CHECK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="xustat",
        description="Tail inference with extreme U-statistics: estimation, "
        "simulation experiments, and numeric self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("estimate", help="estimate gamma from a sample file")
    p.add_argument("--input", required=True, help="sample file, one number per line")
    p.add_argument("--m", type=int, required=True, help="block size (>= 3)")
    p.add_argument("--bootstrap", dest="boot_reps", type=int, default=None, metavar="B",
                   help="bootstrap replications for a CI (>= 200)")
    p.add_argument("--level", type=float, default=0.95, help="CI level (default 0.95)")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                   help="master seed (default fixed constant)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("weights", help="print the order-statistic weights")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", default=None, help="write to file instead of stdout")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("simulate", help="run a simulation experiment from a config file")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--per-rep", action="store_true",
                   help="also write per-replication rows")
    p.add_argument("--threads", type=int, default=None,
                   help="override the config thread count")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("variance-table", help="asymptotic variance over a gamma grid")
    p.add_argument("--gammas", type=harness.parse_params, required=True,
                   help="comma-separated gamma values")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_variance_table)

    p = sub.add_parser("bias", help="asymptotic bias constant over a rho grid")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--rhos", type=harness.parse_params, required=True,
                   help="comma-separated negative rho values")
    p.add_argument("--reps", type=int, default=200_000)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_bias)

    p = sub.add_parser("bootstrap", help="parametric bootstrap CI for a sample file")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--boot-reps", type=int, default=200)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("oracle-check", help="run the numeric self-check suite")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--inject-error", action="store_true",
                   help="perturb the fast formula to demonstrate failure detection")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TailInferenceError, MemoryError, BrokenProcessPool) as exc:
        # the (rows x n) temporaries of a large run, or a worker killed mid-run
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
