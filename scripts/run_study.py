#!/usr/bin/env python3
"""Run the finite-sample study end to end and drop CSVs under results/.

Desk scale by default runs every configs/*.cfg; --scale full runs every
configs/full_scale/*.cfg (n = 10^4, study replication counts) and takes
correspondingly longer.  There is no full-scale BootstrapCoverage config.
"""

import argparse
import pathlib
import sys
import time

from xustat import harness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("desk", "full"), default="desk")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument(
        "--configs",
        default=None,
        help="comma list of config names under configs/ to run (default: all for the scale)",
    )
    args = parser.parse_args()

    configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
    scale_dir = configs if args.scale == "desk" else configs / "full_scale"
    names = [str(p.relative_to(configs)) for p in sorted(scale_dir.glob("*.cfg"))]
    if args.configs:
        names = [c.strip() for c in args.configs.split(",")]

    loaded = []  # every config is read before the first run starts
    for name in names:
        try:
            loaded.append((name, harness.load_config(str(configs / name))))
        except (OSError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    for name, config in loaded:
        if args.threads is not None:
            from dataclasses import replace

            config = replace(config, threads=args.threads)
        t0 = time.time()
        path = harness.run_to_csv(config)
        print(f"{name}: wrote {path} in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
