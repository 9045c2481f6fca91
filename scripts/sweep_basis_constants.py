#!/usr/bin/env python3
"""Sweep partial-sum projection norms over a (bias, exponent) grid.

Writes one CSV per grid cell into --outdir: exact values at p = 2, ascent
estimates elsewhere.
"""

import argparse
import pathlib
import sys

from walshlab.cli import run_command


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--level", type=int, default=2)
    ap.add_argument("--alphas", type=float, nargs="+", default=[0.5, 0.3, 0.1])
    ap.add_argument("--ps", type=float, nargs="+", default=[2.0, 1.5, 3.0])
    ap.add_argument("--side", choices=("left", "right"), default="left")
    ap.add_argument("--restarts", type=int, default=32)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default="out/basis_constants")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for alpha in args.alphas:
        for p in args.ps:
            method = "exact2" if p == 2 else "estimate"
            out = outdir / f"basis_m{args.level}_a{alpha}_p{p}_{method}.csv"
            argv = [
                "basis-constants",
                "--level", str(args.level),
                "--alpha", str(alpha),
                "--p", str(p),
                "--method", method,
                "--side", args.side,
                "--restarts", str(args.restarts),
                "--seed", str(args.seed),
                "--out", str(out),
            ]
            print("::", " ".join(argv))
            code = run_command(argv)
            if code != 0:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
