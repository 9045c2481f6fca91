#!/usr/bin/env python3
"""Tabulate the partial-sum decomposition residual over a bias grid.

For each bias, probes every basis matrix at every truncation index and
records the worst weighted-L2 residual per (alpha, n, side).  In the
unbiased case the residual vanishes to machine precision; the table
quantifies the deviation elsewhere.
"""

import argparse
import pathlib
import sys

from walshlab.cli import fmt, write_csv
from walshlab.schauder import identity_residual
from walshlab.states import StateSpec
from walshlab.walsh import walsh_stack


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--level", type=int, default=2)
    ap.add_argument("--alphas", type=float, nargs="+", default=[0.5, 0.4, 0.3, 0.2, 0.1])
    ap.add_argument("--out", default="out/identity_residuals.csv")
    args = ap.parse_args()

    count = 4**args.level
    probes = walsh_stack(args.level)
    rows = []
    for alpha in args.alphas:
        spec = StateSpec(alpha, args.level)
        for n in range(count - 1):
            for side in ("left", "right"):
                _, norms = identity_residual(probes, n, spec, side)
                rows.append([n, 2.0, alpha, side, "exact-probe", float(norms[0].max()), True])
    rows.sort(key=lambda r: (r[0], r[2]))
    pathlib.Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_csv(args.out, "n,p,alpha,side,method,value,converged", rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    for row in rows:
        if row[5] > 1e-10:
            print(f"nonzero residual: n={row[0]} alpha={fmt(row[2])} side={row[3]} value={fmt(row[5])}")
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
