#!/usr/bin/env python3
"""Print the cross-family summary (global mass bound, reach, rate type,
reach-vs-threshold) for the shipped example specs at one or more dimensions,
and show how the global repulsion mass decays with n."""

import argparse
import math
import sys

from dpp_repulsion.asymptotics import nn_threshold, summary_table
from dpp_repulsion.examples import example_specs
from dpp_repulsion.repulsion import eta_total_log


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--decay-dims", default="2,10,50,200,400")
    args = ap.parse_args(argv)

    specs = example_specs(n=args.n)
    print(summary_table(specs).to_markdown())
    print(f"nearest-neighbor threshold at rho=0: {nn_threshold(0.0):.6f}\n")

    dims = [int(v) for v in args.decay_dims.split(",")]
    print("global repulsion mass E[eta_n(R^n)] by dimension:")
    header = "family".ljust(20) + "".join(f"n={n}".rjust(13) for n in dims)
    print(header)
    for spec in specs:
        cells = []
        for n in dims:
            val = math.exp(eta_total_log(spec.with_n(n)))
            cells.append(f"{val:13.3e}")
        print(spec.family.value.ljust(20) + "".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
