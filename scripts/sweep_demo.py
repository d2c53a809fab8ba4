#!/usr/bin/env python3
"""Certified-SOS approximation sweeps at shrinking perturbation size.

Runs the box approximation for a polynomial that vanishes on the box
boundary and for one that is already a square, printing the distance table
per eps.  Distances shrink linearly with eps while the depth stays put.
"""

import argparse

from momentcone import Polynomial, WeightSpec, convergence_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dmax", type=int, default=3, help="largest perturbation depth")
    parser.add_argument(
        "--eps", default="1,0.5,0.25", help="comma-separated decreasing schedule"
    )
    args = parser.parse_args()
    schedule = [float(v) for v in args.eps.split(",")]

    cases = {
        "1 - X^2 on [-1, 1]": Polynomial(1, {(0,): 1.0, (2,): -1.0}),
        "X^2 on [-1, 1]": Polynomial.monomial((2,)),
    }
    weight = WeightSpec(1, (1.0,))
    for name, poly in cases.items():
        print(f"== {name}, l1 norm, eps schedule {schedule}")
        for result in convergence_sweep(poly, weight, schedule, args.dmax):
            label = f"D={result.depth}" if result.success else result.reason
            status = "ok" if result.success else result.reason
            print(
                f"  eps={result.eps:<6g} {label:<14} "
                f"distance={result.distance:<12.6g} [{status}]"
            )


if __name__ == "__main__":
    main()
