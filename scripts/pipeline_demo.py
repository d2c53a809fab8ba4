#!/usr/bin/env python3
"""Moment pipeline walkthrough: how the weight picks the recovery box.

A point mass at x = 2 has moments 2^k.  Against the weight r = 2 the dual
sup stays at 1 (the summability hypothesis holds) and the measure comes back
on [-2, 2], read off the flat moment matrix; against r = 1 the sup doubles
with every degree, the flat atom lies outside [-1, 1], and the grid solve
there cannot reproduce the moments.
"""

from momentcone import (
    AtomicMeasure,
    WeightSpec,
    box_from_weight,
    dual_norm_profile,
    increments_growing,
    is_psd_functional,
    moments_of_measure,
    recover_measure,
)


def run(weight: WeightSpec, grid: int) -> None:
    mu = AtomicMeasure(((2.0,),), (1.0,))
    s = moments_of_measure(mu, 6)
    box = box_from_weight(weight)
    profile = dual_norm_profile(s, weight)
    growing = increments_growing(profile)
    psd = is_psd_functional(s, 3)
    recovery = recover_measure(s, box, grid)
    print(f"weight r={weight.r[0]:g}, box [{box.lower[0]:g}, {box.upper[0]:g}]")
    print(f"  dual-norm profile by degree: {[round(v, 6) for v in profile]}")
    print(f"  hypothesis growing: {growing}, psd: {psd}")
    print(
        f"  recovery: success={recovery.success} method={recovery.method} "
        f"residual={recovery.residual:.3g} atoms={recovery.measure.atoms}"
    )


def main() -> None:
    run(WeightSpec(1, (2.0,)), grid=81)
    run(WeightSpec(1, (1.0,)), grid=101)


if __name__ == "__main__":
    main()
