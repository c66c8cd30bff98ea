#!/usr/bin/env python3
"""Numerical certification of the proven inequalities.

Runs the curvature-per-area bound, the obstacle sub-problem, the Poincare
and interpolation inequalities, the tau band, and the boundary-term lemma
on constructed and random fields.
"""

import numpy as np

from wellscape import (BranchedSpec, BumpSpec, branched_seed,
                       estimate_interp_constant, lemma1_check, make_grid,
                       nucleation_bump, obstacle_min_1d, poincare_check,
                       proportional_band, random_admissible, wopper_check)
from wellscape.bounds import obstacle_qp_oracle
from wellscape.grid import field_from_function


def main():
    grid = make_grid(1.0, 256, 256)
    seed = branched_seed(BranchedSpec.from_epsilon(0.01, 1.0), grid)
    bump = nucleation_bump(BumpSpec(0.02, 0.05, 4.0, 1.0), make_grid(1.0, 512, 512))

    print("curvature per transformed area >= 4/(tau(1-tau)):")
    for name, fld in [("branched seed", seed), ("nucleation bump", bump)]:
        rep = lemma1_check(fld)
        print(f"  {name:16s} lhs={rep.lhs:10.1f} rhs={rep.rhs:8.1f} holds={rep.holds}")

    print("\n1D obstacle sub-problem (analytic 4/(y2-y1) vs 512-node QP):")
    for y1, y2 in [(0.0, 1.0), (0.0, 0.5), (0.2, 0.9)]:
        qp, _, _ = obstacle_qp_oracle(y1, y2, 512)
        print(f"  ({y1},{y2}): {obstacle_min_1d(y1, y2):8.4f} vs {qp:8.4f}")

    print("\nPoincare inequality, extremal profile sin(pi x / 2L):")
    u = field_from_function(grid, lambda X, Y: np.sin(np.pi * X / 2))
    rep = poincare_check(u)
    print(f"  lhs={rep.lhs:.6f} rhs={rep.rhs:.6f} (near equality)")

    y = np.arange(2048) / 2048.0
    modes = [np.sin(2 * np.pi * n * y) for n in range(1, 9)]
    c14 = estimate_interp_constant(modes)
    print(f"\ninterpolation constant over pure modes: {c14:.5f} (each mode gives 2)")

    lo, hi = proportional_band(0.1, 0.16)
    print(f"\ntau band at eps=0.1, delta=16 eps^2: [{lo:.3f}, {hi:.3f}]")

    rng = np.random.default_rng(0)
    rep = wopper_check(random_admissible(grid, rng, amplitude=2.0), epsilon=0.05)
    print(f"boundary-term lemma on a random field: {rep.context}, holds={rep.holds}")


if __name__ == "__main__":
    main()
