"""One-off calibration sweep for the unnamed constants of the inequalities.

The theory proves each inequality with *some* dimensionless constant and
never fixes a value.  This script estimates the interpolation constant
killerinterp_C over a fixed, seeded family of fields, and the Theorem 2
radii constants local_min_r_C and local_min_s_C over the branched seed at
x0.25 ... x4, with no descent, so that no change to descent moves them.  It
applies a safety factor of 3 toward the conservative side and writes the
frozen JSON that bounds.py reads.  Rerun with

    python -m wellscape.calibrate [out.json]

and commit the output; checks are regression tests against these values.
The delta_c search band is no inequality constant: landscape freezes it.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .constructions import BranchedSpec, PotentialSpec, branched_seed, potential_seed
from .bounds import killerinterp_sides, theorem2_bounds
from .energy import (EmptyB, EmptyPiM, EnergyParams, b_geometry,
                     column_uyy_integrals, energy, scale_to_uy_peak)
from .grid import ScalarField, _adopt, l2_norm, make_grid
from .landscape import _beats, random_admissible

SAFETY = 3.0


def _killerinterp_sweep() -> float:
    fields: list[ScalarField] = []
    for eps in (3e-3, 1e-2, 3e-2):
        grid = make_grid(1.0, 256, 512)
        fields.append(branched_seed(BranchedSpec.from_epsilon(eps, 1.0), grid))
    for j in (1, 2, 4):
        grid = make_grid(1.0, 256, 256)
        fields.append(potential_seed(PotentialSpec(j, 1.0), grid))
    rng = np.random.default_rng(7)
    grid = make_grid(1.0, 128, 128)
    # a field whose u_y vanishes has area(B) = 0 and is skipped below
    fields += [scale_to_uy_peak(random_admissible(grid, rng), 1.5) for _ in range(12)]

    best = math.inf
    for fld in fields:
        geom = b_geometry(fld)
        if geom.area_b <= 0:
            continue
        col = column_uyy_integrals(fld)
        for M in (1e30, 2.0 * float(col.max()) + 1.0,
                  2.0 * float(np.median(col[geom.pi_columns])) + 1e-12):
            try:
                lhs, base, _ = killerinterp_sides(fld, M)
            except (EmptyB, EmptyPiM):
                continue
            if base > 0:
                best = min(best, lhs / base)
    return best / SAFETY


def _local_min_constants() -> tuple[float, float]:
    # delta = 30 eps/L sits above the measured critical depth, so the branched
    # seed at x0.25 ... x4 holds energy-lowering states, and the least norm
    # and area among them floor the sweep; no candidate is descended
    eps, L = 0.05, 1.0
    delta = 30.0 * eps / L
    grid = make_grid(L, 128, 128)
    p = EnergyParams(eps, delta, 1)
    e0 = delta * L
    seed = branched_seed(BranchedSpec.from_epsilon(eps, L), grid)
    min_norm = math.inf
    min_area = math.inf
    for s in (0.25, 0.5, 1.0, 2.0, 4.0):
        fld = _adopt(seed, s * seed.values)
        if _beats(energy(fld, p).total, e0, eps):
            min_norm = min(min_norm, l2_norm(fld))
            area = b_geometry(fld).area_b
            if area > 0:
                min_area = min(min_area, area)
    if not math.isfinite(min_norm) or not math.isfinite(min_area):
        raise RuntimeError("calibration sweep found no energy-lowering state")
    r_scale, s_scale = theorem2_bounds(eps, delta, L)
    return min_norm / r_scale / SAFETY, min_area / s_scale / SAFETY


def calibrate() -> dict:
    ki = _killerinterp_sweep()
    r_c, s_c = _local_min_constants()
    return {
        "_meta": "empirical constants, safety factor 3; regenerate with python -m wellscape.calibrate",
        "killerinterp_C": ki,
        "local_min_r_C": r_c,
        "local_min_s_C": s_c,
    }


def main(argv: list[str] | None = None) -> int:
    out = (argv or sys.argv[1:] or ["calibration.json"])[0]
    values = calibrate()
    with open(out, "w") as fh:
        json.dump(values, fh, indent=2, sort_keys=True)
    print(json.dumps(values, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
