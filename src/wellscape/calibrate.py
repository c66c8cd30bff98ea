"""One-off calibration sweep for the unnamed constants of the bound checkers.

The theory proves each inequality with *some* dimensionless constant and
never fixes a value.  This script estimates empirical values over a fixed,
seeded family of fields (constructions plus random admissible samples),
applies a safety factor of 3 toward the conservative side, and writes the
frozen JSON that bounds.py reads.  Rerun with

    python -m wellscape.calibrate [out.json]

and commit the output; checks are regression tests against these values.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .constructions import BranchedSpec, PotentialSpec, branched_seed, potential_seed
from .bounds import estimate_interp_constant, killerinterp_sides
from .energy import (EmptyB, EmptyPiM, EnergyParams, _cell_center_uy,
                     b_geometry, column_uyy_integrals, energy)
from .grid import ScalarField, l2_norm, make_grid
from .landscape import MinimizeConfig, critical_delta, minimize, multistart_portfolio, random_admissible

SAFETY = 3.0


def _interp_mode_constant() -> float:
    """Closed-form check: each pure mode sin(2 pi n y) gives exactly 2."""
    y = np.arange(4096) / 4096.0
    family = [np.sin(2.0 * math.pi * n * y) for n in range(1, 9)]
    sigma = np.geomspace(0.1, 1000.0, 400)
    return estimate_interp_constant(family, sigma)


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
    for _ in range(12):
        w = random_admissible(grid, rng)
        top = float(np.abs(_cell_center_uy(w)).max())
        if top > 0:
            fields.append(w.with_values(w.values * (1.5 / top)))

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


def _critical_delta_constants() -> tuple[float, float]:
    grid = make_grid(1.0, 128, 128)
    cfg = MinimizeConfig(max_iters=60, w_init=0.2, w_factor=0.25, w_floor=0.02)
    eps = 0.02
    res = critical_delta(eps, 1.0, 1, grid, cfg, tol_rel=0.25,
                         bracket=(0.5 * eps, 50.0 * eps), seed=0)
    return res.delta_lo / eps / SAFETY, res.delta_hi / eps * SAFETY


def _local_min_constants() -> tuple[float, float]:
    # delta = 30 eps/L sits above the measured critical depth, so genuine
    # energy-lowering states exist and their norms/areas floor the sweep
    eps, L = 0.05, 1.0
    delta = 30.0 * eps / L
    grid = make_grid(L, 128, 128)
    p = EnergyParams(eps, delta, 1)
    e0 = delta * L
    tol_e = 1e-6 * max(e0, eps)
    cfg = MinimizeConfig(max_iters=60, w_init=0.2, w_factor=0.25, w_floor=0.02)
    candidates: list[ScalarField] = []
    seed = branched_seed(BranchedSpec.from_epsilon(eps, L), grid)
    for s in (0.25, 0.5, 1.0, 2.0, 4.0):
        candidates.append(seed.with_values(s * seed.values))
    for name, start in multistart_portfolio(eps, grid, seed=1):
        candidates.append(minimize(start, p, cfg).field)
    min_norm = math.inf
    min_area = math.inf
    for fld in candidates:
        br = energy(fld, p)
        if br.total < e0 - tol_e:
            min_norm = min(min_norm, l2_norm(fld))
            area = b_geometry(fld).area_b
            if area > 0:
                min_area = min(min_area, area)
    if not math.isfinite(min_norm) or not math.isfinite(min_area):
        raise RuntimeError("calibration sweep found no energy-lowering state")
    r_scale = eps**3.5 / delta**2
    s_scale = eps**6 / (delta**4 * L)
    return min_norm / r_scale / SAFETY, min_area / s_scale / SAFETY


def calibrate() -> dict:
    interp = _interp_mode_constant()
    ki = _killerinterp_sweep()
    c_lo, c_hi = _critical_delta_constants()
    r_c, s_c = _local_min_constants()
    return {
        "_meta": "empirical constants, safety factor 3; regenerate with python -m wellscape.calibrate",
        "interp_C14": interp,
        "killerinterp_C": ki,
        "critical_delta_lower_c": c_lo,
        "critical_delta_upper_C": c_hi,
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
