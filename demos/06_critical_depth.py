#!/usr/bin/env python3
"""The critical well-depth and its eps/L scaling, at demo resolution.

Bisects the depth at which some multistart descent first beats austenite,
then fits the log-log slope against eps.  Demo settings (128^2 grid, loose
tolerance) keep this to a few seconds; the acceptance suite runs the full
256^2 protocol.
"""

import time

from wellscape import (MinimizeConfig, critical_delta, fit_power_law,
                       make_grid)


def main():
    grid = make_grid(1.0, 128, 128)
    cfg = MinimizeConfig(max_iters=50, w_init=0.2, w_factor=0.25, w_floor=0.04)
    eps_list = [0.005, 0.01, 0.02, 0.05]
    mids = []
    t0 = time.time()
    print("eps      bracket for delta_c        midpoint   midpoint/(eps/L)")
    for eps in eps_list:
        res = critical_delta(eps, 1.0, 1, grid, cfg, tol_rel=0.25, seed=0)
        mids.append(res.midpoint)
        print(f"{eps:.3f}  [{res.delta_lo:8.5f}, {res.delta_hi:8.5f}]  "
              f"{res.midpoint:9.5f}  {res.midpoint / eps:8.2f}")
    fit = fit_power_law(eps_list, mids)
    print(f"\nlog-log fit: delta_c ~ {fit.constant:.2f} * eps^{fit.slope:.3f}"
          f"  (residual rms {fit.residual_rms:.2e})")
    print(f"theory: delta_c proportional to eps/L, i.e. slope 1")
    print(f"elapsed: {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
