"""Acceptance criteria.

Each test exercises one criterion end to end at its stated tolerance and
prints a PASS line with the measured numbers (run pytest with -s to see
them).  Calibrated constants come from the packaged calibration file.
"""

import math

import numpy as np

from wellscape import (BranchedSpec, BumpSpec, EnergyParams, MinimizeConfig,
                       PotentialSpec, ScalarField, b_geometry,
                       branched_seed, convolution_oracle, critical_delta, energy,
                       energy_gradient, energy_smoothed, fit_power_law,
                       lemma1_check, local_minimality_probe, make_grid, minimize,
                       multistart_portfolio, nucleation_bump, potential_seed,
                       pq_region, random_admissible, theorem2_bounds)
from wellscape.bounds import calibration_value, obstacle_qp_oracle
from wellscape.energy import CELL_UY
from wellscape.grid import apply

CFG = MinimizeConfig(max_iters=60, w_init=0.2, w_factor=0.25, w_floor=0.04)


def _report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_critical_depth_scaling():
    grid = make_grid(1.0, 256, 256)
    eps_list = [0.002, 0.005, 0.01, 0.02, 0.05]
    mids = {}
    for eps in eps_list:
        res = critical_delta(eps, 1.0, 1, grid, CFG, tol_rel=0.25, seed=0)
        mids[eps] = res.midpoint
    fit = fit_power_law(eps_list, [mids[e] for e in eps_list])
    assert abs(fit.slope - 1.0) <= 0.2

    products = [mids[0.01] * 1.0]
    for L in (0.5, 2.0):
        g = make_grid(L, 256, 256)
        res = critical_delta(0.01, L, 1, g, CFG, tol_rel=0.25, seed=0)
        products.append(res.midpoint * L)
    center = sum(products) / len(products)
    assert all(abs(p - center) <= 0.5 * center for p in products)
    _report(1, f"slope={fit.slope:.3f} (target 1.0 +- 0.2); "
               f"delta_c*L over L in {{0.5,1,2}}: "
               + ", ".join(f"{p:.4f}" for p in products))


def test_criterion_2_variant_ordering():
    grid = make_grid(1.0, 64, 64)
    rng = np.random.default_rng(2)
    violations = 0
    for _ in range(50):
        u = random_admissible(grid, rng, amplitude=rng.uniform(0.05, 3.0))
        e1, e2, e3 = (energy(u, EnergyParams(0.1, 0.4, v)).total for v in (1, 2, 3))
        if not (e1 <= e2 <= e3):
            violations += 1
    assert violations == 0

    g = make_grid(1.0, 128, 128)
    results = [critical_delta(0.05, 1.0, v, g, CFG, tol_rel=0.5, seed=0)
               for v in (1, 2, 3)]
    for lower, higher in zip(results, results[1:]):
        assert higher.delta_hi >= lower.delta_lo  # ordered within bracket widths
    _report(2, "0/50 ordering violations; critical-depth brackets "
               + ", ".join(f"v{r.variant}=[{r.delta_lo:.3f},{r.delta_hi:.3f}]"
                           for r in results))


def test_criterion_3_branched_seed_bookkeeping():
    ratios = []
    fractions = []
    for eps in (1e-4, 1e-3, 1e-2):
        grid = make_grid(1.0, 1024, 1024)
        spec = BranchedSpec.from_epsilon(eps, 1.0)
        seed = branched_seed(spec, grid)
        br = energy(seed, EnergyParams(eps, 0.0, 3))
        geom = b_geometry(seed)
        # with delta = 0 the criterion quantity (E3(v) - E3(0) + delta*areaB)/eps
        # is exactly the surface + elastic cost over eps
        ratios.append(br.total / eps)
        fractions.append(geom.area_b / grid.L)
    assert max(ratios) / min(ratios) <= 3.0
    mean_frac = sum(fractions) / len(fractions)
    assert all(abs(f - mean_frac) <= 0.05 * mean_frac for f in fractions)
    _report(3, f"cost/eps in [{min(ratios):.3f}, {max(ratios):.3f}] (band <= 3x); "
               f"area_B/L = {', '.join(f'{f:.5f}' for f in fractions)} "
               f"(oracle {0.125:.5f}, spread <= 5%)")


def test_criterion_4_nucleation_path():
    lam = 1.1
    energies = {}
    for delta in (1e-2, 1e-3, 1e-4):
        a = math.sqrt(delta)
        ny = 2048 if a >= 0.02 else 8192
        grid = make_grid(delta, 512, ny)
        spec = BumpSpec(a, delta, lam, delta)
        bump = nucleation_bump(spec, grid)
        closed = 4 * a * delta * (1 - lam**-0.5) ** 2
        area = b_geometry(bump).area_b
        assert abs(area - closed) / closed < 0.02
        br = energy(bump, EnergyParams(0.1, 0.0, 1))
        energies[delta] = br.total
    fit = fit_power_law(sorted(energies), [energies[d] for d in sorted(energies)])
    assert abs(fit.slope - 0.5) <= 0.1
    _report(4, f"areas match 4*a*delta*(1-lambda^-1/2)^2 within 2%; "
               f"E1 slope vs delta = {fit.slope:.3f} (target 0.5 +- 0.1)")


def test_criterion_5_potential_sequence():
    L = 1.0
    # closed-form radial potential vs direct convolution quadrature
    prof2 = PotentialSpec(2, L)

    def f2(x, y):
        R = np.hypot(x, y)
        safe = np.where(R > 1e-15, R, 1.0)
        return prof2.density(R) * np.where(R > 1e-15, y / safe, 0.0)

    angles = [(0.35, 0.4), (0.35, 2.1), (0.8, 0.7), (0.8, 2.8),
              (1.3, 1.0), (1.3, 5.0), (1.7, 0.3), (1.7, 4.0)]
    probes = np.array([[r * math.cos(a), r * math.sin(a)] for r, a in angles])
    z, gz = convolution_oracle(f2, probes, n_r=1600, n_theta=1024)
    R = np.hypot(probes[:, 0], probes[:, 1])
    sth, cth = probes[:, 1] / R, probes[:, 0] / R
    Zr, Zp = prof2.potential(R)
    z_rad = Zr * sth
    gx = (probes[:, 0] * probes[:, 1] / R**2) * (Zp - Zr / R)
    gy = Zp * sth**2 + (Zr / R) * cth**2
    zerr = np.abs(z - z_rad).max() / np.abs(z_rad).max()
    gerr = max(np.abs(gz[:, 0] - gx).max(), np.abs(gz[:, 1] - gy).max()) \
        / max(np.abs(gx).max(), np.abs(gy).max())
    assert zerr < 1e-3 and gerr < 1e-3

    # center slope and norm monotonicity over the whole sequence
    norms = []
    for j in range(1, 9):
        spec = PotentialSpec(j, L)
        target = -spec.k / 4 - spec.A_j
        assert abs(spec.zprime0 - target) / abs(target) < 5e-3
        norms.append(spec.norm_l2())
    assert all(b < a for a, b in zip(norms, norms[1:]))

    grid = make_grid(L, 256, 256)
    costs = []
    for j in range(1, 9):
        seed = potential_seed(PotentialSpec(j, L), grid)
        br = energy(seed, EnergyParams(0.1, 0.0, 3))
        assert b_geometry(seed).area_b > 0.0
        costs.append(br.total)
    assert all(b < a for a, b in zip(costs, costs[1:]))
    assert costs[-1] < 0.2 * costs[0]
    _report(5, f"oracle agreement z:{zerr:.1e} grad:{gerr:.1e} (< 1e-3); "
               f"z_y(0,0) = -k/4 - A_j within 0.5% for j=1..8; ||f_j|| strictly "
               f"decreasing; E3 cost {costs[0]:.2f} -> {costs[-1]:.2f} "
               f"({100 * costs[-1] / costs[0]:.1f}% < 20%), area_B > 0 throughout")


def test_criterion_6_obstacle_and_lemma():
    for y1, y2 in [(0.0, 1.0), (0.0, 0.5), (0.2, 0.9)]:
        value, _, _ = obstacle_qp_oracle(y1, y2, 512)
        assert abs(value - 4.0 / (y2 - y1)) / (4.0 / (y2 - y1)) < 0.01

    grid = make_grid(1.0, 96, 96)
    rng = np.random.default_rng(6)
    checked = 0
    violations = 0
    while checked < 200:
        w = random_admissible(grid, rng, amplitude=rng.uniform(0.3, 2.0))
        top = float(np.abs(apply(grid, w.values, *CELL_UY)).max())
        if top == 0.0:
            continue
        u = ScalarField(w.grid, w.values * (rng.uniform(1.05, 3.0) / top))
        geom = b_geometry(u)
        if geom.area_b <= 0.0 or geom.tau is None or geom.tau >= 1 - 1e-9:
            continue
        if not lemma1_check(u).holds:
            violations += 1
        checked += 1
    assert violations == 0
    _report(6, f"QP oracle within 1% of 4/(y2-y1) on 3 intervals; "
               f"lemma bound: {violations}/200 violations")


def test_criterion_7_local_minimality_probes():
    eps, L, n = 0.05, 1.0, 1000
    delta = 10.0 * eps / L
    grid = make_grid(L, 128, 128)
    p = EnergyParams(eps, delta, 1)
    assert pq_region(eps, delta, L).nonempty
    r_cal, _ = theorem2_bounds(eps, delta, L, C=calibration_value("local_min_r_C"))
    _, s_cal = theorem2_bounds(eps, delta, L, C=calibration_value("local_min_s_C"))
    rep_norm = local_minimality_probe(p, grid, n, norm_cap=0.99 * r_cal, seed=7)
    assert rep_norm.eligible == n
    assert rep_norm.violations == 0
    rep_area = local_minimality_probe(p, grid, n, area_cap=s_cal, seed=8)
    assert rep_area.eligible > 0
    assert rep_area.violations == 0
    _report(7, f"norm probe (cap {0.99 * r_cal:.3g}): 0/{rep_norm.eligible} "
               f"violations; area probe (cap {s_cal:.3g}): "
               f"0/{rep_area.eligible} violations")


def test_criterion_8_gradient_and_descent():
    grid = make_grid(1.0, 64, 64)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        p = EnergyParams(0.1, 0.7, int(rng.integers(1, 4)), smooth_w=0.15)
        u = random_admissible(grid, rng, amplitude=rng.uniform(0.3, 1.5))
        grad = energy_gradient(u, p).values
        d = np.array(random_admissible(grid, rng, amplitude=1.0).values)
        d[0, :] = 0.0
        t = 1e-5
        fd = (energy_smoothed(ScalarField(u.grid, u.values + t * d), p)
              - energy_smoothed(ScalarField(u.grid, u.values - t * d), p)) / (2 * t)
        an = float((grad * d).sum())
        rel = abs(an - fd) / (abs(fd) + 1e-30)
        worst = max(worst, rel)
        assert rel < 1e-5

    g = make_grid(1.0, 128, 128)
    eps = 0.05
    p = EnergyParams(eps, 0.8, 1)
    failures = 0
    for name, start in multistart_portfolio(eps, g, seed=0):
        res = minimize(start, p, CFG)
        failures += res.backtrack_failures
        by_stage = {}
        for rec in res.trace:
            by_stage.setdefault(rec["stage"], []).append(rec["smoothed_energy"])
        for energies in by_stage.values():
            assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert failures == 0
    _report(8, f"gradient vs finite differences: worst rel err {worst:.2e} "
               f"(< 1e-5 on 20 fields); stagewise descent monotone with "
               f"0 backtracking failures on the portfolio")


def test_criterion_9_quadratic_floor():
    outcomes = []
    for eps in (0.05, 0.1):
        delta = 0.9 * 16.0 * eps**2
        grid = make_grid(1.0, 128, 128)
        p = EnergyParams(eps, delta, 1)
        e0 = delta * grid.L
        tol_e = 1e-6 * max(e0, eps)
        for name, start in multistart_portfolio(eps, grid, seed=9):
            res = minimize(start, p, CFG)
            assert res.breakdown.total >= e0 - tol_e
            outcomes.append((eps, name, res.breakdown.total - e0))
    _report(9, "no multistart descended below E(0) at delta = 0.9*16*eps^2 "
               f"for eps in {{0.05, 0.1}} ({len(outcomes)} runs)")
