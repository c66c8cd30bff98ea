import json

import numpy as np
import pytest

from wellscape import (BranchedSpec, Diverged, EnergyParams, MinimizeConfig,
                       PortfolioShrunk, ScalarField, branched_seed,
                       critical_delta, energy, energy_gradient,
                       energy_smoothed, fit_power_law, local_minimality_probe,
                       make_grid, minimize, multistart_portfolio,
                       random_admissible, zero_field)
from wellscape import landscape

FAST_CFG = MinimizeConfig(max_iters=50, w_init=0.2, w_factor=0.25, w_floor=0.04)


def test_minimize_zero_start_stays_zero(grid64):
    res = minimize(zero_field(grid64), EnergyParams(0.1, 0.0, 1), FAST_CFG)
    assert res.breakdown.total == 0.0
    assert np.abs(res.field.values).max() == 0.0


def test_minimize_below_the_quadratic_floor(grid64):
    # delta < 16 eps^2: no admissible state undercuts E(0)
    eps = 0.1
    delta = 0.9 * 16 * eps**2
    p = EnergyParams(eps, delta, 1)
    e0 = delta * grid64.L
    for name, start in multistart_portfolio(eps, grid64, seed=3):
        res = minimize(start, p, FAST_CFG)
        assert res.breakdown.total >= e0 - 1e-6 * max(e0, eps)


def test_minimize_beats_austenite_at_large_delta():
    g = make_grid(1.0, 128, 128)
    eps = 0.05
    delta = 50.0 * eps
    p = EnergyParams(eps, delta, 1)
    seed = branched_seed(BranchedSpec.from_epsilon(eps, 1.0), g)
    res = minimize(seed, p, FAST_CFG)
    assert res.breakdown.total < delta * g.L
    assert res.breakdown.area_B > 0.0


def test_minimize_monotone_stages_and_pinned_edge(grid64, rng):
    p = EnergyParams(0.08, 0.6, 1)
    start = random_admissible(grid64, rng, amplitude=1.5)
    res = minimize(start, p, FAST_CFG)
    assert res.backtrack_failures == 0
    by_stage = {}
    for rec in res.trace:
        by_stage.setdefault(rec["stage"], []).append(rec["smoothed_energy"])
    for energies in by_stage.values():
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert np.abs(res.field.values[0, :]).max() == 0.0
    assert res.breakdown.total <= res.start_sharp + 1e-12


def test_minimize_never_worse_than_start(grid64, rng):
    p = EnergyParams(0.05, 1.2, 2)
    for _ in range(3):
        start = random_admissible(grid64, rng, amplitude=rng.uniform(0.2, 2.0))
        res = minimize(start, p, FAST_CFG)
        assert res.breakdown.total <= energy(start, p).total + 1e-12


def test_minimize_deterministic(grid64):
    p = EnergyParams(0.07, 0.9, 1)
    start = random_admissible(grid64, np.random.default_rng(11), amplitude=1.0)
    a = minimize(start, p, FAST_CFG)
    b = minimize(start, p, FAST_CFG)
    assert np.array_equal(a.field.values, b.field.values)
    assert a.breakdown.total == b.breakdown.total


def test_critical_delta_coarse_bracket(grid64):
    res = critical_delta(0.05, 1.0, 1, grid64, FAST_CFG, tol_rel=0.5,
                         bracket=(0.05, 5.0), seed=0)
    assert res.delta_lo < res.delta_hi
    assert res.delta_hi / res.delta_lo <= 1.5 + 1e-9
    lo_recs = [r for r in res.evaluations if r.delta == res.delta_lo]
    hi_recs = [r for r in res.evaluations if r.delta == res.delta_hi]
    assert lo_recs and not lo_recs[-1].beats
    assert hi_recs and hi_recs[-1].beats


def test_critical_delta_deterministic(grid64):
    a = critical_delta(0.06, 1.0, 1, grid64, FAST_CFG, tol_rel=0.6,
                       bracket=(0.06, 6.0), seed=5)
    b = critical_delta(0.06, 1.0, 1, grid64, FAST_CFG, tol_rel=0.6,
                       bracket=(0.06, 6.0), seed=5)
    assert (a.delta_lo, a.delta_hi) == (b.delta_lo, b.delta_hi)
    assert [(r.delta, r.best_energy) for r in a.evaluations] == \
           [(r.delta, r.best_energy) for r in b.evaluations]


def test_critical_delta_same_records_on_one_worker(grid64, monkeypatch):
    # the predicate's winner is the first lowest energy in portfolio order,
    # however many workers descended the starts
    args = (0.06, 1.0, 1, grid64, FAST_CFG)
    kwargs = dict(tol_rel=0.6, bracket=(0.06, 6.0), seed=5)
    pooled = critical_delta(*args, **kwargs)
    workers = []
    pool = landscape.ThreadPoolExecutor
    monkeypatch.setattr(landscape.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(landscape, "ThreadPoolExecutor",
                        lambda max_workers: workers.append(max_workers) or pool(max_workers))
    serial = critical_delta(*args, **kwargs)
    assert workers and set(workers) == {1}
    assert serial.evaluations == pooled.evaluations


def test_fit_power_law_exact():
    eps = [0.002, 0.005, 0.01, 0.02, 0.05]
    fit = fit_power_law(eps, [3 * e for e in eps])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.constant == pytest.approx(3.0, rel=1e-12)
    assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)


def test_probe_zero_delta_no_violations(grid64):
    rep = local_minimality_probe(EnergyParams(0.05, 0.0, 1), grid64, 40,
                                 norm_cap=10.0, seed=1)
    assert rep.violations == 0
    assert rep.eligible == 40


def test_probe_area_mode_eligibility(grid64):
    rep = local_minimality_probe(EnergyParams(0.05, 0.2, 1), grid64, 30,
                                 area_cap=0.05, seed=2)
    assert rep.violations == 0
    assert rep.eligible > 0


def test_probe_argument_validation(grid64):
    with pytest.raises(ValueError):
        local_minimality_probe(EnergyParams(0.1), grid64, 5)
    with pytest.raises(ValueError):
        local_minimality_probe(EnergyParams(0.1), grid64, 5, norm_cap=1.0, area_cap=1.0)


def test_random_admissible_properties(grid64, rng):
    for _ in range(5):
        u = random_admissible(grid64, rng, amplitude=rng.uniform(0.1, 4.0))
        assert np.abs(u.values[0, :]).max() == 0.0
        assert np.all(np.isfinite(u.values))


def test_portfolio_contents(grid64):
    names = [name for name, _ in multistart_portfolio(0.05, grid64, seed=0)]
    assert names[0] == "zero"
    assert "branched" in names and "random" in names
    assert any(n.startswith("branched_x") for n in names)


def test_portfolio_shrink_warns():
    # at eps = 0.01 the branched seed needs ny >= 96; a 64^2 grid cannot hold it
    g = make_grid(1.0, 64, 64)
    with pytest.warns(PortfolioShrunk, match=r"epsilon=0\.01 on the 64x64 grid"):
        starts = multistart_portfolio(0.01, g, seed=0)
    assert [name for name, _ in starts] == ["zero", "random"]


def test_minimize_overflowing_start_diverges(grid64, rng):
    # the start's energy overflows, so does its gradient, and the first trial
    # step leaves the finite numbers
    start = random_admissible(grid64, rng, amplitude=1e305)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(energy(start, EnergyParams(0.05, 0.5, 1)).total)
        with pytest.raises(Diverged, match="non-finite trial iterate in stage 0, iteration 0"):
            minimize(start, EnergyParams(0.05, 0.5, 1), FAST_CFG)


def _descend_stage_ref(x, grid, p, cfg, stage, trace, e_cap):
    """The descent loop with separate energy and gradient calls per iterate."""
    failures = 0
    u = ScalarField(grid, x)
    e = energy_smoothed(u, p)
    g = energy_gradient(u, p).values
    t = landscape.STEP0
    prev_x = None
    prev_g = None
    for it in range(cfg.max_iters):
        gnorm = float(np.max(np.abs(g)))
        trace.append({"stage": stage, "iter": it, "smoothed_energy": e,
                      "grad_norm": gnorm})
        if e > e_cap:
            raise Diverged(f"smoothed energy {e:.3e} exceeded cap {e_cap:.3e}")
        if gnorm <= cfg.gtol:
            break
        if prev_x is not None:
            s = x - prev_x
            yv = g - prev_g
            denom = float((yv * yv).sum())
            if denom > 0:
                t = abs(float((s * yv).sum())) / denom
            t = min(max(t, 1e-18), 1e8)
        accepted = False
        gg = float((g * g).sum())
        for _ in range(landscape.MAX_BACKTRACKS):
            x_new = x - t * g
            e_new = energy_smoothed(ScalarField(grid, x_new), p)
            if e_new <= e - landscape.ARMIJO * t * gg:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            if gnorm > 100.0 * cfg.gtol:
                failures += 1
            break
        prev_x, prev_g = x, g
        x, e = x_new, e_new
        u = ScalarField(grid, x)
        g = energy_gradient(u, p).values
    return x, failures


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_fused_descent_matches_two_pass_loop(grid64, monkeypatch, variant):
    # same field bits and the same trace as the loop that calls energy_smoothed
    # and energy_gradient separately, from branched and random starts
    eps = 0.05
    starts = [(name, f) for name, f in multistart_portfolio(eps, grid64, seed=variant)
              if name in ("branched", "branched_x2", "random")]
    for name, start in starts:
        for delta in (0.3, 1.5):
            p = EnergyParams(eps, delta, variant)
            fused = minimize(start, p, FAST_CFG)
            with monkeypatch.context() as m:
                m.setattr(landscape, "_descend_stage", _descend_stage_ref)
                ref = minimize(start, p, FAST_CFG)
            assert fused.field.values.tobytes() == ref.field.values.tobytes(), name
            assert json.dumps(fused.trace) == json.dumps(ref.trace), name
            assert fused.backtrack_failures == ref.backtrack_failures
