import importlib
import json
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wellscape import (BranchedSpec, Diverged, EnergyBreakdown, EnergyParams,
                       MinimizeConfig, PortfolioShrunk, ScalarField, branched_seed,
                       critical_delta, energy, energy_gradient,
                       energy_smoothed, fit_power_law, local_minimality_probe,
                       make_grid, minimize, multistart_portfolio,
                       random_admissible, zero_field)
from wellscape import landscape
from wellscape.grid import Workspace

energy_module = importlib.import_module("wellscape.energy")   # the package's energy is a function

FAST_CFG = MinimizeConfig(max_iters=50, w_init=0.2, w_factor=0.25, w_floor=0.04)


def test_minimize_zero_start_stays_zero(grid64):
    res = minimize(zero_field(grid64), EnergyParams(0.1, 0.0, 1), FAST_CFG)
    assert res.breakdown.total == 0.0
    assert np.abs(res.field.values).max() == 0.0
    # no stage end certifies, so neither does the result
    assert res.certificate == math.inf
    assert res.certificate_field is None
    # each stage stops at once on a zero gradient, whose norm is +0.0 in the
    # trace, with and without a well term (a -0.0 would print as such)
    for delta in (0.0, 0.5):
        trace = minimize(zero_field(grid64), EnergyParams(0.1, delta, 1), FAST_CFG).trace
        assert [json.dumps(rec["grad_norm"]) for rec in trace] == ["0.0"] * 3


_THREADS_SCRIPT = """
import hashlib, json
import numpy as np
from wellscape import EnergyParams, MinimizeConfig, make_grid, minimize, random_admissible
g = make_grid(1.0, 256, 256)
start = random_admissible(g, np.random.default_rng(11), amplitude=1.0)
cfg = MinimizeConfig(max_iters=4, w_init=0.2, w_factor=0.25, w_floor=0.04)
res = minimize(start, EnergyParams(0.01, 0.15, 1), cfg)
print(json.dumps([res.field.values.tobytes() != start.values.tobytes(),
                  hashlib.sha256(res.field.values.tobytes()).hexdigest(), res.trace]))
"""


def test_descent_bits_do_not_depend_on_blas_threads():
    # a 256^2 descent (three stages of four iterations) gives the same field
    # bytes and trace under one BLAS thread and under two: no whole-field
    # reduction goes through BLAS, whose dot products of this length split
    # across threads and round differently (at 64^2 they are too short to)
    src = os.path.dirname(os.path.dirname(landscape.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                                if p]))
        run = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], capture_output=True,
                             text=True, env=env, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    moved, _, trace = json.loads(outputs[0])
    assert moved and len(trace) == 12
    assert outputs[0] == outputs[1]


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
    assert res.breakdown.total <= energy(start, p).total + 1e-12


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


def _passes(br, delta, epsilon, L):
    """The predicate's float test on the sharp breakdown br at delta."""
    e0 = delta * L
    return br.total < e0 - 1e-6 * max(e0, epsilon)


def _band(down, top):
    """A stand-in for landscape._search_band that returns (down, top)."""
    return lambda epsilon, L: (down, top)


def test_critical_delta_coarse_bracket(grid64, monkeypatch):
    monkeypatch.setattr(landscape, "_search_band", _band(0.05, 5.0))
    res = critical_delta(0.05, 1.0, 1, grid64, FAST_CFG, tol_rel=0.5, seed=0)
    assert res.delta_lo < res.delta_hi
    assert res.delta_hi / res.delta_lo <= 1.5 + 1e-9
    lo_recs = [r for r in res.evaluations if r.delta == res.delta_lo]
    assert lo_recs and not lo_recs[-1].beats
    # delta_hi is certified: its field passes the predicate's test there
    br = energy(res.certificate_field, EnergyParams(0.05, res.delta_hi, 1))
    assert _passes(br, res.delta_hi, 0.05, grid64.L)
    assert all(res.delta_hi <= r.delta for r in res.evaluations if r.beats)
    # the starts certify a delta below the bracket's top, so no predicate
    # ran where a certificate had already settled the outcome
    assert all(r.delta < res.delta_hi for r in res.evaluations)


def test_critical_delta_deterministic(grid64, monkeypatch):
    monkeypatch.setattr(landscape, "_search_band", _band(0.06, 6.0))
    a = critical_delta(0.06, 1.0, 1, grid64, FAST_CFG, tol_rel=0.6, seed=5)
    b = critical_delta(0.06, 1.0, 1, grid64, FAST_CFG, tol_rel=0.6, seed=5)
    assert (a.delta_lo, a.delta_hi) == (b.delta_lo, b.delta_hi)
    assert [(r.delta, r.best_energy) for r in a.evaluations] == \
           [(r.delta, r.best_energy) for r in b.evaluations]


def test_predicate_descends_on_calling_thread_in_portfolio_order(grid64, monkeypatch):
    # every descent of a predicate runs on the thread that called
    # critical_delta, one start after another in portfolio order
    starts = multistart_portfolio(0.06, grid64, seed=5)
    names = {id(f): name for name, f in starts}
    calls = []
    descend = landscape.minimize

    def recording_minimize(start, p, cfg):
        calls.append((threading.get_ident(), p.delta, names[id(start)]))
        return descend(start, p, cfg)

    monkeypatch.setattr(landscape, "_search_band", _band(0.06, 6.0))
    monkeypatch.setattr(landscape, "multistart_portfolio", lambda *args, **kwargs: starts)
    monkeypatch.setattr(landscape, "minimize", recording_minimize)
    res = critical_delta(0.06, 1.0, 1, grid64, FAST_CFG, tol_rel=0.6, seed=5)
    assert res.evaluations
    assert {thread for thread, _, _ in calls} == {threading.get_ident()}
    assert [call[1:] for call in calls] == [(r.delta, name) for r in res.evaluations
                                            for name, _ in starts]


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
    # norm_cap = 0 rescales every sample to the zero field, which ties E(0)
    # and so counts as a violation; area_cap = 0 leaves no sample eligible
    for mode in ("norm_cap", "area_cap"):
        for cap in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                local_minimality_probe(EnergyParams(0.1, 0.5, 1), grid64, 5, **{mode: cap})


def test_random_admissible_properties(grid64, rng):
    for _ in range(5):
        u = random_admissible(grid64, rng, amplitude=rng.uniform(0.1, 4.0))
        assert np.abs(u.values[0, :]).max() == 0.0
        assert np.all(np.isfinite(u.values))


def _random_admissible_ref(grid, rng, amplitude=1.0):
    """The mesh body: every mode evaluated on the full (nx+1) x ny node mesh."""
    X, Y = grid.node_mesh()
    xi = X / grid.L
    values = np.zeros_like(X)
    for power in (1, 2):
        prof = np.zeros_like(Y)
        for n in range(1, 9):
            a, b = rng.normal(size=2) / n
            prof += a * np.cos(2.0 * math.pi * n * Y) + b * np.sin(2.0 * math.pi * n * Y)
        values += xi**power * prof
    rms = math.sqrt(float((values**2).mean()))
    if rms > 0:
        values *= amplitude / rms
    return ScalarField(grid, values)


GRIDS = (st.sampled_from([(1.0, 8, 8), (1.0, 64, 64), (2.0, 80, 48), (0.7, 37, 101),
                          (1.0, 128, 128), (1.0, 256, 256), (1.0, 1024, 1024)])
         | st.tuples(st.floats(0.25, 4.0), st.integers(8, 96), st.integers(8, 96)))


@settings(max_examples=60, deadline=None)
@given(shape=GRIDS, seed=st.integers(0, 2**32 - 1),
       amplitude=st.sampled_from([0.1, 1.0]) | st.floats(1e-3, 1e3))
def test_random_admissible_matches_mesh_reference(shape, seed, amplitude):
    # the y-profiles built on y_nodes and broadcast against (x/L)^power give
    # the bits of the mesh body, signed zeros of the x = 0 row included, and
    # draw the same normals
    g = make_grid(*shape)
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_admissible(g, rng, amplitude)
    want = _random_admissible_ref(g, rng_ref, amplitude)
    assert got.values.tobytes() == want.values.tobytes()
    assert rng.random() == rng_ref.random()


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


def _descend_stage_ref(x, grid, p, cfg, stage, trace, e_cap, ws=None):
    """The descent loop with separate energy and gradient calls per iterate
    and fresh arrays throughout (ws is ignored); its inner products are the
    einsum reductions of _descend_stage."""
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
            denom = float(np.einsum("ij,ij->", yv, yv))
            if denom > 0:
                t = abs(float(np.einsum("ij,ij->", s, yv))) / denom
            t = min(max(t, 1e-18), 1e8)
        accepted = False
        gg = float(np.einsum("ij,ij->", g, g))
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


def _stage_outputs(monkeypatch):
    """Record a copy of the iterate each continuation stage returns."""
    outputs = []
    descend = landscape._descend_stage

    def recording(x, *args):
        x_end, failures = descend(x, *args)
        outputs.append(x_end.copy())
        return x_end, failures

    monkeypatch.setattr(landscape, "_descend_stage", recording)
    return outputs


@pytest.mark.parametrize("variant, name, delta, winner", [
    (1, "branched", 0.3, "start"),       # every stage raises the sharp energy
    (2, "branched_x2", 1.5, "stage 1"),  # the last stage undoes some of stage 1
])
def test_best_before_the_last_stage_matches_two_pass_loop(grid64, monkeypatch, variant,
                                                          name, delta, winner):
    # the reported field is an array the descent no longer writes to: the
    # start, or a copy of a stage's iterate taken before the next stage
    # reuses its workspace; its bytes and breakdown are those of the
    # two-pass loop
    start = dict(multistart_portfolio(0.05, grid64, seed=variant))[name]
    p = EnergyParams(0.05, delta, variant)
    with monkeypatch.context() as m:
        outputs = _stage_outputs(m)
        fused = minimize(start, p, FAST_CFG)
    pinned = start.values.copy()
    pinned[0, :] = 0.0
    candidates = {"start": pinned, **{f"stage {k}": x for k, x in enumerate(outputs)}}
    assert len(outputs) == 3
    assert [k for k, x in candidates.items()
            if x.tobytes() == fused.field.values.tobytes()] == [winner]
    with monkeypatch.context() as m:
        m.setattr(landscape, "_descend_stage", _descend_stage_ref)
        ref = minimize(start, p, FAST_CFG)
    assert fused.field.values.tobytes() == ref.field.values.tobytes()
    assert json.dumps(fused.breakdown.to_json_dict()) == json.dumps(ref.breakdown.to_json_dict())
    assert json.dumps(fused.trace) == json.dumps(ref.trace)


@pytest.mark.parametrize("variant", [1, 3])
def test_descent_iteration_holds_at_most_one_field(monkeypatch, variant):
    # on a warmed workspace, the only whole-field array a descent iteration
    # allocates is the intermediate of a two-operator apply or adjoint (the
    # cell-center u_y, u_xy), one at a time.  Two iterations, the second with
    # a BB step, are traced in phases split at every operator call the
    # kernel makes: each call peaks at one node field and a few KiB (the
    # evaluator's one-row scratch for edge rows), and the code between
    # calls at a few KiB (the trace records).  A whole-field temporary
    # anywhere in the iteration fails it
    g = make_grid(1.0, 256, 256)
    start = random_admissible(g, np.random.default_rng(variant), amplitude=0.5)
    p = EnergyParams(0.05, 0.8, variant, smooth_w=0.1)
    cfg = MinimizeConfig(max_iters=2)
    ws = Workspace()
    x = np.array(start.values)
    # the workspace's arrays and the grid's operator tables are made first
    landscape._descend_stage(x.copy(), g, p, cfg, 0, [], math.inf, ws)

    peaks = {"operator": 0, "between": 0}
    base = [0]

    def close(phase):
        peaks[phase] = max(peaks[phase], tracemalloc.get_traced_memory()[1] - base[0])
        tracemalloc.reset_peak()
        base[0] = tracemalloc.get_traced_memory()[0]

    def phased(fn):
        def call(*args, **kwargs):
            close("between")
            try:
                return fn(*args, **kwargs)
            finally:
                close("operator")
        return call

    for name in ("apply", "_whole"):
        monkeypatch.setattr(energy_module, name, phased(getattr(energy_module, name)))
    trace = []
    tracemalloc.start()
    try:
        landscape._descend_stage(x, g, p, cfg, 0, trace, math.inf, ws)
        close("between")
    finally:
        tracemalloc.stop()
    assert len(trace) == 2
    slack = 8 * 1024
    assert peaks["operator"] <= start.values.nbytes + slack, peaks
    assert peaks["between"] <= slack, peaks


def test_minimize_result_survives_later_descents(grid64):
    # descents on the same grid, one after the other and four at once on two
    # cores with a short switch interval, leave the bytes of a result already
    # taken unchanged, and each concurrent descent gives its serial bytes
    p = EnergyParams(0.05, 1.5, 2)
    starts = dict(multistart_portfolio(0.05, grid64, seed=2))
    names = ["branched_x2", "branched", "branched_x0.5", "random"]
    first = minimize(starts["branched_x2"], p, FAST_CFG)
    before = (first.field.values.tobytes(), json.dumps(first.breakdown.to_json_dict()),
              json.dumps(first.trace))
    serial = {name: minimize(starts[name], p, FAST_CFG).field.values.tobytes()
              for name in names}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = {name: pool.submit(minimize, starts[name], p, FAST_CFG)
                       for name in names}
            pooled = {name: fut.result(timeout=300).field.values.tobytes()
                      for name, fut in futures.items()}
    finally:
        sys.setswitchinterval(interval)
    assert (first.field.values.tobytes(), json.dumps(first.breakdown.to_json_dict()),
            json.dumps(first.trace)) == before
    assert pooled == serial
    assert serial["branched_x2"] == before[0]


# surface, elastic, L and area_B / L wide enough that c*L falls on both sides
# of epsilon, i.e. on both branches of tol_e (one example each)
@settings(max_examples=300, deadline=None)
@given(surface=st.floats(0.0, 1e3), elastic=st.floats(0.0, 1e3),
       L=st.floats(0.1, 10.0), fraction=st.floats(1e-3, 1.0),
       epsilon=st.floats(1e-4, 1.0), factor=st.floats(1.0, 100.0))
@example(surface=1e-6, elastic=1e-6, L=1.0, fraction=1e-3, epsilon=0.5,
         factor=1.0 + 2.0**-52)    # c*L < eps, where tol_e = 1e-6 eps
@example(surface=2.0, elastic=3.0, L=2.0, fraction=0.25, epsilon=1e-4,
         factor=1.0 + 2.0**-52)    # c*L >= eps, where tol_e = 1e-6 delta L
def test_certificate_is_where_the_predicate_test_starts_to_hold(surface, elastic, L,
                                                               fraction, epsilon, factor):
    area = fraction * L
    q = surface + elastic

    def passes(delta):
        e0 = delta * L
        return q + delta * (L - area) < e0 - 1e-6 * max(e0, epsilon)

    br = EnergyBreakdown(surface, elastic, 0.0, q, area, L - area)
    c = landscape.certificate(br, epsilon, L)
    assert 0.0 < c < math.inf
    assert passes(c)
    assert passes(c * factor)
    assert not passes(c * (1.0 - 1e-9))
    assert landscape.certificate(replace(br, area_B=0.0, area_A=L), epsilon, L) == math.inf


def test_certificate_of_a_branched_field_at_64(grid64):
    # energy() of the field at delta = c passes the predicate's test
    eps = 0.05
    seed = branched_seed(BranchedSpec.from_epsilon(eps, grid64.L), grid64)
    c = landscape.certificate(energy(seed, EnergyParams(eps, 0.0, 1)), eps, grid64.L)
    assert 0.0 < c < math.inf
    assert _passes(energy(seed, EnergyParams(eps, c, 1)), c, eps, grid64.L)
    assert not _passes(energy(seed, EnergyParams(eps, c * (1 - 1e-9), 1)),
                       c * (1 - 1e-9), eps, grid64.L)
    assert landscape.certificate(energy(zero_field(grid64), EnergyParams(eps, 0.3, 1)),
                                 eps, grid64.L) == math.inf


def test_minimize_keeps_the_least_certificate(grid64, monkeypatch):
    # the least certificate over the start and the stage ends, and its field
    p = EnergyParams(0.05, 0.3, 1)
    start = dict(multistart_portfolio(0.05, grid64, seed=1))["branched_x2"]
    with monkeypatch.context() as m:
        outputs = _stage_outputs(m)
        res = minimize(start, p, FAST_CFG)
    pinned = start.values.copy()
    pinned[0, :] = 0.0
    certs = [landscape.certificate(energy(ScalarField(grid64, x), p), 0.05, grid64.L)
             for x in [pinned, *outputs]]
    assert res.certificate == min(certs) < math.inf
    assert res.certificate_field.values.tobytes() == \
        [pinned, *outputs][certs.index(min(certs))].tobytes()


@pytest.mark.parametrize("cert, inversions, next_delta", [
    (0.1, 2, math.sqrt(0.05 * 0.1)),   # lo falls back to the false delta 0.05
    (0.01, 3, 0.001),                  # no false delta below: search down from hi
])
def test_critical_delta_counts_an_inversion(grid64, monkeypatch, cert, inversions,
                                            next_delta):
    # the starts certify 0.844, so the first predicate probes just below it
    # (delta ~ 0.563, false) and hands back a field that certifies 0.3: one
    # inversion, and the search goes on below the new hi; the third predicate
    # (delta ~ 0.122, false) hands back a field that certifies `cert`, at or
    # below earlier false deltas (0.563, 0.122 and, for 0.01, 0.05): each is
    # counted, lo moves below the new hi, and the records keep the raw
    # descent outcomes
    windows = {(0.5, 0.6): 0.3, (0.1, 0.15): cert}

    def fake_minimize(start, p, cfg):
        br = energy(start, p)
        c = next((c for (a, b), c in windows.items() if a < p.delta < b), math.inf)
        if not start.values.any():
            c = math.inf
        return landscape.MinimizeResult(start, br, [], 0, c,
                                        None if c == math.inf else start)

    monkeypatch.setattr(landscape, "minimize", fake_minimize)
    monkeypatch.setattr(landscape, "_search_band", _band(0.05, 5.0))
    res = critical_delta(0.05, 1.0, 1, grid64, FAST_CFG, tol_rel=0.5, seed=0)
    deltas = [r.delta for r in res.evaluations]
    assert 0.5 < deltas[0] < 0.6 and deltas[1] == 0.05 and 0.1 < deltas[2] < 0.15
    assert deltas[3] == pytest.approx(next_delta, rel=1e-12)
    assert res.inversions == inversions
    assert res.delta_hi == cert
    assert (res.certificate_start, res.certificate_delta) == ("branched", deltas[2])
    assert res.delta_lo < res.delta_hi <= 1.5 * res.delta_lo
    assert not any(r.beats for r in res.evaluations)
    assert [r.certificate for r in res.evaluations][:4] == [0.3, math.inf, cert,
                                                            math.inf]
    assert [res.evaluations[k].certificate_start for k in (0, 2)] == ["branched"] * 2


def _monotone_minimize(delta_true, frac):
    """A stand-in for minimize whose predicate is monotone: every nonzero
    start beats E(0) exactly when delta > delta_true, and then certifies a
    delta in (delta_true, delta]."""
    def fake(start, p, cfg):
        L = start.grid.L
        e0 = p.delta * L
        if p.delta > delta_true and start.values.any():
            c = max(math.nextafter(delta_true, math.inf),
                    delta_true + frac * (p.delta - delta_true))
            total, field = e0 - 2.0 * landscape._tol_e(e0, p.epsilon), start
        else:
            c, total, field = math.inf, e0, None
        br = EnergyBreakdown(0.0, 0.0, total, total, 0.0, L)
        return landscape.MinimizeResult(start, br, [], 0, c, field)
    return fake


def _check_bracket(res, delta_true, tol_rel):
    assert res.delta_lo <= delta_true <= res.delta_hi
    assert res.delta_hi / res.delta_lo <= 1.0 + tol_rel
    assert res.inversions == 0


GRID64 = make_grid(1.0, 64, 64)
# the least certificate of the portfolio's starts at eps = 0.05 on GRID64
START_CERT = min(landscape.certificate(energy(f, EnergyParams(0.05, 0.0, 1)), 0.05, 1.0)
                 for _, f in multistart_portfolio(0.05, GRID64, seed=0))


@settings(max_examples=150, deadline=None)
@given(f=st.floats(1e-4, 1.0), frac=st.floats(0.0, 1.0), a=st.floats(1e-3, 0.9),
       width=st.floats(1.1, 1e3), tol_rel=st.floats(0.05, 1.0))
@example(f=1.0, frac=0.0, a=0.05, width=100.0, tol_rel=0.25)
@example(f=1.0 / 1.25, frac=1.0, a=0.05, width=100.0, tol_rel=0.25)
@example(f=0.5, frac=0.5, a=0.5, width=1.5, tol_rel=0.25)   # band below the starts
def test_critical_delta_brackets_a_monotone_predicate(f, frac, a, width, tol_rel):
    # delta_true = f * c, where c is the least start certificate; the bracket
    # (a * c, a * width * c) lies below c or holds it
    c = START_CERT
    delta_true = f * c
    bracket = (a * c, a * width * c)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(landscape, "minimize", _monotone_minimize(delta_true, frac))
        m.setattr(landscape, "_search_band", _band(*bracket))
        res = critical_delta(0.05, 1.0, 1, GRID64, FAST_CFG, tol_rel=tol_rel, seed=0)
    _check_bracket(res, delta_true, tol_rel)
    first = res.evaluations[0].delta
    if c <= bracket[1]:
        # a start certifies hi: the first predicate probes just below it,
        # and it settles the bracket whenever it is false
        assert c / (1.0 + tol_rel) <= first and c / first <= 1.0 + tol_rel
        if delta_true >= c / (1.0 + tol_rel) * (1.0 + 1e-12):
            assert len(res.evaluations) == 1
            assert (res.delta_lo, res.delta_hi) == (first, c)
    else:
        assert first == bracket[0]


def test_search_band_regimes():
    # the frozen band, to the last bit: it picks the order of the predicates
    # of every search whose starts certify nothing inside it
    band = landscape._search_band
    assert band(1e-4, 1.0) == (0.00044132253271793944, 0.004935138849834494)
    assert band(0.1, 0.01) == (44.13225327179395, 493.51388498344943)
    assert band(0.01, 1.0) == (0.044132253271793945, 0.4935138849834494)
    # 16 eps^2 takes over the low end once eps/L is large
    assert band(1.0, 1.0) == (16.0, 49.35138849834494)
    # past eps*L of about 3.08, C eps/L falls below 16 eps^2 and top is 2 down
    assert band(2.0, 2.0) == (64.0, 128.0)
    assert band(0.5, 8.0) == (4.0, 8.0)


def test_critical_delta_without_a_certifying_start_begins_at_the_band():
    # at eps = 0.01 on 64^2 the portfolio loses its branched starts, and the
    # random start certifies only above the band: no probe, and the first
    # predicate is at the band's low end, as without certificates
    band = landscape._search_band(0.01, 1.0)
    delta_true = 0.3 * band[0] + 0.7 * band[1]
    with pytest.warns(PortfolioShrunk):
        starts = multistart_portfolio(0.01, GRID64, seed=0)
    assert min(landscape.certificate(energy(f, EnergyParams(0.01, 0.0, 1)), 0.01, 1.0)
               for _, f in starts) > band[1]
    with pytest.MonkeyPatch.context() as m, pytest.warns(PortfolioShrunk):
        m.setattr(landscape, "minimize", _monotone_minimize(delta_true, 0.5))
        res = critical_delta(0.01, 1.0, 1, GRID64, FAST_CFG, tol_rel=0.25, seed=0)
    assert res.evaluations[0].delta == band[0]
    _check_bracket(res, delta_true, 0.25)


def test_critical_delta_rejects_an_L_that_is_not_the_grids(monkeypatch):
    # every energy and certificate uses grid.L, so another L would only
    # shift the search band; it is refused before any start is built
    class Built(Exception):
        pass

    def portfolio(*args, **kwargs):
        raise Built

    monkeypatch.setattr(landscape, "multistart_portfolio", portfolio)
    for L in (2.0, 0.5, 1.0 + 1e-9):
        with pytest.raises(ValueError, match="grid width"):
            critical_delta(0.05, L, 1, GRID64, FAST_CFG)
    with pytest.raises(Built):
        critical_delta(0.05, 1.0 + 1e-13, 1, GRID64, FAST_CFG)


def _critical_delta_ref(epsilon, L, variant, grid, cfg=None, tol_rel=0.25, seed=0):
    """critical_delta as a bisection with a lower_end helper and a climb
    loop that assign hi in place; it reaches minimize, the portfolio,
    energy, certificate and the search band through the landscape module,
    as the search does."""
    if min(epsilon, L) <= 0 or tol_rel <= 0:
        raise ValueError("epsilon, L, tol_rel must be positive")
    cfg = cfg or MinimizeConfig()
    starts = landscape.multistart_portfolio(epsilon, grid, seed=seed)
    evaluations = []
    p0 = EnergyParams(epsilon, 0.0, variant)
    best = min((landscape._Certificate(
        landscape.certificate(landscape.energy(f, p0), epsilon, grid.L), name, None, f)
        for name, f in starts), key=lambda c: c.value)

    def predicate(delta):
        nonlocal best, hi
        p = EnergyParams(epsilon, delta, variant)
        e0 = delta * grid.L

        outcomes = []
        for name, start_field in starts:
            res = landscape.minimize(start_field, p, cfg)
            field = res.certificate_field if res.certificate < best.value else None
            outcomes.append((name, res.breakdown.total, res.certificate, field))
        winner, total, _, _ = min(outcomes, key=lambda o: o[1])
        cert_start, _, cert, cert_field = min(outcomes, key=lambda o: o[2])
        beats = landscape._beats(total, e0, epsilon)
        evaluations.append(landscape.EvalRecord(delta, total, e0, winner, beats, cert,
                                                cert_start))
        if cert < best.value:
            best = landscape._Certificate(cert, cert_start, delta, cert_field)
        hi = min(hi, best.value)

    def largest_false():
        return max((r.delta for r in evaluations if not r.beats and r.delta < hi),
                   default=None)

    def lower_end(probe):
        top = probe
        for _ in range(11):
            if largest_false() is not None:
                break
            if probe < hi:
                predicate(probe)
            probe /= 10.0
        lo = largest_false()
        if lo is None:
            raise landscape.BracketNotFound(
                f"predicate true over ten decades below {top:.6g}")
        return lo

    lo, hi = landscape._search_band(epsilon, L)
    hi = min(hi, best.value)
    if best.value <= hi:
        probe = hi / (1.0 + tol_rel)
        while hi / probe > 1.0 + tol_rel:
            probe = math.nextafter(probe, math.inf)
        predicate(probe)
    lower_end(lo)
    for _ in range(11):
        if best.value <= hi:
            break
        predicate(hi)
        hi = min(10.0 * hi, best.value)
    if best.value > hi:
        raise landscape.BracketNotFound("predicate false over ten decades above the band")

    lo = lower_end(hi / 10.0)
    while hi / lo > 1.0 + tol_rel:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            raise landscape.BracketNotFound(f"[{lo:.6g}, {hi:.6g}] too near 0 to bisect: "
                                            "lo * hi underflows")
        predicate(mid)
        lo = lower_end(hi / 10.0)
    inversions = sum(1 for r in evaluations if not r.beats and r.delta >= hi)
    return landscape.CriticalDeltaResult(epsilon, L, variant, lo, hi, evaluations,
                                         best.field, best.start, best.delta, inversions)


GRID8 = make_grid(1.0, 8, 8)


def _fake_landscape(m, start_certs, kind, delta_true, p_cert, salt):
    """Patch the portfolio, energy, certificate and minimize for a search on
    GRID8.  Start k is k * x/L with certificate start_certs[k]; a descent's
    outcome is a function of (salt, k, delta) alone, so it does not depend on
    the order the starts run in.  A descent that beats E(0)
    certifies delta or less, as its winning field does; one that does not
    certifies above delta, or nothing.  Returns the list of the deltas
    minimize is called at."""
    xi = GRID8.x_nodes[:, None] / GRID8.L + np.zeros(GRID8.ny)
    starts = [(f"s{k}", ScalarField(GRID8, k * xi)) for k in range(len(start_certs))]
    index = {id(f): k for k, (_, f) in enumerate(starts)}
    calls = []

    def fake_minimize(start, p, cfg):
        calls.append(p.delta)
        k = index[id(start)]
        rng = random.Random(f"{salt}:{k}:{p.delta!r}")
        beats = {"monotone": p.delta > delta_true,
                 "noisy": (p.delta > delta_true) != (rng.random() < 0.2),
                 "random": rng.random() < 0.5, "true": True, "false": False}[kind]
        if beats:   # the field that beats E(0) certifies delta or less
            c = (delta_true + rng.random() * (p.delta - delta_true) if kind == "monotone"
                 else p.delta * 10.0 ** rng.uniform(-1.0, 0.0))
        elif rng.random() < p_cert:   # above delta_true too, when that is monotone
            c = (delta_true if kind == "monotone" else p.delta) * 10.0 ** rng.uniform(0.0, 1.0)
        else:
            c = math.inf
        e0 = p.delta * GRID8.L
        tol = landscape._tol_e(e0, p.epsilon)
        total = e0 - (2.0 + rng.random()) * tol if beats else e0 + rng.random() * tol
        br = EnergyBreakdown(0.0, 0.0, total, total, 0.0, GRID8.L)
        return landscape.MinimizeResult(start, br, [], 0, c,
                                        None if c == math.inf else start)

    m.setattr(landscape, "multistart_portfolio", lambda epsilon, grid, seed=0: starts)
    m.setattr(landscape, "energy", lambda f, p: f)
    m.setattr(landscape, "certificate", lambda f, epsilon, L: start_certs[index[id(f)]])
    m.setattr(landscape, "minimize", fake_minimize)
    return calls


def _search_outcome(search, *args, **kwargs):
    """The result's bracket, records and certificate, or the exception."""
    try:
        res = search(*args, **kwargs)
    except Exception as exc:   # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    field = None if res.certificate_field is None else res.certificate_field.values.tobytes()
    return (res.evaluations, res.delta_lo, res.delta_hi, res.certificate_start,
            res.certificate_delta, res.inversions, field)


@settings(max_examples=300, deadline=None)
@given(start_certs=st.lists(st.just(math.inf) | st.floats(1e-3, 1e2), min_size=1,
                            max_size=5),
       kind=st.sampled_from(["monotone", "noisy", "random", "true", "false"]),
       delta_true=st.floats(1e-3, 1e2), p_cert=st.floats(0.0, 1.0),
       salt=st.integers(0, 2**16), epsilon=st.sampled_from([0.01, 0.05, 0.2]),
       bracket=st.none() | st.tuples(st.floats(1e-3, 10.0), st.floats(1.01, 1e3)),
       tol_rel=st.floats(0.01, 2.0))
@example(start_certs=[math.inf], kind="noisy", delta_true=0.16, p_cert=0.0, salt=0,
         epsilon=0.2, bracket=None, tol_rel=0.25)   # an inversion, then a second search down
@example(start_certs=[93.24390190842549, 1.05, 93.24390190842549, 1.05, math.inf],
         kind="noisy", delta_true=93.24390190842549, p_cert=0.0, salt=0, epsilon=0.01,
         bracket=None, tol_rel=0.01)   # true below lo, again and again, until lo * hi underflows
def test_critical_delta_matches_the_bisection_reference(start_certs, kind, delta_true,
                                                        p_cert, salt, epsilon, bracket,
                                                        tol_rel):
    # the one-loop search runs the predicates of the bisection it replaced,
    # in the same order, and returns the same records, bracket and
    # certificate, or raises the same error after the same predicates
    if bracket is not None:
        bracket = (bracket[0], bracket[0] * bracket[1])
    args = (epsilon, 1.0, 1, GRID8, FAST_CFG)
    kwargs = dict(tol_rel=tol_rel, seed=0)
    outcomes = []
    for search in (critical_delta, _critical_delta_ref):
        with pytest.MonkeyPatch.context() as m:
            if bracket is not None:
                m.setattr(landscape, "_search_band", _band(*bracket))
            calls = _fake_landscape(m, start_certs, kind, delta_true, p_cert, salt)
            outcomes.append((_search_outcome(search, *args, **kwargs), calls))
    assert outcomes[0] == outcomes[1]


def _every_descent(beats, calls):
    """A stand-in for minimize that appends each delta it runs at to calls:
    every descent beats E(0) and certifies its own delta, or none does and
    none certifies."""
    def fake(start, p, cfg):
        calls.append(p.delta)
        e0 = p.delta * start.grid.L
        total = e0 - 2.0 * landscape._tol_e(e0, p.epsilon) if beats else e0
        c = p.delta if beats else math.inf
        br = EnergyBreakdown(0.0, 0.0, total, total, 0.0, start.grid.L)
        return landscape.MinimizeResult(start, br, [], 0, c,
                                        start if beats else None)
    return fake


def test_critical_delta_true_everywhere_raises_below():
    # the starts certify 0.844, the probe beats E(0) and certifies itself,
    # and so does every predicate of the downward search from the bracket's
    # low end: 11 of them, then BracketNotFound
    calls = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(landscape, "minimize", _every_descent(True, calls))
        m.setattr(landscape, "_search_band", _band(0.05, 5.0))
        with pytest.raises(landscape.BracketNotFound,
                           match=r"^predicate true over ten decades below 0\.05$"):
            critical_delta(0.05, 1.0, 1, GRID64, FAST_CFG, tol_rel=0.25, seed=0)
    deltas = list(dict.fromkeys(calls))   # one entry per predicate
    assert START_CERT / 1.25 <= deltas[0] < START_CERT
    assert len(deltas) == 1 + 11
    assert deltas[1] == 0.05
    assert all(a / b == pytest.approx(10.0) for a, b in zip(deltas[1:], deltas[2:]))


def test_critical_delta_false_everywhere_raises_above():
    # no start certifies (the zero start alone) and no descent beats E(0)
    # or certifies: the bracket's low end is lo, then 11 climbs from its top
    calls = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(landscape, "multistart_portfolio",
                  lambda epsilon, grid, seed=0: [("zero", zero_field(grid))])
        m.setattr(landscape, "minimize", _every_descent(False, calls))
        m.setattr(landscape, "_search_band", _band(0.05, 5.0))
        with pytest.raises(landscape.BracketNotFound,
                           match=r"^predicate false over ten decades above the band$"):
            critical_delta(0.05, 1.0, 1, GRID64, FAST_CFG, tol_rel=0.25, seed=0)
    assert calls == [0.05] + [5.0 * 10.0**k for k in range(11)]
