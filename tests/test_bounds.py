import io
import json
import math
from importlib import resources

import numpy as np
import pytest

from wellscape import (BandEmpty, BranchedSpec, BumpSpec, DegenerateInterval,
                       EmptyB, branched_seed, estimate_interp_constant,
                       field_from_function, killerinterp_check, lemma1_check,
                       make_grid, nucleation_bump,
                       obstacle_min_1d, poincare_check, potential_seed,
                       pq_region, proportional_band, reports_to_csv,
                       theorem2_bounds, wopper_check, zero_field)
from wellscape import PotentialSpec, calibrate
from wellscape.bounds import (_second_difference_gram, calibration_value, killerinterp_sides,
                              obstacle_qp_oracle)
from wellscape.energy import CELL_UY, b_geometry, column_uyy_integrals
from wellscape.grid import apply, d_yy, integrate
from wellscape.landscape import random_admissible


# ---------------------------------------------------------------------------
# obstacle problem

def test_obstacle_analytic_values():
    assert obstacle_min_1d(0.0, 0.5).value == pytest.approx(8.0)
    assert obstacle_min_1d(0.0, 1.0).value == pytest.approx(4.0)


def test_obstacle_minimizer_profile():
    sol = obstacle_min_1d(0.2, 0.9)
    mid = 0.55
    h = 1e-6
    slope_mid = (sol.minimizer(mid + h) - sol.minimizer(mid - h)) / (2 * h)
    assert slope_mid == pytest.approx(0.0, abs=1e-9)
    slope_left = (sol.minimizer(0.2 + h) - sol.minimizer(0.2 - h)) / (2 * h)
    assert slope_left == pytest.approx(1.0, rel=1e-6)


def test_obstacle_degenerate():
    with pytest.raises(DegenerateInterval):
        obstacle_min_1d(0.5, 0.5)


@pytest.mark.parametrize("pair", [(0.0, 1.0), (0.0, 0.5), (0.2, 0.9)])
def test_obstacle_qp_oracle_within_one_percent(pair):
    y1, y2 = pair
    value, nodes, prof = obstacle_qp_oracle(y1, y2, 512)
    assert value == pytest.approx(4.0 / (y2 - y1), rel=1e-2)
    # discrete relaxation cannot beat the continuum by more than h-error
    assert value >= 4.0 / (y2 - y1) * 0.99
    mid_idx = len(nodes) // 2
    slope_mid = (prof[mid_idx + 1] - prof[mid_idx - 1]) / (2 * (nodes[1] - nodes[0]))
    assert abs(slope_mid) < 5e-2


@pytest.mark.parametrize("n", [2, 3, 8, 511, 512])
def test_second_difference_gram_is_the_product(n):
    # the assembled D2^T D2 has the bits of the dense product, zeros' signs too
    D2 = np.zeros((n - 1, n + 1))
    idx = np.arange(n - 1)
    D2[idx, idx] = 1.0
    D2[idx, idx + 1] = -2.0
    D2[idx, idx + 2] = 1.0
    assert _second_difference_gram(n).tobytes() == (D2.T @ D2).tobytes()


# ---------------------------------------------------------------------------
# lemma 2.1 checker

def test_lemma1_on_branched_seed():
    g = make_grid(1.0, 256, 256)
    seed = branched_seed(BranchedSpec.from_epsilon(0.01, 1.0), g)
    rep = lemma1_check(seed)
    assert rep.holds


def test_lemma1_on_bump():
    g = make_grid(1.0, 512, 512)
    bump = nucleation_bump(BumpSpec(0.02, 0.05, 4.0, 1.0), g)
    assert lemma1_check(bump).holds


def test_lemma1_rhs_at_half_is_sixteen():
    # the bound 4/(tau(1-tau)) is minimized at tau = 1/2 where it equals 16
    taus = np.linspace(0.01, 0.99, 99)
    vals = 4.0 / (taus * (1 - taus))
    assert vals.min() == pytest.approx(16.0, rel=1e-3)
    assert 4.0 / (0.5 * 0.5) == 16.0


def test_lemma1_zero_field_raises(grid64):
    with pytest.raises(EmptyB):
        lemma1_check(zero_field(grid64))


def test_lemma1_zero_violations_on_random_family(rng):
    g = make_grid(1.0, 96, 96)
    checked = 0
    for _ in range(60):
        w = random_admissible(g, rng, amplitude=rng.uniform(0.5, 2.0))
        top = float(np.abs(apply(g, w.values, *CELL_UY)).max())
        if top == 0.0:
            continue
        u = w.with_values(w.values * (rng.uniform(1.1, 2.5) / top))
        geom = b_geometry(u)
        if geom.area_b <= 0 or geom.tau is None or geom.tau >= 1 - 1e-9:
            continue
        assert lemma1_check(u).holds
        checked += 1
    assert checked >= 40


# ---------------------------------------------------------------------------
# interpolation and Poincare

def test_interp_constant_pure_modes():
    # sigma-minimized ratio is exactly 2 for every mode (2 sqrt(ab)/c with
    # a*b = c^2 for pure modes), so the family infimum is 2
    y = np.arange(2048) / 2048.0
    family = [np.sin(2 * np.pi * n * y) for n in range(1, 9)]
    est = estimate_interp_constant(family, np.geomspace(0.5, 500.0, 500))
    assert est == pytest.approx(2.0, rel=1e-3)


def test_interp_constant_skips_constants():
    y = np.arange(512) / 512.0
    est = estimate_interp_constant([np.ones_like(y)], [1.0, 2.0])
    assert est == math.inf


def test_interp_constant_mixed_family_below_upper_bound(rng):
    y = np.arange(1024) / 1024.0
    family = []
    for _ in range(25):
        f = np.zeros_like(y)
        for n in range(1, 7):
            f += rng.normal() / n * np.cos(2 * np.pi * n * y + rng.uniform(0, 2 * np.pi))
        family.append(f)
    est = estimate_interp_constant(family, np.geomspace(0.5, 500.0, 300))
    assert 2.0 - 1e-6 <= est <= 4 * math.pi


def test_poincare_extremal_equality():
    g = make_grid(1.0, 512, 512)
    u = field_from_function(g, lambda X, Y: np.sin(np.pi * X / 2.0))
    rep = poincare_check(u)
    assert rep.holds
    assert rep.lhs == pytest.approx(rep.rhs, rel=5e-3)


def test_poincare_linear_profile():
    g = make_grid(2.0, 256, 128)
    u = field_from_function(g, lambda X, Y: X)
    rep = poincare_check(u)
    assert rep.holds
    assert rep.lhs / rep.rhs == pytest.approx(12.0 / math.pi**2, rel=1e-2)


def test_poincare_zero_field(grid64):
    rep = poincare_check(zero_field(grid64))
    assert rep.holds and rep.lhs == 0.0 and rep.rhs == 0.0


# ---------------------------------------------------------------------------
# proportional band

def test_band_values():
    lo, hi = proportional_band(0.1, 0.16)
    assert (lo, hi) == (pytest.approx(0.25), pytest.approx(0.75))
    assert lo + hi == pytest.approx(1.0)


def test_band_threshold():
    with pytest.raises(BandEmpty):
        proportional_band(0.1, 0.16 - 1e-6)


def test_band_contains_tau_under_curvature_budget():
    # engineer the premise int u_yy^2 <= delta/eps^2 area(B); tau must land in the band
    g = make_grid(1.0, 256, 256)
    seed = branched_seed(BranchedSpec.from_epsilon(0.02, 1.0), g)
    geom = b_geometry(seed)
    curv = integrate(d_yy(seed).values ** 2, g)
    eps = 0.02
    delta = 1.05 * curv * eps**2 / geom.area_b
    lo, hi = proportional_band(eps, delta)
    assert lo <= geom.tau <= hi


# ---------------------------------------------------------------------------
# killer interpolation + wopper

def test_killerinterp_branched_and_potential():
    g = make_grid(1.0, 256, 256)
    seed = branched_seed(BranchedSpec.from_epsilon(0.01, 1.0), g)
    assert killerinterp_check(seed, 1e30).holds
    pot = potential_seed(PotentialSpec(4, 1.0, nR=2048), g)
    assert killerinterp_check(pot, 1e30).holds


def test_calibrate_reproduces_the_packaged_file():
    # the committed constants are what python -m wellscape.calibrate writes
    packaged = resources.files("wellscape").joinpath("calibration.json").read_text()
    values = calibrate.calibrate()
    assert values == json.loads(packaged)
    assert json.dumps(values, indent=2, sort_keys=True) == packaged


def test_killerinterp_calibration_and_check_agree():
    # calibrate's sweep sets killerinterp_C from killerinterp_sides' lhs / base;
    # the checker reads the same two sides: its rhs is C times that base
    g = make_grid(1.0, 128, 128)
    seed = branched_seed(BranchedSpec.from_epsilon(0.02, 1.0), g)
    geom = b_geometry(seed)
    M = 2.0 * float(np.median(column_uyy_integrals(seed)[geom.pi_columns])) + 1e-12
    lhs, base, trunc = killerinterp_sides(seed, M)
    assert 0 < trunc.area_b_m <= geom.area_b
    rep = killerinterp_check(seed, M)
    assert (rep.lhs, rep.rhs) == (lhs, calibration_value("killerinterp_C") * base)
    assert f"raw_C={lhs / base:.6g}" in rep.context


def test_killerinterp_zero_field(grid64):
    with pytest.raises(EmptyB):
        killerinterp_check(zero_field(grid64), 1e30)


def test_wopper_compact_bump():
    g = make_grid(1.0, 512, 512)
    bump = nucleation_bump(BumpSpec(0.02, 0.05, 4.0, 1.0), g)
    rep = wopper_check(bump, epsilon=0.05)
    assert rep.holds and rep.rhs > 0.0
    # every column qualifies, so rhs is eps times the largest column length
    assert rep.rhs == 0.05 * float(b_geometry(bump).column_lengths.max())


def test_wopper_ramp_sine():
    g = make_grid(1.0, 256, 256)
    u = field_from_function(g, lambda X, Y: 0.5 * X * np.sin(2 * np.pi * Y))
    assert wopper_check(u, epsilon=0.1).holds


def test_wopper_zero_field_vacuous(grid64):
    rep = wopper_check(zero_field(grid64), epsilon=0.1)
    assert rep.holds and rep.rhs == 0.0


# ---------------------------------------------------------------------------
# closed-form calculators

def test_theorem2_bounds_values():
    r, s = theorem2_bounds(0.1, 1.0, 1.0, C=1.0)
    assert r == pytest.approx(3.1623e-4, rel=1e-3)
    assert s == pytest.approx(1e-6, rel=1e-12)
    r2, _ = theorem2_bounds(0.1, 2.0, 1.0, C=1.0)
    assert r2 == pytest.approx(r / 4.0)


def test_theorem2_pure_power_law():
    r11, s11 = theorem2_bounds(1.0, 1.0, 1.0)
    for eps, delta, L in [(0.3, 2.0, 1.0), (0.05, 0.7, 3.0)]:
        r, s = theorem2_bounds(eps, delta, L)
        assert r == pytest.approx(r11 * eps**3.5 / delta**2, rel=1e-12)
        assert s == pytest.approx(s11 * eps**6 / (delta**4 * L), rel=1e-12)


def test_pq_region_nonempty_and_empty():
    eps, L = 0.01, 1.0
    assert pq_region(eps, 100 * eps / L, L).nonempty
    assert not pq_region(eps, 1e-3 * eps / L, L).nonempty


def test_pq_region_intersection_consistency():
    reg = pq_region(0.05, 0.8, 1.0)
    q_at_g = math.sqrt(reg.f_const / reg.g_slope)
    assert reg.p_min * q_at_g == pytest.approx(reg.f_const, rel=1e-12)
    assert reg.q_min == pytest.approx(math.sqrt(reg.f_const / reg.upper_slope), rel=1e-12)


def test_reports_csv_layout():
    rep = poincare_check(zero_field(make_grid(1.0, 16, 16)))
    buf = io.StringIO()
    reports_to_csv([rep], buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "check,context,lhs,rhs,slack,holds"
    assert lines[1].startswith("poincare,")
