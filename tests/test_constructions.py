import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wellscape import (BranchedSpec, BumpSpec, EnergyParams, PotentialSpec,
                       ResolutionTooCoarse, UnsupportedProfile, b_geometry,
                       branched_seed, convolution_oracle, d_y, energy,
                       make_grid, nucleation_bump, potential_seed,
                       quintic_smoothstep_cutoff, radial_poisson,
                       radial_profile, validate_admissible)


# ---------------------------------------------------------------------------
# branched seed

def test_branched_spec_bookkeeping():
    spec = BranchedSpec.from_epsilon(0.01, 1.0)
    assert spec.N >= 1 and spec.N == int(spec.N)
    assert spec.h == pytest.approx(1.0 / (4 * spec.N))
    assert spec.k * spec.l == pytest.approx(spec.h / 2)
    assert spec.h <= 0.25
    assert spec.c == pytest.approx(spec.h / math.sqrt(0.01 * 1.0))


def test_branched_seed_admissible_and_periodic():
    g = make_grid(1.0, 512, 512)
    seed = branched_seed(BranchedSpec.from_epsilon(0.01, 1.0), g)
    assert np.abs(seed.values[0, :]).max() == 0.0
    assert validate_admissible(seed).ok


def test_branched_seed_area_matches_column_oracle():
    # per period the B fraction of a column at offset x is k x / h, so the
    # area over the sawtooth half is l/4 (the flagged factor-2 vs the quoted l/8)
    g = make_grid(1.0, 1024, 1024)
    spec = BranchedSpec.from_epsilon(0.01, 1.0)
    seed = branched_seed(spec, g)
    area = b_geometry(seed).area_b
    assert area == pytest.approx(spec.l / 4.0, rel=2e-2)


def test_branched_seed_cost_bounded_over_two_decades():
    vals = []
    for eps in (1e-4, 1e-3, 1e-2):
        g = make_grid(1.0, 512, 1024)
        seed = branched_seed(BranchedSpec.from_epsilon(eps, 1.0), g)
        br = energy(seed, EnergyParams(eps, 0.0, 3))
        vals.append((br.surface + br.elastic) / eps)
    assert max(vals) / min(vals) < 3.0


def _branched_seed_ref(spec, grid):
    """The whole-grid formula branched_seed replaced: the phase and both
    halves evaluated on every node, then np.where picks a half."""
    def profile(xw, y):
        H = spec.h - spec.k * xw
        yp = np.mod(y, 4.0 * spec.h)
        yp = np.where(yp > 2.0 * spec.h, 4.0 * spec.h - yp, yp)
        out = np.where(yp <= H, yp**2 / (2.0 * H), yp - H / 2.0)
        return np.where(yp >= 2.0 * spec.h - H,
                        2.0 * spec.h - H - (yp - 2.0 * spec.h) ** 2 / (2.0 * H), out)

    x = grid.x_nodes[:, None]
    y = grid.y_nodes[None, :]
    left = (x / spec.l) * profile(np.zeros((1, 1)), y)
    return np.where(x <= spec.l, left, profile(x - spec.l, y))


def _assert_branched_matches_ref(eps, L, nx, ny):
    spec = BranchedSpec.from_epsilon(eps, L)
    g = make_grid(L, nx, ny)
    assert branched_seed(spec, g).values.tobytes() == _branched_seed_ref(spec, g).tobytes()


@pytest.mark.parametrize("eps, n", [(1e-3, 1024), (0.01, 256), (0.002, 512), (0.05, 64),
                                    (0.003, 200)])
def test_branched_seed_matches_whole_grid_formula(eps, n):
    # one profile evaluation per distinct phase gives the same bits; (0.01,
    # 256) is the branched start of the 256^2 bisection portfolio
    _assert_branched_matches_ref(eps, 1.0, n, n)


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(1e-3, 0.2), L=st.floats(0.25, 4.0), nx=st.integers(8, 150),
       ny=st.integers(8, 300))
def test_branched_seed_matches_whole_grid_formula_on_odd_grids(eps, L, nx, ny):
    assume(ny * BranchedSpec.from_epsilon(eps, L).h >= 8.0)
    _assert_branched_matches_ref(eps, L, nx, ny)


def test_branched_seed_uy_jumps_bounded():
    # w is C^1 in y, so nodal u_y varies by at most ~ hy * max|u_yy| per row
    g = make_grid(1.0, 256, 512)
    spec = BranchedSpec.from_epsilon(0.01, 1.0)
    seed = branched_seed(spec, g)
    uy = d_y(seed).values
    jumps = np.abs(np.diff(uy, axis=1)).max()
    assert jumps <= 6.0 * g.hy / spec.h


def test_branched_seed_resolution_guard():
    g = make_grid(1.0, 64, 16)
    with pytest.raises(ResolutionTooCoarse):
        branched_seed(BranchedSpec.from_epsilon(1e-4, 1.0), g)


# ---------------------------------------------------------------------------
# nucleation bump

def test_bump_area_closed_form():
    g = make_grid(1.0, 1024, 1024)
    spec = BumpSpec(0.01, 0.01, 4.0, 1.0)
    bump = nucleation_bump(spec, g)
    assert validate_admissible(bump).ok
    closed = 4 * spec.a * spec.delta_x * (1 - spec.lam**-0.5) ** 2
    assert closed == pytest.approx(1e-4)
    assert b_geometry(bump).area_b == pytest.approx(closed, rel=2e-2)


def test_bump_area_shrinks_as_lambda_drops():
    g = make_grid(1.0, 1024, 1024)
    prev = math.inf
    for lam in (4.0, 2.0, 1.2):
        area = b_geometry(nucleation_bump(BumpSpec(0.01, 0.01, lam, 1.0), g)).area_b
        assert 0.0 < area < prev
        prev = area


def test_bump_support_and_resolution():
    g = make_grid(1.0, 256, 256)
    spec = BumpSpec(0.05, 0.1, 2.0, 1.0)
    bump = nucleation_bump(spec, g)
    X, Y = g.node_mesh()
    outside = (X < 1.0 - spec.delta_x - 1e-12) | (Y > 4 * spec.a + 1e-12)
    assert np.abs(bump.values[outside]).max() == 0.0
    with pytest.raises(ResolutionTooCoarse):
        nucleation_bump(BumpSpec(0.002, 0.002, 2.0, 1.0), g)


def test_bump_spec_validation():
    with pytest.raises(ValueError):
        BumpSpec(0.3, 0.1, 2.0, 1.0)   # 4a > 1
    with pytest.raises(ValueError):
        BumpSpec(0.01, 2.0, 2.0, 1.0)  # delta > L
    with pytest.raises(ValueError):
        BumpSpec(0.01, 0.1, 1.0, 1.0)  # lambda <= 1


# ---------------------------------------------------------------------------
# radial machinery

def test_radial_profile_outer_knot_continuous():
    prof = radial_profile(PotentialSpec(1, 1.0))
    eps = 1e-13
    assert prof(1.0 - eps) == pytest.approx(prof(1.0 + eps), abs=1e-12)


def test_radial_profile_inner_knot_factor_two():
    # the literal branch definition jumps by exactly 2 at R = 2^-j; the
    # reference values (norm, z_y(0,0)) integrate these branches as written
    for j in (2, 3, 5):
        prof = radial_profile(PotentialSpec(j, 1.0))
        eps = 1e-13
        knot = 2.0**-j
        assert prof(knot - eps) / prof(knot + eps) == pytest.approx(2.0, rel=1e-10)


def test_radial_profile_norm_closed_form_and_decay():
    # a knot-aware midpoint rule for sqrt(pi int g^2 R dR) checks the
    # closed form against the profile's branches
    prev = math.inf
    for j in range(1, 9):
        prof = radial_profile(PotentialSpec(j, 1.0))
        edges = np.unique(np.concatenate([np.linspace(0.0, 2.0, 50_001), prof.breakpoints]))
        mid = 0.5 * (edges[1:] + edges[:-1])
        quad = math.sqrt(math.pi * float(np.sum(prof(mid) ** 2 * mid * np.diff(edges))))
        norm = prof.norm_l2()
        assert norm == pytest.approx(quad, rel=1e-6)
        assert norm < prev
        prev = norm


def test_radial_poisson_constant_annulus():
    gfun = lambda R: np.where((np.asarray(R) >= 1.0) & (np.asarray(R) <= 2.0), 0.7, 0.0)
    sol = radial_poisson(gfun, 4096)
    assert sol.zprime0 == pytest.approx(-0.35, rel=1e-3)


def test_radial_poisson_zero_profile():
    sol = radial_poisson(lambda R: np.zeros_like(np.asarray(R, dtype=float)), 512)
    r = np.linspace(0.01, 1.9, 50)
    assert np.abs(sol(r)).max() == 0.0


def test_radial_poisson_rejects_wide_support():
    with pytest.raises(UnsupportedProfile):
        radial_poisson(lambda R: np.ones_like(np.asarray(R, dtype=float)), 512)


def test_radial_poisson_center_slope_matches_reference():
    for j in range(1, 9):
        spec = PotentialSpec(j, 1.0)
        sol = radial_poisson(radial_profile(spec), spec.nR)
        assert sol.zprime0 == pytest.approx(-spec.k / 4 - spec.A_j, rel=5e-3)


def test_radial_poisson_residual_second_order():
    class Smooth:
        breakpoints = (1.8,)

        def __call__(self, R):
            R = np.asarray(R, dtype=float)
            return np.where(R < 1.8, np.exp(-8 * (R - 0.8) ** 2) * (1.8 - R) ** 3 * R, 0.0)

    g = Smooth()
    res = {n: radial_poisson(g, n).ode_residual(g) for n in (512, 2048)}
    assert res[512] / res[2048] >= 10.0  # second order: expect ~16x


def test_convolution_oracle_far_field_monopole():
    blob = lambda x, y: np.where(np.hypot(x, y) <= 0.5, 1.0 / (math.pi * 0.25), 0.0)
    z, _ = convolution_oracle(blob, np.array([[10.0, 0.0]]), n_r=600, n_theta=360)
    assert z[0] == pytest.approx(math.log(10.0) / (2 * math.pi), rel=1e-2)


def test_convolution_oracle_zero_density():
    z, gz = convolution_oracle(lambda x, y: np.zeros_like(x),
                               np.array([[0.3, 0.2], [1.0, -0.4]]), n_r=128, n_theta=90)
    assert np.abs(z).max() == 0.0 and np.abs(gz).max() == 0.0


def test_convolution_oracle_agrees_with_radial_solve():
    spec = PotentialSpec(2, 1.0)
    prof = radial_profile(spec)
    sol = radial_poisson(prof, 8192)

    def f(x, y):
        R = np.hypot(x, y)
        safe = np.where(R > 1e-15, R, 1.0)
        return prof(R) * np.where(R > 1e-15, y / safe, 0.0)

    angles = [(0.35, 0.4), (0.35, 2.1), (0.8, 0.7), (0.8, 2.8),
              (1.3, 1.0), (1.3, 5.0), (1.7, 0.3), (1.7, 4.0)]
    probes = np.array([[r * math.cos(a), r * math.sin(a)] for r, a in angles])
    z, gz = convolution_oracle(f, probes, n_r=1600, n_theta=1024)
    R = np.hypot(probes[:, 0], probes[:, 1])
    sth, cth = probes[:, 1] / R, probes[:, 0] / R
    z_rad = sol(R) * sth
    Zp, Zr = sol.derivative(R), sol(R)
    gx = (probes[:, 0] * probes[:, 1] / R**2) * (Zp - Zr / R)
    gy = Zp * sth**2 + (Zr / R) * cth**2
    assert np.abs(z - z_rad).max() / np.abs(z_rad).max() < 1e-3
    gerr = max(np.abs(gz[:, 0] - gx).max(), np.abs(gz[:, 1] - gy).max())
    assert gerr / max(np.abs(gx).max(), np.abs(gy).max()) < 1e-3


# ---------------------------------------------------------------------------
# potential seeds on the grid

def test_potential_seed_admissible_and_supported():
    g = make_grid(1.0, 128, 128)
    seed = potential_seed(PotentialSpec(2, 1.0, nR=2048), g)
    assert np.abs(seed.values[0, :]).max() == 0.0
    assert np.abs(seed.values[-1, :]).max() == 0.0  # compact support inside
    assert validate_admissible(seed).ok


def test_potential_seed_center_gradient_large():
    g = make_grid(1.0, 256, 256)
    for j in (4, 8):
        seed = potential_seed(PotentialSpec(j, 1.0), g)
        assert d_y(seed).values[g.nx // 2, g.ny // 2] >= 2.0


def test_potential_seed_energy_decreases_with_positive_b():
    g = make_grid(1.0, 128, 128)
    prev = math.inf
    for j in (1, 2, 4, 8):
        seed = potential_seed(PotentialSpec(j, 1.0, nR=2048), g)
        br = energy(seed, EnergyParams(0.1, 0.0, 3))
        cost = br.surface + br.elastic
        assert b_geometry(seed).area_b > 0.0
        assert cost < prev
        prev = cost


def test_potential_seed_variant_domination():
    g = make_grid(1.0, 128, 128)
    seed = potential_seed(PotentialSpec(3, 1.0, nR=2048), g)
    totals = [energy(seed, EnergyParams(0.1, 0.4, v)).total for v in (1, 2, 3)]
    assert totals[0] <= totals[1] <= totals[2]


def test_quintic_cutoff_plateaus():
    cut = quintic_smoothstep_cutoff(1.0, 1.5)
    assert cut(0.3) == 1.0 and cut(1.0) == 1.0
    assert cut(1.5) == 0.0 and cut(1.9) == 0.0
    r = np.linspace(1.0, 1.5, 100)
    vals = cut(r)
    assert np.all(np.diff(vals) <= 1e-15)
