import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wellscape import (BranchedSpec, BumpSpec, EnergyParams, PotentialSpec,
                       ResolutionTooCoarse, b_geometry,
                       branched_seed, convolution_oracle, d_y, energy,
                       make_grid, nucleation_bump, potential_seed,
                       quintic_smoothstep_cutoff, require_admissible)


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
    require_admissible(seed)


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
    require_admissible(bump)
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

def _knots(spec):
    """Where the radial profile's branches meet, and the support's edge."""
    return (2.0**-spec.j, 1.0, 2.0)


def radial_poisson(prof, nR):
    """Reference solve of Z'' + Z'/R - Z/R^2 = g by variation of parameters.

    The moments I1(R) = int_0^R s^2 g and I2(R) = int_R^2 g are accumulated
    by a midpoint rule on nR uniform panels split at the profile's knots, so
    its jumps are never smeared, and interpolated linearly.  Returns
    (potential, zprime0): potential(R) = (Z, Z') for R > 0, with
    Z = -I1/(2R) - R*I2/2 and Z' = I1/(2R^2) - I2/2, and Z'(0) = -I2(0)/2.
    """
    edges = np.unique(np.concatenate([np.linspace(0.0, 2.0, nR + 1), _knots(prof)]))
    mid = 0.5 * (edges[1:] + edges[:-1])
    gm = prof.density(mid) * np.diff(edges)
    i1 = np.concatenate([[0.0], np.cumsum(mid**2 * gm)])
    flux = np.concatenate([[0.0], np.cumsum(gm)])
    i2 = flux[-1] - flux

    def potential(R):
        m1, m2 = np.interp(R, edges, i1), np.interp(R, edges, i2)
        return -m1 / (2.0 * R) - R * m2 / 2.0, m1 / (2.0 * R**2) - m2 / 2.0

    return potential, -float(flux[-1]) / 2.0


def test_radial_profile_outer_knot_continuous():
    prof = PotentialSpec(1, 1.0)
    eps = 1e-13
    assert prof.density(1.0 - eps) == pytest.approx(prof.density(1.0 + eps), abs=1e-12)


def test_radial_profile_inner_knot_factor_two():
    # the literal branch definition jumps by exactly 2 at R = 2^-j; the
    # reference values (norm, z_y(0,0)) integrate these branches as written
    for j in (2, 3, 5):
        prof = PotentialSpec(j, 1.0)
        eps = 1e-13
        knot = 2.0**-j
        assert prof.density(knot - eps) / prof.density(knot + eps) == pytest.approx(2.0, rel=1e-10)


def test_radial_profile_norm_closed_form_and_decay():
    # a knot-aware midpoint rule for sqrt(pi int g^2 R dR) checks the
    # closed form against the profile's branches
    prev = math.inf
    for j in range(1, 9):
        prof = PotentialSpec(j, 1.0)
        edges = np.unique(np.concatenate([np.linspace(0.0, 2.0, 50_001), _knots(prof)]))
        mid = 0.5 * (edges[1:] + edges[:-1])
        quad = math.sqrt(math.pi * float(np.sum(prof.density(mid) ** 2 * mid * np.diff(edges))))
        norm = prof.norm_l2()
        assert norm == pytest.approx(quad, rel=1e-6)
        assert norm < prev
        prev = norm


def test_radial_poisson_center_slope_matches_reference():
    for j in range(1, 9):
        spec = PotentialSpec(j, 1.0)
        _, zprime0 = radial_poisson(spec, 4096)
        assert zprime0 == pytest.approx(-spec.k / 4 - spec.A_j, rel=5e-3)


def test_closed_form_is_the_limit_of_the_radial_solve():
    # the reference's error falls by >= 5x per doubling of nR (second order
    # gives 4x, the knots' midpoint rule better): relative to Z pointwise,
    # as Z > 0 on (0, 2), and to max |Z'| for Z', which changes sign
    R = np.linspace(1e-3, 1.95, 4001)
    for j in range(1, 9):
        prof = PotentialSpec(j, 1.0)
        Z, Zp = prof.potential(R)
        errors = []
        for nR in (1024, 2048, 4096, 8192):
            z, zp = radial_poisson(prof, nR)[0](R)
            errors.append((np.max(np.abs(z - Z) / Z),
                           np.max(np.abs(zp - Zp)) / np.max(np.abs(Zp))))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse[0] >= 5.0 * fine[0] and coarse[1] >= 5.0 * fine[1], (j, errors)


def test_closed_form_center_slope_exact():
    for L in (0.5, 1.0, 3.0):
        for j in range(1, 9):
            spec = PotentialSpec(j, L)
            target = -spec.k / 4 - spec.A_j
            assert abs(spec.zprime0 - target) <= 1e-14 * abs(target)


def test_closed_form_ratio_at_center_needs_no_guard():
    # Z/R = -(J + I2)/2 with J = I1/R^2 formed per branch: at R = 0 it is
    # Z'(0) with no division by zero, and it is continuous there
    for j in (1, 4, 8):
        prof = PotentialSpec(j, 1.0)
        with np.errstate(all="raise"):
            J, i2 = prof.moments(np.array([0.0, 1e-9]))
        assert J[0] == 0.0
        ratio = -(J + i2) / 2.0
        assert ratio[0] == prof.zprime0
        assert ratio[1] == pytest.approx(prof.zprime0, rel=1e-6)
        assert prof.potential(np.array([0.0]))[0][0] == 0.0


def test_convolution_oracle_far_field_monopole():
    blob = lambda x, y: np.where(np.hypot(x, y) <= 0.5, 1.0 / (math.pi * 0.25), 0.0)
    z, _ = convolution_oracle(blob, np.array([[10.0, 0.0]]), n_r=600, n_theta=360)
    assert z[0] == pytest.approx(math.log(10.0) / (2 * math.pi), rel=1e-2)


def test_convolution_oracle_zero_density():
    z, gz = convolution_oracle(lambda x, y: np.zeros_like(x),
                               np.array([[0.3, 0.2], [1.0, -0.4]]), n_r=128, n_theta=90)
    assert np.abs(z).max() == 0.0 and np.abs(gz).max() == 0.0


def test_convolution_oracle_agrees_with_radial_solve():
    prof = PotentialSpec(2, 1.0)

    def f(x, y):
        R = np.hypot(x, y)
        safe = np.where(R > 1e-15, R, 1.0)
        return prof.density(R) * np.where(R > 1e-15, y / safe, 0.0)

    angles = [(0.35, 0.4), (0.35, 2.1), (0.8, 0.7), (0.8, 2.8),
              (1.3, 1.0), (1.3, 5.0), (1.7, 0.3), (1.7, 4.0)]
    probes = np.array([[r * math.cos(a), r * math.sin(a)] for r, a in angles])
    z, gz = convolution_oracle(f, probes, n_r=1600, n_theta=1024)
    R = np.hypot(probes[:, 0], probes[:, 1])
    sth, cth = probes[:, 1] / R, probes[:, 0] / R
    Zr, Zp = prof.potential(R)
    z_rad = Zr * sth
    gx = (probes[:, 0] * probes[:, 1] / R**2) * (Zp - Zr / R)
    gy = Zp * sth**2 + (Zr / R) * cth**2
    assert np.abs(z - z_rad).max() / np.abs(z_rad).max() < 1e-3
    gerr = max(np.abs(gz[:, 0] - gx).max(), np.abs(gz[:, 1] - gy).max())
    assert gerr / max(np.abs(gx).max(), np.abs(gy).max()) < 1e-3


# ---------------------------------------------------------------------------
# potential seeds on the grid

def test_potential_seed_admissible_and_supported():
    g = make_grid(1.0, 128, 128)
    seed = potential_seed(PotentialSpec(2, 1.0), g)
    assert np.abs(seed.values[0, :]).max() == 0.0
    assert np.abs(seed.values[-1, :]).max() == 0.0  # compact support inside
    require_admissible(seed)


def test_potential_seed_center_gradient_large():
    g = make_grid(1.0, 256, 256)
    for j in (4, 8):
        seed = potential_seed(PotentialSpec(j, 1.0), g)
        assert d_y(seed).values[g.nx // 2, g.ny // 2] >= 2.0


def test_potential_seed_energy_decreases_with_positive_b():
    g = make_grid(1.0, 128, 128)
    prev = math.inf
    for j in (1, 2, 4, 8):
        seed = potential_seed(PotentialSpec(j, 1.0), g)
        br = energy(seed, EnergyParams(0.1, 0.0, 3))
        cost = br.surface + br.elastic
        assert b_geometry(seed).area_b > 0.0
        assert cost < prev
        prev = cost


def test_potential_seed_variant_domination():
    g = make_grid(1.0, 128, 128)
    seed = potential_seed(PotentialSpec(3, 1.0), g)
    totals = [energy(seed, EnergyParams(0.1, 0.4, v)).total for v in (1, 2, 3)]
    assert totals[0] <= totals[1] <= totals[2]


def test_quintic_cutoff_plateaus():
    cut = quintic_smoothstep_cutoff(1.0, 1.5)
    assert cut(0.3) == 1.0 and cut(1.0) == 1.0
    assert cut(1.5) == 0.0 and cut(1.9) == 0.0
    r = np.linspace(1.0, 1.5, 100)
    vals = cut(r)
    assert np.all(np.diff(vals) <= 1e-15)
