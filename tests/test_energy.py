import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wellscape import (BranchedSpec, EmptyB, EnergyParams, NotAdmissible,
                       ZeroSmoothing, b_geometry, branched_seed,
                       energy, energy_gradient, energy_smoothed,
                       field_from_function, integrate, make_grid, shift_y,
                       truncate_b, well_potential, zero_field)
from wellscape.energy import (SURFACE_STENCILS, TIE_TOL, _cell_center_uy,
                              _column_lengths, column_uyy_integrals,
                              surface_and_elastic)
from wellscape.grid import _x_weights, adjoint, apply, d_yy
from wellscape.landscape import random_admissible


def test_well_potential_values():
    assert well_potential(0, 0, 0.5) == 0.5
    assert well_potential(0, 1, 0.5) == 0.0
    assert well_potential(2, 0.5, 0.3) == pytest.approx(4.3)


def test_well_potential_vectorized():
    out = well_potential(np.array([0.0, 2.0]), np.array([0.0, 1.5]), 0.25)
    assert np.allclose(out, [0.25, 4.0])


def test_b_geometry_zero_field(grid64):
    geom = b_geometry(zero_field(grid64))
    assert geom.area_b == 0.0
    assert geom.pi_columns.size == 0
    assert geom.tau is None


def test_b_geometry_closed_form_column_measure():
    # u_y = 2(x/L) cos(2 pi y): per column, measure{|u_y| >= 1} has a closed form
    g = make_grid(1.0, 512, 512)
    u = field_from_function(g, lambda X, Y: (X / np.pi) * np.sin(2 * np.pi * Y))
    area = b_geometry(u).area_b
    oracle = quad(lambda x: (2 / np.pi) * math.acos(1.0 / (2 * x)), 0.5, 1.0)[0]
    assert area == pytest.approx(oracle, rel=1e-2)


def test_b_geometry_branched_tau_strictly_inside():
    g = make_grid(1.0, 256, 256)
    seed = branched_seed(BranchedSpec.from_epsilon(0.01, 1.0), g)
    geom = b_geometry(seed)
    assert 0.0 < geom.tau < 1.0
    assert geom.area_b == pytest.approx(g.hx * geom.column_lengths.sum())


def _column_lengths_loop(mask, q, hy):
    """The per-column run loop that _column_lengths vectorizes: its reference."""
    nx, ny = mask.shape
    lengths = np.zeros(nx)
    for i in np.flatnonzero(mask.any(axis=1)):
        col = mask[i]
        if col.all():
            runs = [(0, ny)]
        else:
            rising = np.flatnonzero(col & ~np.roll(col, 1))
            falling = np.flatnonzero(~col & np.roll(col, 1))
            runs = []
            for start in rising:
                later = falling[falling > start]
                end = later[0] if later.size else falling[0] + ny
                runs.append((int(start), int(end - start)))
        total = 0.0
        for start, n in runs:
            idx = (start + np.arange(n)) % ny
            plateau = float(q[i][idx].max()) <= 1.0 + TIE_TOL
            total += (n + 1 if plateau and n < ny else n) * hy
        lengths[i] = min(total, 1.0)
    return lengths


@settings(max_examples=300, deadline=None)
@given(ny=st.sampled_from([8, 12, 16, 37, 48, 64, 96, 100, 128]),
       nx=st.integers(1, 12), density=st.floats(0.0, 1.0),
       full_rows=st.sets(st.integers(0, 11), max_size=3),
       seam_rows=st.sets(st.integers(0, 11), max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_column_lengths_match_run_loop(ny, nx, density, full_rows, seam_rows, seed):
    # all-B columns, runs across the y seam, tie plateaus (|u_y| within
    # TIE_TOL of 1) beside runs that cross 1, and ny off the powers of two
    rng = np.random.default_rng(seed)
    mask = rng.random((nx, ny)) < density
    for i in seam_rows:
        if i < nx:
            mask[i, [0, -1]] = True
    for i in full_rows:
        if i < nx:
            mask[i] = True
    ties = rng.choice([1.0, 1.0 + 0.5 * TIE_TOL, 1.0 + 1e-6, 1.3], size=mask.shape)
    q = np.where(mask, ties, rng.random(mask.shape) * (1.0 - 2.0 * TIE_TOL))
    hy = 1.0 / ny
    assert _column_lengths(mask, q, hy).tobytes() == _column_lengths_loop(mask, q, hy).tobytes()


def test_truncate_b_no_truncation(grid64):
    u = field_from_function(grid64, lambda X, Y: 0.5 * X * np.sin(2 * np.pi * Y))
    geom = b_geometry(u)
    assert geom.area_b > 0
    trunc = truncate_b(u, 1e30)
    assert np.array_equal(trunc.pi_m_columns, geom.pi_columns)
    assert np.array_equal(trunc.b_m_mask, geom.b_mask)
    assert trunc.area_b_m == pytest.approx(geom.area_b)


def test_truncate_b_all_removed(grid64):
    u = field_from_function(grid64, lambda X, Y: 0.5 * X * np.sin(2 * np.pi * Y))
    geom = b_geometry(u)
    cols = column_uyy_integrals(u)
    m = float(cols[geom.pi_columns].min()) * (1 - 1e-9)
    trunc = truncate_b(u, m)
    assert trunc.pi_m_columns.size == 0
    assert trunc.area_b_m == 0.0


def test_truncate_b_half_mass_choice(grid64):
    # with M = 2 int u_yy^2 / area(B), at least half the B-area survives
    u = field_from_function(grid64, lambda X, Y: 0.6 * X * np.sin(2 * np.pi * Y)
                            + 0.2 * X**2 * np.cos(4 * np.pi * Y))
    geom = b_geometry(u)
    assert geom.area_b > 0
    M = 2.0 * integrate(d_yy(u).values ** 2, grid64) / geom.area_b
    trunc = truncate_b(u, M)
    assert trunc.area_b_m >= 0.5 * geom.area_b


def test_truncate_b_empty_b(grid64):
    with pytest.raises(EmptyB):
        truncate_b(zero_field(grid64), 1.0)


def test_energy_zero_field_totals():
    g = make_grid(1.0, 64, 64)
    for delta in (0.0, 0.3, 2.0):
        br = energy(zero_field(g), EnergyParams(0.05, delta, 1))
        assert br.total == pytest.approx(delta)
        assert br.surface == 0.0 and br.elastic == 0.0
        assert br.area_A + br.area_B == pytest.approx(g.L)


def test_energy_variant_monotonicity(grid64, rng):
    p = [EnergyParams(0.1, 0.4, v) for v in (1, 2, 3)]
    for _ in range(10):
        u = random_admissible(grid64, rng, amplitude=rng.uniform(0.1, 3.0))
        e1, e2, e3 = (energy(u, pv).total for pv in p)
        assert e1 <= e2 <= e3


def test_energy_closed_form_x_sin():
    # E1 of u = x sin(2 pi y) at delta = 0: eps^2 * 16 pi^4 * L^3/6 + L/2
    g = make_grid(1.0, 512, 512)
    u = field_from_function(g, lambda X, Y: X * np.sin(2 * np.pi * Y))
    br = energy(u, EnergyParams(0.1, 0.0, 1))
    exact = 0.1**2 * 16 * math.pi**4 / 6 + 0.5
    assert br.total == pytest.approx(exact, rel=5e-3)


def test_energy_requires_admissible(grid64):
    bad = field_from_function(grid64, lambda X, Y: 1.0 + X)
    with pytest.raises(NotAdmissible):
        energy(bad, EnergyParams(0.1))


def test_energy_partition_exact(grid64, rng):
    u = random_admissible(grid64, rng, amplitude=2.0)
    br = energy(u, EnergyParams(0.1, 0.7, 2))
    assert br.area_A + br.area_B == pytest.approx(grid64.L, abs=1e-15)
    assert br.total == br.surface + br.elastic + br.well


def test_energy_shift_invariance(grid64, rng):
    u = random_admissible(grid64, rng, amplitude=1.3)
    p = EnergyParams(0.07, 0.9, 3)
    e = energy(u, p).total
    e_shift = energy(shift_y(u, 17), p).total
    assert abs(e_shift - e) <= 1e-10 * abs(e)


def test_smoothed_matches_sharp_outside_band(grid64):
    # all cell-center |u_y| far from (1-w, 1): smoothed == sharp exactly
    u = field_from_function(grid64, lambda X, Y: 0.1 * X * np.sin(2 * np.pi * Y))
    p = EnergyParams(0.1, 0.8, 1, smooth_w=0.05)
    q = np.abs(_cell_center_uy(u))
    assert not np.any((q > 1 - p.smooth_w) & (q < 1.0))
    assert energy_smoothed(u, p) == pytest.approx(energy(u, p).total, abs=1e-14)


def test_smoothed_sharp_gap_bounded(grid64, rng):
    p = EnergyParams(0.1, 0.9, 1, smooth_w=0.2)
    for _ in range(5):
        u = random_admissible(grid64, rng, amplitude=rng.uniform(0.5, 3.0))
        q = np.abs(_cell_center_uy(u))
        band = float(((q > 1 - p.smooth_w) & (q < 1.0)).sum()) * grid64.hx * grid64.hy
        gap = abs(energy_smoothed(u, p) - energy(u, p).total)
        assert gap <= p.delta * band + 1e-12


def test_gradient_zero_at_origin(grid64):
    p = EnergyParams(0.1, 0.0, 1, smooth_w=0.1)
    g = energy_gradient(zero_field(grid64), p)
    assert np.abs(g.values).max() == 0.0


def test_gradient_requires_smoothing(grid64):
    with pytest.raises(ZeroSmoothing):
        energy_gradient(zero_field(grid64), EnergyParams(0.1, 0.1, 1, smooth_w=0.0))


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_gradient_matches_finite_differences(grid64, rng, variant):
    p = EnergyParams(0.12, 0.6, variant, smooth_w=0.15)
    u = random_admissible(grid64, rng, amplitude=0.9)
    grad = energy_gradient(u, p).values
    for _ in range(3):
        d = np.array(random_admissible(grid64, rng, amplitude=1.0).values)
        d[0, :] = 0.0
        t = 1e-5
        fd = (energy_smoothed(u.with_values(u.values + t * d), p)
              - energy_smoothed(u.with_values(u.values - t * d), p)) / (2 * t)
        an = float((grad * d).sum())
        assert abs(an - fd) <= 1e-5 * (abs(fd) + 1e-12)


def test_gradient_pins_left_edge(grid64, rng):
    u = random_admissible(grid64, rng, amplitude=1.0)
    g = energy_gradient(u, EnergyParams(0.1, 0.5, 2, smooth_w=0.1))
    assert np.abs(g.values[0, :]).max() == 0.0


def test_breakdown_json_keys(grid64):
    br = energy(zero_field(grid64), EnergyParams(0.1, 0.2, 1))
    assert set(br.to_json_dict()) == {"surface", "elastic", "well", "total",
                                      "area_B", "area_A"}


# The smoothed energy and its gradient as two separate passes, each doing its
# own forward applies: the references for the fused value/gradient kernel.

def _smoothstep_indicator_ref(q, w):
    t = np.clip((q - (1.0 - w)) / w, 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)


def _smoothstep_slope_ref(q, w):
    t = (q - (1.0 - w)) / w
    inside = (t > 0.0) & (t < 1.0)
    out = np.zeros_like(q)
    tb = t[inside]
    out[inside] = -6.0 * tb * (1.0 - tb) / w
    return out


def _energy_smoothed_ref(u, p):
    g = u.grid
    surface, elastic = surface_and_elastic(u, p.epsilon, p.variant)
    s = _smoothstep_indicator_ref(np.abs(_cell_center_uy(u)), p.smooth_w)
    return surface + elastic + p.delta * g.hx * g.hy * float(s.sum())


def _energy_gradient_ref(u, p):
    g = u.grid
    wx = _x_weights(g)[:, None]
    scale = g.hx * g.hy
    grad = np.zeros_like(u.values)
    for x, y, w in SURFACE_STENCILS[p.variant]:
        grad += 2.0 * w * p.epsilon**2 * scale * adjoint(
            g, wx * apply(g, u.values, x, y), x, y)
    grad += 2.0 * scale * adjoint(g, wx * apply(g, u.values, "Dx"), "Dx")
    uy_c = _cell_center_uy(u)
    slope = _smoothstep_slope_ref(np.abs(uy_c), p.smooth_w) * np.sign(uy_c)
    grad += p.delta * scale * adjoint(g, slope, "Axc", "Fy")
    grad[0, :] = 0.0
    return grad


GRID_SHAPES = st.sampled_from([(1.0, 64, 64), (2.0, 80, 48)]) | st.tuples(
    st.floats(0.25, 4.0), st.integers(8, 40), st.integers(8, 40))


@settings(max_examples=150, deadline=None)
@given(shape=GRID_SHAPES, variant=st.sampled_from([1, 2, 3]),
       w=st.floats(0.0, 0.5, exclude_min=True), delta=st.floats(0.0, 3.0),
       eps=st.floats(0.005, 0.3), kind=st.sampled_from(["band", "random", "branched"]),
       amplitude=st.floats(0.05, 4.0), seed=st.integers(0, 2**32 - 1))
def test_fused_smoothed_kernel_matches_two_pass(shape, variant, w, delta, eps, kind,
                                                amplitude, seed):
    # same bits for (value, gradient); "band" scales max |u_y| to 1, so cells
    # fall on both sides of the smoothstep band and inside it
    g = make_grid(*shape)
    rng = np.random.default_rng(seed)
    u = random_admissible(g, rng, amplitude=amplitude)
    if kind == "band":
        u = u.with_values(u.values / float(np.abs(_cell_center_uy(u)).max()))
    elif kind == "branched":
        try:
            u = branched_seed(BranchedSpec.from_epsilon(eps, g.L), g)
        except ValueError:
            pass   # unresolvable here: keep the random field
    p = EnergyParams(eps, delta, variant, smooth_w=w)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value, grad = energy_smoothed(u, p), energy_gradient(u, p).values
        value_ref, grad_ref = _energy_smoothed_ref(u, p), _energy_gradient_ref(u, p)
    assert value.hex() == value_ref.hex()
    assert grad.tobytes() == grad_ref.tobytes()
