from dataclasses import replace
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from wellscape import (BranchedSpec, EmptyB, EnergyBreakdown, EnergyParams, NotAdmissible,
                       ZeroSmoothing, b_geometry, branched_seed,
                       energy, energy_gradient, energy_smoothed,
                       field_from_function, integrate, make_grid,
                       truncate_b, zero_field)
from wellscape.energy import (CELL_UY, SURFACE_STENCILS, TIE_TOL, _column_lengths,
                              _quadratic_sums, column_uyy_integrals, scale_to_uy_peak,
                              surface_and_elastic)
from wellscape.grid import (_STRIP_BYTES, ScalarField, Workspace, _x_weights, adjoint, apply,
                            d_yy, integrate_square)
from wellscape.landscape import certificate, random_admissible


def _cell_center_uy(u):
    """Whole-field reference: d/dy of the bilinear interpolant at cell centers."""
    return apply(u.grid, u.values, *CELL_UY)


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


@pytest.mark.parametrize("epsilon, delta", [(math.nan, 0.1), (math.inf, 0.1), (-math.inf, 0.1),
                                            (0.1, math.nan), (0.1, math.inf), (0.1, -math.inf),
                                            (0.0, 0.1), (0.1, -1e-300)])
def test_energy_params_reject_nonfinite_and_out_of_range(epsilon, delta):
    # nan <= 0 and nan < 0 are False and +inf passes both: finiteness is its own check
    with pytest.raises(ValueError):
        EnergyParams(epsilon, delta)


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
    e_shift = energy(ScalarField(u.grid, np.roll(u.values, 17, axis=1)), p).total
    assert abs(e_shift - e) <= 1e-10 * abs(e)


def test_smoothed_matches_sharp_outside_band(grid64):
    # all cell-center |u_y| far from (1-w, 1): smoothed == sharp exactly
    u = field_from_function(grid64, lambda X, Y: 0.1 * X * np.sin(2 * np.pi * Y))
    p = EnergyParams(0.1, 0.8, 1, smooth_w=0.05)
    q = np.abs(_cell_center_uy(u))
    assert not np.any((q > 1 - p.smooth_w) & (q < 1.0))
    assert energy_smoothed(u, p) == pytest.approx(energy(u, p).total, abs=1e-14)


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_smoothed_at_zero_width_is_the_sharp_total(grid64, rng, variant):
    p = EnergyParams(0.1, 0.8, variant)   # smooth_w = 0
    fields = [zero_field(grid64), random_admissible(grid64, rng, amplitude=2.0),
              branched_seed(BranchedSpec.from_epsilon(0.1, 1.0), grid64)]
    for u in fields:
        assert energy_smoothed(u, p) == energy(u, p).total


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
        fd = (energy_smoothed(ScalarField(u.grid, u.values + t * d), p)
              - energy_smoothed(ScalarField(u.grid, u.values - t * d), p)) / (2 * t)
        an = float((grad * d).sum())
        assert abs(an - fd) <= 1e-5 * (abs(fd) + 1e-12)


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_well_term_gradient_matches_finite_differences(grid64, rng, variant):
    # the well term alone: the quadratic terms are the same computation at
    # delta = 0, so they cancel in both differences.  Scaled to a u_y peak
    # of 4, a random field has 14-27 % of its cells in the band (0.5, 1)
    # (rng seeds 0-39), against under 3 % for the fields of the test above
    p = EnergyParams(0.12, 0.6, variant, smooth_w=0.5)
    p0 = replace(p, delta=0.0)
    u = scale_to_uy_peak(random_admissible(grid64, rng, amplitude=0.9), 4.0)
    q = np.abs(_cell_center_uy(u))
    assert np.mean((q > 1.0 - p.smooth_w) & (q < 1.0)) >= 0.1
    grad = energy_gradient(u, p).values - energy_gradient(u, p0).values

    def well(values):
        v = ScalarField(u.grid, values)
        return energy_smoothed(v, p) - energy_smoothed(v, p0)

    for _ in range(3):
        d = np.array(random_admissible(grid64, rng, amplitude=1.0).values)
        d[0, :] = 0.0
        t = 1e-6
        fd = (well(u.values + t * d) - well(u.values - t * d)) / (2 * t)
        an = float((grad * d).sum())
        assert abs(an - fd) <= 1e-5 * abs(fd)


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


def _gamma(n):
    """Summing n terms and rounding the sum once more errs by at most gamma_n
    times the sum of their magnitudes, u = 2**-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 3-4)."""
    u = 2.0**-53
    return n * u / (1.0 - n * u)


def _abs_operator(g, x=None, y=None):
    """|D| of the named x- or y-operator as a dense array, in the orientation
    that adjoint multiplies by: an x-operator's (rows out, nx + 1) D, to take
    |D|^T from the left, a y-operator's (ny, ny) D, to take from the right,
    and the identity for None.  Applying an operator to the identity is
    exact: each entry is one coefficient or 0."""
    if x is not None:
        return np.abs(apply(g, np.eye(g.nx + 1), x))
    if y is not None:
        return np.abs(apply(g, np.eye(g.ny), y=y).T)
    return None


def _fused_kernel_bounds(u, p, grad_ref):
    """Entrywise bounds on |kernel - reference| for (value, gradient), fixed
    from the dtype and the terms' magnitudes, not from observed differences.

    Both sides take surface and elastic from the same quadrature, the
    adjoints' inputs (the weighted fields, the cell-center u_y) and the
    smoothstep coordinate t with the same bits.  They differ in the well
    sum, in the well term, and in the quadratic gradient terms: the kernel
    rounds each coefficient c times each coefficient of the adjoint's last
    operator once, then multiplies the inputs by that, where the reference
    multiplies the adjoint by c after.  A product or quotient rounds to
    x y (1 + d) + e, |d| <= u = 2**-53, and |e| <= eta = 2**-1075 where
    gradual underflow makes it subnormal (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, sec. 2.1); a sum carries no e.  Each e is
    then scaled by the factors multiplied in after it.
    * Value: the kernel sums the n cells' t^2 and t q, q = (1 - t) t, in
      two einsums and forms n - sum t^2 - 2 sum t q: with t^2 + 2 t^2 (1 - t)
      <= 1, it errs by at most gamma_(n+2) n from the sums (3 roundings in
      t q) and 2 u n from the two subtractions.  The reference sums the
      cells' 1 - s (a magnitude of at most 2 each; at most 4 roundings per
      term).  Each side scales its sum by delta hx hy and adds surface and
      elastic, so it lies within gamma_(n+8) of the exact value relative to
      surface + elastic + 2 n delta hx hy, and the two within twice that.
      The e's, scaled by delta hx hy: the kernel's t t (1), q (2 t: at most
      2) and t q (2) per cell, the reference's t t (3 - 2 t: at most 3) and
      its product with 3 - 2 t (1); and on each side the three of
      ((delta hx) hy) times the sum, scaled by hy times the sum (at most n),
      by the sum and by 1.
    * Gradient: with R_k = |X|^T |v_k| |Y| the magnitude of the k-th
      quadratic term's adjoint of its input v_k, and P = sum_k |c_k| R_k,
      each side's term errs by at most gamma_9 |c_k| R_k (4 roundings in
      each operator, one in the coefficient, folded or not).  Each side's
      well term errs by at most gamma_12 times M = delta hx hy |A|^T |slope|,
      A the cell-center u_y operator (4 roundings in the slope, 4 in the two
      operators, 4 in the factor), and |Fy| = (2 / hy) Ayc.  At most 4
      additions accumulate the terms, so each side lies within
      gamma_16 (P + M) of the exact gradient and the two within
      2 gamma_16 (P + M); gamma_17 covers the roundings of P and M, which
      sum non-negative terms.  The e's, with a = |A|^T |slope|:
      - the kernel forms F = ((-6 delta) hx hy) / w and folds it into Fy^T:
        F's three e's are scaled by |A^T (t (1 - t))|, at most a w / 6,
        times hx hy / w, 1 / w and 1.  The e's of t (1 - t) and of Axc^T's
        halving come to 4 / hy eta, scaled by |F|.  Fy^T's products with
        its folded coefficients (two at the wrap) and the e's of those
        coefficients, scaled by at most 1 / 4 each, are under 3.
      - the reference forms D = delta hx hy, A^T slope with slope =
        ((-6 t)(1 - t)) / w, and D times it.  D's e is scaled by a.  The
        slope's three e's, (2 / w + 1) eta, and the operators' come to
        ((2 / hy)(2 / w + 2) + 2) eta, scaled by |D|.  The last is 1.
      - each quadratic term: the kernel's folded coefficient c s, its e
        scaled by the unit sum (at most R_k / s, s the last operator's
        least coefficient magnitude), and at most 4 products; the
        reference's at most 4 products, scaled by |c_k|, and the product
        by c_k: under R_k / s + 6 + 4 |c_k|.
      Together under a (7 + w + hx hy) / 6 + delta hx hy (1 + 7 / w)
      (4 / hy + 2) + 4 + the quadratic terms' eta's.
    Each eta sum is doubled, for the (1 + u) factors, the eta^2 terms and
    the rounding of the bound itself: eta is no float, 2 eta = 2**-1074 is.
    """
    g = u.grid
    eta2 = 2.0**-1074
    surface, elastic = surface_and_elastic(u, p.epsilon, p.variant)
    scale = g.hx * g.hy
    n = g.nx * g.ny
    value = 2.0 * _gamma(n + 8) * (surface + elastic + 2.0 * n * p.delta * scale)
    value += eta2 * (9.0 * n * p.delta * scale + 2.0 * (n * g.hy + n + 1.0))
    wx = _x_weights(g)[:, None]
    quad, quad_eta = np.zeros_like(u.values), np.zeros_like(u.values)
    terms = [(x, y, 2.0 * w * p.epsilon**2 * scale) for x, y, w in SURFACE_STENCILS[p.variant]]
    for x, y, c in terms + [("Dx", None, 2.0 * scale)]:
        X, Y = _abs_operator(g, x=x), _abs_operator(g, y=y)
        r = np.abs(wx * apply(g, u.values, x, y))
        r = r if X is None else X.T @ r
        r = r if Y is None else r @ Y
        last = X if Y is None else Y
        quad += abs(c) * r
        quad_eta += r / last[last > 0].min() + 6.0 + 4.0 * abs(c)
    w = p.smooth_w
    t = np.clip((np.abs(_cell_center_uy(u)) - (1.0 - w)) / w, 0.0, 1.0)
    slope = 6.0 * t * (1.0 - t) / w
    a = (2.0 / g.hy) * adjoint(g, slope, "Axc", "Ayc")
    d = p.delta * scale
    well = d * a
    # d + 7 (d / w), not d (1 + 7 / w): at d = 0 a subnormal w gives 0, not nan
    underflow = eta2 * (a * (7.0 + w + scale) / 6.0
                        + (d + 7.0 * (d / w)) * (4.0 / g.hy + 2.0) + 4.0 + quad_eta)
    return value, 2.0 * _gamma(17) * (quad + well) + underflow


@settings(max_examples=150, deadline=None)
@given(shape=GRID_SHAPES, variant=st.sampled_from([1, 2, 3]),
       w=st.floats(0.0, 0.5, exclude_min=True), delta=st.floats(0.0, 3.0),
       eps=st.floats(0.005, 0.3), kind=st.sampled_from(["band", "random", "branched"]),
       amplitude=st.floats(0.05, 4.0), seed=st.integers(0, 2**32 - 1))
@example(shape=(1.0, 64, 64), variant=1, w=0.4375, delta=2.2250738585072014e-308,
         eps=0.25, kind="branched", amplitude=1.0, seed=0)
@example(shape=(1.0, 64, 64), variant=1, w=5e-324, delta=1.0, eps=0.25, kind="band",
         amplitude=1.0, seed=0)
@example(shape=(1.0, 64, 64), variant=1, w=0.5, delta=0.0, eps=0.005, kind="band",
         amplitude=0.0546875, seed=0)
@example(shape=(1.0, 64, 64), variant=2, w=0.25, delta=1.0, eps=0.05, kind="band",
         amplitude=1.0, seed=0)
def test_fused_smoothed_kernel_matches_two_pass(shape, variant, w, delta, eps, kind,
                                                amplitude, seed):
    # (value, gradient) within _fused_kernel_bounds of the two-pass
    # references; "band" scales max |u_y| to 1, so cells fall on both sides
    # of the smoothstep band and inside it.  The first example's delta, the
    # least normal float, makes the well factor subnormal: its gradient
    # entries differ by a few units of 2**-1074, the bound's underflow terms.
    # In the second, 6 / w overflows: the folded well factor must saturate,
    # or its 0 * inf gives nan.  In the third, delta = 0 leaves only the
    # quadratic terms, whose folded coefficients round apart from the
    # reference's where the gradient cancels.  The fourth puts the top
    # quarter of |u_y| in the band, where every term of the well sum counts
    g = make_grid(*shape)
    rng = np.random.default_rng(seed)
    u = random_admissible(g, rng, amplitude=amplitude)
    if kind == "band":
        u = ScalarField(u.grid, u.values / float(np.abs(_cell_center_uy(u)).max()))
    elif kind == "branched":
        try:
            u = branched_seed(BranchedSpec.from_epsilon(eps, g.L), g)
        except ValueError:
            pass   # unresolvable here: keep the random field
    p = EnergyParams(eps, delta, variant, smooth_w=w)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value, grad = energy_smoothed(u, p), energy_gradient(u, p).values
        value_ref, grad_ref = _energy_smoothed_ref(u, p), _energy_gradient_ref(u, p)
        value_bound, grad_bound = _fused_kernel_bounds(u, p, grad_ref)
    assert abs(value - value_ref) <= value_bound
    assert np.all(np.abs(grad - grad_ref) <= grad_bound)


@settings(max_examples=80, deadline=None)
@given(nx=st.integers(4, 20).map(lambda k: 2 * k + 1),
       ny=st.integers(4, 20).map(lambda k: 2 * k + 1),
       L=st.floats(0.25, 4.0).filter(lambda L: L != 1.0),
       variant=st.sampled_from([1, 2, 3]), eps=st.floats(0.005, 0.3),
       amplitude=st.floats(0.05, 4.0), seed=st.integers(0, 2**32 - 1))
def test_sharp_and_descent_paths_share_one_quadrature(nx, ny, L, variant, eps,
                                                      amplitude, seed):
    # the sharp path (no workspace) and the descent's workspace path give the
    # same bits, and both are the trapezoid-in-x quadrature of each square:
    # within 2 gamma_(n+4) of integrate(f**2) summed by SURFACE_STENCILS
    # weight, n the number of nodes (non-negative terms, so relative)
    g = make_grid(L, nx, ny)
    u = random_admissible(g, np.random.default_rng(seed), amplitude=amplitude)
    sharp = surface_and_elastic(u, eps, variant)
    surface, elastic, fields = _quadratic_sums(u.values, g, eps, variant, ws=Workspace())
    assert [v.hex() for v in sharp] == [surface.hex(), elastic.hex()]
    assert len(fields) == len(SURFACE_STENCILS[variant]) + 1
    ref_surface = eps**2 * sum(w * integrate(apply(g, u.values, x, y) ** 2, g)
                               for x, y, w in SURFACE_STENCILS[variant])
    ref_elastic = integrate(apply(g, u.values, "Dx") ** 2, g)
    tol = 2.0 * _gamma((nx + 1) * ny + 4)
    assert abs(surface - ref_surface) <= tol * ref_surface
    assert abs(elastic - ref_elastic) <= tol * ref_elastic


# magnitudes from 1e-3 to 1e3 and both zeros: squares from 1e-6 to 1e6 and
# +0.0, none of them subnormal, so the relative bounds below hold
ENTRIES = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3) | st.sampled_from([0.0, -0.0])


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(4, 20).map(lambda k: 2 * k + 1),
       ny=st.integers(4, 20).map(lambda k: 2 * k + 1),
       L=st.floats(0.25, 4.0).filter(lambda L: L != 1.0), data=st.data())
def test_integrate_square_is_integrate_of_the_square(nx, ny, L, data):
    # the einsum row sums and integrate's sums add the same non-negative
    # squares in other orders: within 2 gamma_(n+4), n the number of nodes
    g = make_grid(L, nx, ny)
    f = data.draw(arrays(np.float64, (nx + 1, ny), elements=ENTRIES))
    ref = integrate(f * f, g)
    assert abs(integrate_square(f, g) - ref) <= 2.0 * _gamma((nx + 1) * ny + 4) * ref


def _column_uyy_integrals_ref(u):
    """The three-apply form: u_yy^2 averaged to the cell centres by Axc and
    Ayc, then summed down each cell column."""
    g = u.grid
    cells = apply(g, apply(g, apply(g, u.values, y="Dyy") ** 2, "Axc"), y="Ayc")
    return g.hy * cells.sum(axis=1)


@settings(max_examples=80, deadline=None)
@given(nx=st.integers(4, 20).map(lambda k: 2 * k + 1),
       ny=st.integers(4, 20).map(lambda k: 2 * k + 1),
       L=st.floats(0.25, 4.0).filter(lambda L: L != 1.0),
       amplitude=st.floats(0.05, 4.0), seed=st.integers(0, 2**32 - 1))
def test_column_uyy_integrals_are_the_trapezoid_rule(nx, ny, L, amplitude, seed):
    # each column adds the same non-negative squares as the cell-averaging
    # reference, and hx * the column sum is integrate_square(u_yy): each
    # within 2 gamma of its reference (non-negative terms, so relative)
    g = make_grid(L, nx, ny)
    u = random_admissible(g, np.random.default_rng(seed), amplitude=amplitude)
    cols = column_uyy_integrals(u)
    ref = _column_uyy_integrals_ref(u)
    assert cols.shape == (nx,)
    assert np.all(np.abs(cols - ref) <= 2.0 * _gamma(ny + 8) * ref)
    whole = integrate_square(apply(g, u.values, y="Dyy"), g)
    assert abs(g.hx * cols.sum() - whole) <= 2.0 * _gamma((nx + 1) * ny + 4) * whole


def _sharp_refs(u, p):
    """energy(), b_geometry's (column_lengths, pi_columns, area_b, tau) and
    column_uyy_integrals, each from whole-field arrays."""
    g, v = u.grid, u.values
    q = np.abs(_cell_center_uy(u))
    mask = q >= 1.0 - TIE_TOL
    lengths = _column_lengths(mask, q, g.hy)
    pi = np.flatnonzero(mask.any(axis=1))
    area_b = float(g.hx * lengths.sum())
    tau = min(area_b / (g.hx * pi.size), 1.0) if area_b > 0.0 and pi.size else None
    surface = p.epsilon**2 * sum(w * integrate_square(apply(g, v, x, y), g)
                                 for x, y, w in SURFACE_STENCILS[p.variant])
    elastic = integrate_square(apply(g, v, "Dx"), g)
    cells = float(mask.sum()) * g.hx * g.hy
    well = p.delta * (g.L - cells)
    e = EnergyBreakdown(surface, elastic, well, surface + elastic + well, cells, g.L - cells)
    f = apply(g, v, y="Dyy")
    r = np.einsum("ij,ij->i", f, f)
    return e, (lengths, pi, area_b, tau), 0.5 * g.hy * (r[:-1] + r[1:])


@settings(max_examples=80, deadline=None)
@given(nx=st.integers(8, 24), ny=st.integers(16, 24).map(lambda k: 2 * k + 1),
       L=st.floats(0.25, 4.0).filter(lambda L: L != 1.0), rows=st.integers(1, 26),
       branched=st.booleans(), peak=st.floats(0.5, 3.0),
       variant=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
@example(nx=8, ny=33, L=0.7, rows=3, branched=True, peak=1.0, variant=3, seed=0)
@example(nx=8, ny=33, L=0.7, rows=1, branched=False, peak=1.5, variant=3, seed=1)
@example(nx=8, ny=35, L=1.5, rows=4, branched=False, peak=2.5, variant=2, seed=2)
def test_strip_mined_b_cells_and_integrals_match_the_whole_field(
        strip_rows, nx, ny, L, rows, branched, peak, variant, seed):
    # energy(), b_geometry and column_uyy_integrals evaluated a strip of rows
    # at a time give the bits of the whole-field references, on ties at
    # |u_y| = 1 (the branched seed, one period in ny >= 32 cells) and on
    # random fields that cross 1
    g = make_grid(L, nx, ny)
    if branched:
        u = branched_seed(BranchedSpec.from_epsilon(1.0 / (16.0 * L), L), g)
    else:
        u = scale_to_uy_peak(random_admissible(g, np.random.default_rng(seed)), peak)
    p = EnergyParams(0.05, 0.7, variant)
    e_ref, (lengths, pi, area_b, tau), cols_ref = _sharp_refs(u, p)
    with strip_rows(rows, ny):
        e = energy(u, p)
        geom = b_geometry(u)
        cols = column_uyy_integrals(u)
    assert e == e_ref
    assert geom.column_lengths.tobytes() == lengths.tobytes()
    assert geom.pi_columns.tobytes() == pi.tobytes()
    assert (geom.area_b, geom.tau) == (area_b, tau)
    assert cols.tobytes() == cols_ref.tobytes()


@pytest.mark.parametrize("make", [
    lambda g: branched_seed(BranchedSpec.from_epsilon(1e-3, g.L), g),
    lambda g: scale_to_uy_peak(random_admissible(g, np.random.default_rng(3)), 1.5),
], ids=["branched", "random"])
def test_sharp_energy_and_b_geometry_hold_no_whole_field(traced_peak, make):
    # at 512^2 a strip array holds _STRIP_BYTES, 64 rows, an eighth of the
    # field.  energy() holds the y-operator's window (the strip and a halo of
    # at most 3 rows), the x-operator's strip, then a strip's B-mask (a byte a
    # cell): under 3 strip arrays.  b_geometry adds _column_lengths' per-strip
    # temporaries (the rotation index, the gathered |u_y|, its run maxima and
    # a few byte arrays): under 7, still less than the field.  Evaluated on
    # whole fields, they held 3.0 and 2.6 fields
    g = make_grid(1.0, 512, 512)
    u = make(g)
    for fn, strips in ((lambda: energy(u, EnergyParams(1e-3, 0.1, 3)), 3),
                       (lambda: b_geometry(u), 7)):
        fn()   # the operator tables of the grid are built once
        _, peak = traced_peak(fn)
        assert peak <= strips * _STRIP_BYTES < u.values.nbytes, peak / _STRIP_BYTES


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(4, 15).map(lambda k: 2 * k + 1),
       ny=st.integers(4, 15).map(lambda k: 2 * k + 1), L=st.floats(0.25, 4.0),
       variant=st.sampled_from([1, 2, 3]), eps=st.floats(0.005, 0.3),
       delta=st.floats(0.0, 3.0), w=st.floats(0.01, 0.5),
       amplitude=st.floats(0.005, 0.5), zero_frac=st.floats(0.05, 0.95),
       seed=st.integers(0, 2**32 - 1))
def test_zero_signs_are_invisible(nx, ny, L, variant, eps, delta, w, amplitude,
                                  zero_frac, seed):
    # a field and its twin with -0.0 at each of its zeros (row 0 and a
    # random subset) must give the same bits in everything computed from them
    g = make_grid(L, nx, ny)
    rng = np.random.default_rng(seed)
    plus = amplitude * rng.normal(size=(nx + 1, ny))
    zero = rng.random(plus.shape) < zero_frac
    zero[0] = True
    plus[zero] = 0.0
    minus = plus.copy()
    minus[zero] = -0.0
    sharp = EnergyParams(eps, delta, variant)
    smooth = EnergyParams(eps, delta, variant, smooth_w=w)

    def results(values):
        u = ScalarField(g, values)
        br = energy(u, sharp)
        geom = b_geometry(u)
        return repr([br.to_json_dict(), energy_smoothed(u, sharp),
                     energy_smoothed(u, smooth), energy_gradient(u, smooth).values.tolist(),
                     geom.area_b, geom.tau, certificate(br, eps, L)])

    assert results(minus) == results(plus)
