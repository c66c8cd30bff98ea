import dataclasses
import io
import json
import math
from fractions import Fraction
import importlib
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellscape import (BandEmpty, BranchedSpec, BumpSpec, DegenerateInterval,
                       EmptyB, EmptyPiM, EnergyParams, ScalarField, TauOne, branched_seed, cli,
                       energy, estimate_interp_constant,
                       field_from_function, killerinterp_check, lemma1_check,
                       make_grid, nucleation_bump,
                       obstacle_min_1d, poincare_check, potential_seed,
                       pq_region, proportional_band, reports_to_csv,
                       theorem2_bounds, truncate_b, wopper_check, zero_field)
from wellscape import PotentialSpec, calibrate
import wellscape.grid as grid_module
from wellscape.bounds import calibration_value, killerinterp_sides, obstacle_qp_oracle
from wellscape.energy import (CELL_UY, b_geometry, column_uyy_integrals, scale_to_uy_peak,
                              surface_and_elastic)
from wellscape.grid import _adopt, _field_row_sums, apply, d_yy, integrate, l2_norm
from wellscape.landscape import random_admissible

# the package exports the function energy under the module's name
energy_module = importlib.import_module("wellscape.energy")


# ---------------------------------------------------------------------------
# obstacle problem

def test_obstacle_analytic_values():
    assert obstacle_min_1d(0.0, 0.5) == pytest.approx(8.0)
    assert obstacle_min_1d(0.0, 1.0) == pytest.approx(4.0)


def test_obstacle_degenerate():
    with pytest.raises(DegenerateInterval):
        obstacle_min_1d(0.5, 0.5)


@pytest.mark.parametrize("pair", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf),
                                  (-math.inf, 1.0), (0.5, 0.2)])
def test_obstacle_rejects_non_finite_or_reversed_endpoints(pair):
    with pytest.raises(DegenerateInterval):
        obstacle_min_1d(*pair)
    with pytest.raises(DegenerateInterval):
        obstacle_qp_oracle(*pair, 16)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_obstacle_qp_needs_two_panels(n):
    with pytest.raises(ValueError, match="n >= 2"):
        obstacle_qp_oracle(0.0, 1.0, n)


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


def _second_difference_gram(n: int) -> np.ndarray:
    """D2^T D2 for the (n-1) x (n+1) second difference D2 (rows 1, -2, 1),
    assembled from each row's 3 x 3 element matrix: the entries are small
    integers, exact in any order, so this is the product bit for bit."""
    gram = np.zeros((n + 1, n + 1))
    stencil = np.array([1.0, -2.0, 1.0])
    idx = np.arange(n - 1)
    for a in range(3):
        for b in range(3):
            gram[idx + a, idx + b] += stencil[a] * stencil[b]
    return gram


def _dense_kkt(n: int, h):
    """The obstacle QP's full KKT matrix and right-hand side over all n + 1
    nodes, as nested lists of h's type (float or Fraction)."""
    gram = _second_difference_gram(n)
    zero = h * 0
    one = zero + 1
    N = n + 1
    A = [[zero] * N for _ in range(3)]
    A[0][:3] = [-3 / (2 * h), 4 / (2 * h), -1 / (2 * h)]   # f'(y1) = 1
    A[1][n - 2:] = [1 / (2 * h), -4 / (2 * h), 3 / (2 * h)]  # f'(y2) = -1
    A[2][0] = one                                             # gauge f(y1) = 0
    kkt = [[2 * int(gram[i, j]) / h**3 for j in range(N)] + [A[r][i] for r in range(3)]
           for i in range(N)]
    kkt += [A[r] + [zero] * 3 for r in range(3)]
    return kkt, [zero] * N + [one, -one, zero]


def _solve_exact(matrix, rhs):
    """Gauss-Jordan elimination over Fractions."""
    rows = [row[:] + [r] for row, r in zip(matrix, rhs)]
    n = len(rows)
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k] != 0)
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(n):
            if i != k and rows[i][k] != 0:
                factor = rows[i][k] / rows[k][k]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


@pytest.mark.parametrize("pair", [(0.0, 1.0), (0.2, 0.9)])
@pytest.mark.parametrize("n", range(2, 13))
def test_obstacle_qp_matches_an_exact_dense_solve(n, pair):
    # the reduced QP is the dense one: its value agrees with an exact
    # rational solve of the full (n+4)^2 KKT system
    y1, y2 = pair
    h = (Fraction(y2) - Fraction(y1)) / n
    f = _solve_exact(*_dense_kkt(n, h))[:n + 1]
    exact = sum((f[i - 1] - 2 * f[i] + f[i + 1]) ** 2 for i in range(1, n)) / h**3
    value, nodes, prof = obstacle_qp_oracle(y1, y2, n)
    assert abs(value - float(exact)) <= 1e-12 * float(exact)
    assert nodes.shape == prof.shape == (n + 1,)
    assert np.allclose(prof, [float(v) for v in f], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [16, 64, 512])
def test_obstacle_qp_profile_matches_the_dense_float_kkt(n):
    y1, y2 = 0.2, 0.9
    h = (y2 - y1) / n
    kkt, rhs = _dense_kkt(n, h)
    f = np.linalg.solve(np.array(kkt), np.array(rhs))[:n + 1]
    value, _, prof = obstacle_qp_oracle(y1, y2, n)
    assert np.abs(prof - f).max() <= 1e-8
    gram = _second_difference_gram(n) / h**3
    assert value == pytest.approx(float(f @ gram @ f), rel=1e-7)


def test_obstacle_qp_memory_is_linear_in_n(traced_peak):
    # the dense KKT would need (n+4)^2 * 8 B = 80 GB here
    n = 10**5
    (value, nodes, prof), peak = traced_peak(lambda: obstacle_qp_oracle(0.0, 1.0, n))
    assert peak < 16e6
    assert value == pytest.approx(4.0, rel=1e-3)
    assert prof.shape == (n + 1,)


def _cubic_basis_qp(y1: float, y2: float, n: int) -> tuple[float, np.ndarray]:
    """The obstacle QP solved in the basis of its optimum, as a reference.

    Rows 3..n-3 of the stationarity condition read Delta^4 f = 0, so the
    optimum is a cubic on nodes 1..n-1 with f_0 and f_n free (the discrete
    Holladay theorem).  The QP is solved in that basis, f_0, f_n and
    min(4, n-1) monomials of a node coordinate in [-1, 1], by a KKT system
    of at most 9 x 9.  Returns (value, profile).
    """
    h = (y2 - y1) / n
    m = min(4, n - 1)
    step = 2.0 / n
    t = (np.arange(1, n) - 0.5 * n) * step
    powers = np.arange(m)

    def node(i):
        row = np.zeros(m + 2)
        if i == 0:
            row[0] = 1.0
        elif i == n:
            row[1] = 1.0
        else:
            row[2:] = t[i - 1] ** powers
        return row

    d2 = np.zeros((n - 1, m + 2))
    for j in range(2, m):
        d2[1:-1, 2 + j] = j * (j - 1) * step**2 * t[1:-1] ** (j - 2)
    d2[0] = node(0) - 2.0 * node(1) + node(2)
    d2[-1] = node(n - 2) - 2.0 * node(n - 1) + node(n)
    A = np.stack([(-3.0 * node(0) + 4.0 * node(1) - node(2)) / (2.0 * h),
                  (node(n - 2) - 4.0 * node(n - 1) + 3.0 * node(n)) / (2.0 * h),
                  node(0)])
    kkt = np.zeros((m + 5, m + 5))
    kkt[:m + 2, :m + 2] = 2.0 / h**3 * (d2.T @ d2)
    kkt[:m + 2, m + 2:] = A.T
    kkt[m + 2:, :m + 2] = A
    sol = np.linalg.solve(kkt, np.concatenate([np.zeros(m + 2), [1.0, -1.0, 0.0]]))
    c, lam = sol[:m + 2], sol[m + 2:]
    # the active set is KKT-consistent: f'(y1) >= 1 needs lam <= 0, f'(y2) <= -1 lam >= 0
    assert lam[0] <= 0.0 <= lam[1]
    f = np.empty(n + 1)
    f[0], f[n] = c[0], c[1]
    f[1:n] = np.polynomial.polynomial.polyval(t, c[2:])
    s = d2 @ c
    return float(s @ s) / h**3, f


@settings(max_examples=100, deadline=None)
@given(y1=st.floats(-10.0, 10.0), width=st.floats(1e-3, 20.0), n=st.integers(2, 4096))
def test_obstacle_qp_closed_form_matches_the_cubic_basis_kkt(y1, width, n):
    # the tolerances are the reference's own accuracy: against exact
    # rationals its value errs by up to 5e-9 (width 1e-3, n near 4000) and
    # its profile by up to 1.2e-6 of the profile's max (n near 3900), where
    # the closed form errs by at most 2e-16 and 1.5e-13
    y2 = y1 + width
    value, nodes, prof = obstacle_qp_oracle(y1, y2, n)
    ref_value, ref_prof = _cubic_basis_qp(y1, y2, n)
    assert abs(value - ref_value) <= 1e-8 * ref_value
    assert np.abs(prof - ref_prof).max() <= 1e-4 * np.abs(ref_prof).max()


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
        u = ScalarField(w.grid, w.values * (rng.uniform(1.1, 2.5) / top))
        geom = b_geometry(u)
        if geom.area_b <= 0 or geom.tau is None or geom.tau >= 1 - 1e-9:
            continue
        assert lemma1_check(u).holds
        checked += 1
    assert checked >= 40


# ---------------------------------------------------------------------------
# interpolation and Poincare

def _interp_integrals(f: np.ndarray) -> tuple[float, float, float]:
    """(int f''^2, int f^2, int f'^2) of a periodic profile on [0, 1)."""
    hy = 1.0 / f.size
    fyy = (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / hy**2
    fy = (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * hy)
    return hy * float(fyy @ fyy), hy * float(f @ f), hy * float(fy @ fy)


def _grid_interp_constant(family, sigma_grid) -> float:
    """The interpolation constant minimized over a sigma grid, as a reference."""
    sigma = np.asarray(list(sigma_grid), dtype=float)
    best = math.inf
    for f in family:
        a, bb, c = _interp_integrals(np.asarray(f, dtype=float))
        if c <= 1e-14 * (a + bb + 1.0):
            continue
        best = min(best, float(((a / sigma**2 + sigma**2 * bb) / c).min()))
    return best


def test_interp_constant_pure_modes():
    # sigma-minimized ratio is exactly 2 for every mode (2 sqrt(ab)/c with
    # a*b = c^2 for pure modes), so the family infimum is 2
    y = np.arange(2048) / 2048.0
    family = [np.sin(2 * np.pi * n * y) for n in range(1, 9)]
    est = estimate_interp_constant(family)
    assert est == pytest.approx(2.0, rel=1e-3)


def test_interp_constant_skips_constants():
    y = np.arange(512) / 512.0
    est = estimate_interp_constant([np.ones_like(y)])
    assert est == math.inf


def _random_profile(rng, m: int) -> np.ndarray:
    y = np.arange(m) / m
    f = np.zeros(m)
    for n in range(1, 7):
        f += rng.normal() / n * np.cos(2 * np.pi * n * y + rng.uniform(0, 2 * np.pi))
    return f


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sigma_grid=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=50))
def test_interp_constant_is_at_most_any_grid_minimum(seed, sigma_grid):
    family = [_random_profile(np.random.default_rng(seed + k), 256) for k in range(3)]
    est = estimate_interp_constant(family)
    assert est <= _grid_interp_constant(family, sigma_grid) * (1 + 1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_interp_constant_is_the_grid_minimum_at_the_optimal_sigma(seed):
    f = _random_profile(np.random.default_rng(seed), 512)
    a, bb, _ = _interp_integrals(f)
    grid = [0.5, (a / bb) ** 0.25, 50.0]
    est = estimate_interp_constant([f])
    assert est == pytest.approx(_grid_interp_constant([f], grid), rel=1e-12)


def test_interp_constant_mixed_family_below_upper_bound(rng):
    family = [_random_profile(rng, 1024) for _ in range(25)]
    est = estimate_interp_constant(family)
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
    pot = potential_seed(PotentialSpec(4, 1.0), g)
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


# ---------------------------------------------------------------------------
# the per-field memo the checkers share

def _bits(value):
    """value with every float as its hex and every array as its bytes."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(_bits(getattr(value, f.name))
                                               for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _outcome(check, u):
    try:
        return "value", _bits(check(u))
    except (EmptyB, TauOne, EmptyPiM) as exc:
        return "raised", type(exc).__name__, str(exc)


def _memo_checkers(eps, M):
    return {
        "lemma1": lemma1_check,
        "poincare": poincare_check,
        "wopper": lambda u: wopper_check(u, eps),
        "killerinterp": lambda u: killerinterp_check(u, M),
        "killerinterp_sides": lambda u: killerinterp_sides(u, M),
        "truncate_b": lambda u: truncate_b(u, M),
        "column_uyy_integrals": column_uyy_integrals,
        "l2_norm": l2_norm,
        "b_geometry": b_geometry,
        "surface_and_elastic": lambda u: surface_and_elastic(u, eps, 3),
        "energy": lambda u: energy(u, EnergyParams(eps, 0.3, 2)),
    }


def _memo_field(kind, L, nx, ny, seed, peak):
    g = make_grid(L, nx, ny)
    if kind == "branched":
        return branched_seed(BranchedSpec.from_epsilon(0.05 / L, L), g)
    if kind == "bump":
        return nucleation_bump(BumpSpec(0.25, L, 1.0 + peak, L), g)
    if kind == "tent":
        # |u_y| = 1 on all cells but one of each column past x = 0: a tie
        # plateau of ny - 1 cells counts ny hy = 1, so tau = 1 (TauOne)
        j = np.arange(ny)
        tent = np.minimum(j, ny - 1 - j) / ny
        return ScalarField(g, np.where(g.x_nodes[:, None] > 0.0, tent, 0.0))
    return scale_to_uy_peak(random_admissible(g, np.random.default_rng(seed)), peak)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["random", "branched", "bump", "tent"]),
       L=st.floats(0.5, 2.0).filter(lambda L: L != 1.0),
       nx=st.integers(8, 20).map(lambda k: 2 * k + 1),
       ny=st.integers(16, 20).map(lambda k: 2 * k + 1),
       seed=st.integers(0, 2**32 - 1), peak=st.floats(0.5, 2.5),
       M=st.sampled_from([1e30, 1e-300, "median"]),
       order=st.permutations(sorted(_memo_checkers(0.1, 1.0))))
def test_checkers_report_the_same_bits_from_a_filled_memo(kind, L, nx, ny, seed, peak,
                                                          M, order):
    # each checker on a fresh field, against the same checker once the others
    # have filled the shared field's memo in the drawn order; the exceptions
    # of a field outside a checker's domain are raised alike
    def make():
        return _memo_field(kind, L, nx, ny, seed, peak)

    if M == "median":
        u = make()
        pi = b_geometry(u).pi_columns
        M = 2.0 * float(np.median(column_uyy_integrals(u)[pi])) + 1e-12 if pi.size else 1.0
    checkers = _memo_checkers(0.1, M)
    fresh = {name: _outcome(check, make()) for name, check in checkers.items()}
    shared = make()
    for name in order + order[::-1]:
        assert _outcome(checkers[name], shared) == fresh[name], name
    # the memo keeps per-column vectors only, no field-sized array
    for entry in shared._memo.values():
        arrays = [entry] if isinstance(entry, np.ndarray) else \
            [getattr(entry, f.name) for f in dataclasses.fields(entry)]
        for a in arrays:
            if isinstance(a, np.ndarray):
                assert a.ndim == 1 and a.size <= nx + 1 and not a.flags.writeable
    # fields made from a filled one start with an empty memo
    assert shared._memo
    for child in (ScalarField(shared.grid, shared.values), _adopt(shared, shared.values.copy()),
                  dataclasses.replace(shared)):
        assert child._memo == {} and child._memo is not shared._memo


def test_memoized_arrays_are_read_only():
    g = make_grid(1.0, 64, 64)
    u = branched_seed(BranchedSpec.from_epsilon(0.02, 1.0), g)
    geom = b_geometry(u)
    assert b_geometry(u) is geom
    rows = [_field_row_sums(u, x, y) for x, y in [(None, None), ("Dx", None), (None, "Dyy")]]
    for a in [geom.column_lengths, geom.pi_columns, *rows]:
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_verify_computes_each_field_quantity_once(tmp_path, monkeypatch):
    # one verify-inequalities run: per field one B-geometry and the three
    # squared row-sum passes (u, u_x, u_yy), however many checkers read them
    geometries, passes = [], []
    uncached_geometry = energy_module._b_geometry
    uncached_rows = grid_module._square_row_sums

    def count_geometry(u):
        geometries.append(u)
        return uncached_geometry(u)

    def count_rows(grid, values, x=None, y=None):
        passes.append((values, x, y))
        return uncached_rows(grid, values, x, y)

    monkeypatch.setattr(energy_module, "_b_geometry", count_geometry)
    monkeypatch.setattr(grid_module, "_square_row_sums", count_rows)
    cfg = {"schema": 1, "command": "verify-inequalities", "seed": 3,
           "grid": {"L": 1.0, "nx": 64, "ny": 64}, "energy": {"epsilon": 0.02},
           "n_random": 5}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.run(str(path), str(tmp_path / "out")) == 0
    fields = {id(u.values): u for u in geometries}
    assert len(geometries) == len(fields) == 6   # the branched seed and 5 random
    per_field = {}
    for values, x, y in passes:
        per_field.setdefault(id(values), []).append((x, y))
    assert set(per_field) == set(fields)
    for ops in per_field.values():
        assert sorted(ops, key=str) == sorted([(None, None), ("Dx", None), (None, "Dyy")],
                                              key=str)
