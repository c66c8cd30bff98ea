import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellscape import (InvalidGrid, ScalarField, d_x, d_xx, d_xy, d_y, d_yy,
                       field_from_function, integrate, l2_norm, make_grid,
                       read_field, shift_y, validate_admissible, write_field,
                       zero_field)
from wellscape.energy import SURFACE_STENCILS
from wellscape.grid import _ops, adjoint, apply

# every (x, y) operator pair the energies apply: the surface stencils, the
# elastic u_x, the cell-center u_y of the well term and the cell averaging
# of column_uyy_integrals
OPERATOR_PAIRS = sorted({(x, y) for rows in SURFACE_STENCILS.values() for x, y, _ in rows}
                        | {("Dx", None), ("Axc", "Fy"), ("Axc", "Ayc")}, key=str)


def test_make_grid_spacings():
    g = make_grid(2.0, 64, 64)
    assert g.hx == 0.03125
    assert g.hy == 0.015625


def test_make_grid_boundary_of_precondition():
    g = make_grid(1.0, 8, 8)
    assert g.nx == 8 and g.ny == 8


@pytest.mark.parametrize("args", [(1.0, 4, 64), (1.0, 64, 4), (0.0, 64, 64),
                                  (-1.0, 64, 64)])
def test_make_grid_rejects(args):
    with pytest.raises(InvalidGrid):
        make_grid(*args)


def test_dy_sine():
    g = make_grid(1.0, 128, 128)
    u = field_from_function(g, lambda X, Y: np.sin(2 * np.pi * Y))
    exact = field_from_function(g, lambda X, Y: 2 * np.pi * np.cos(2 * np.pi * Y))
    err = np.abs(d_y(u).values - exact.values).max()
    assert err <= 10.0 * g.hy**2 * (2 * np.pi) ** 3


def test_dy_constant_is_zero(grid64):
    u = field_from_function(grid64, lambda X, Y: 0.7 * np.ones_like(X))
    assert np.abs(d_y(u).values).max() == 0.0


def test_dy_seam_stencil():
    # u = y(1-y) periodized: the stencil at j=0 uses rows ny-1 and 1
    g = make_grid(1.0, 16, 16)
    u = field_from_function(g, lambda X, Y: Y * (1 - Y))
    dy = d_y(u).values
    hy = g.hy
    assert dy[3, 0] == pytest.approx(
        ((hy * (1 - hy)) - ((1 - hy) * hy)) / (2 * hy), abs=1e-14)  # = 0
    assert dy[3, 1] == pytest.approx(
        ((2 * hy * (1 - 2 * hy)) - 0.0) / (2 * hy), abs=1e-14)


def test_dx_affine_exact(grid64):
    u = field_from_function(grid64, lambda X, Y: 3.0 * X)
    assert np.abs(d_x(u).values - 3.0).max() < 1e-13


def test_dx_quadratic_interior_exact():
    g = make_grid(1.0, 32, 16)
    u = field_from_function(g, lambda X, Y: X**2)
    dx = d_x(u).values
    expected = 2.0 * g.x_nodes[:, None] * np.ones((1, g.ny))
    assert np.abs(dx - expected).max() < 1e-12  # 2nd-order one-sided: exact too


def test_dx_constant_zero(grid64):
    u = field_from_function(grid64, lambda X, Y: np.full_like(X, 2.5))
    assert np.abs(d_x(u).values).max() < 1e-14


def test_dyy_sine():
    g = make_grid(1.0, 128, 128)
    u = field_from_function(g, lambda X, Y: np.sin(2 * np.pi * Y))
    exact = -(2 * np.pi) ** 2 * np.sin(2 * np.pi * g.y_nodes)
    err = np.abs(d_yy(u).values - exact[None, :]).max()
    assert err <= 10.0 * g.hy**2 * (2 * np.pi) ** 4


def test_dxy_bilinear_interior():
    g = make_grid(1.0, 32, 32)
    u = field_from_function(g, lambda X, Y: X * Y)
    inner = d_xy(u).values[1:-1, 2:-2]
    assert np.abs(inner - 1.0).max() < 1e-11


def test_second_derivatives_of_affine_vanish(grid64):
    u = field_from_function(grid64, lambda X, Y: 1.0 + 2.0 * X)
    for op in (d_xx, d_xy):
        assert np.abs(op(u).values).max() < 1e-11
    assert np.abs(d_yy(u).values).max() < 1e-11


def test_integrate_constant():
    g = make_grid(2.0, 32, 32)
    assert integrate(field_from_function(g, lambda X, Y: np.ones_like(X))) == pytest.approx(2.0)


def test_integrate_sin_squared():
    g = make_grid(1.0, 256, 256)
    u = field_from_function(g, lambda X, Y: np.sin(2 * np.pi * Y) ** 2)
    assert integrate(u) == pytest.approx(0.5, abs=1e-6)


def test_integrate_zero(grid64):
    assert integrate(zero_field(grid64)) == 0.0


def test_l2_norm_examples():
    g = make_grid(4.0, 64, 64)
    assert l2_norm(zero_field(g)) == 0.0
    assert l2_norm(field_from_function(g, lambda X, Y: np.ones_like(X))) == pytest.approx(2.0)
    g1 = make_grid(1.0, 256, 256)
    u = field_from_function(g1, lambda X, Y: np.sin(2 * np.pi * Y))
    assert l2_norm(u) == pytest.approx(math.sqrt(0.5), abs=1e-6)


def test_validate_admissible():
    g = make_grid(1.0, 32, 32)
    assert validate_admissible(zero_field(g)).ok
    u = field_from_function(g, lambda X, Y: X * np.sin(2 * np.pi * Y))
    assert validate_admissible(u).ok
    bad = field_from_function(g, lambda X, Y: 1.0 + X)
    rep = validate_admissible(bad)
    assert not rep.ok and "Dirichlet" in rep.violations[0]


def test_periodic_shift_commutes(grid64, rng):
    u = field_from_function(grid64, lambda X, Y: np.sin(2 * np.pi * Y) + X * np.cos(4 * np.pi * Y))
    for op in (d_y, d_yy):
        lhs = op(shift_y(u, 5)).values
        rhs = shift_y(op(u), 5).values
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() < 1e-12 * scale


def test_integral_of_dy_vanishes(grid64, rng):
    vals = rng.normal(size=(grid64.nx + 1, grid64.ny))
    vals[0, :] = 0.0
    u = ScalarField(grid64, vals)
    assert abs(integrate(d_y(u))) <= 1e-10 * grid64.nx * grid64.ny


def test_operators_linear(grid64, rng):
    a, b = 1.7, -0.4
    u = ScalarField(grid64, rng.normal(size=(65, 64)))
    v = ScalarField(grid64, rng.normal(size=(65, 64)))
    w = ScalarField(grid64, a * u.values + b * v.values)
    for op in (d_x, d_y, d_xx, d_yy, d_xy):
        lhs = op(w).values
        rhs = a * op(u).values + b * op(v).values
        scale = np.abs(rhs).max() + 1.0
        assert np.abs(lhs - rhs).max() < 1e-12 * scale


@pytest.mark.parametrize("op", [d_x, d_y, d_xx, d_yy, d_xy])
def test_second_order_convergence(op):
    def sample(n):
        g = make_grid(1.0, n, n)
        u = field_from_function(g, lambda X, Y: np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y))
        return g, op(u).values

    def exact(g):
        X, Y = g.node_mesh()
        tp = 2 * np.pi
        table = {
            d_x: tp * np.cos(tp * X) * np.sin(tp * Y),
            d_y: tp * np.sin(tp * X) * np.cos(tp * Y),
            d_xx: -tp**2 * np.sin(tp * X) * np.sin(tp * Y),
            d_yy: -tp**2 * np.sin(tp * X) * np.sin(tp * Y),
            d_xy: tp**2 * np.cos(tp * X) * np.cos(tp * Y),
        }
        return table[op]

    errs = []
    for n in (64, 128):
        g, got = sample(n)
        errs.append(np.abs(got - exact(g)).max())
    assert errs[0] / errs[1] >= 3.5


@settings(max_examples=60, deadline=None)
@given(pair=st.sampled_from(OPERATOR_PAIRS), nx=st.integers(8, 48),
       ny=st.integers(8, 48), L=st.floats(0.25, 4.0), seed=st.integers(0, 2**32 - 1))
def test_adjoint_identity(pair, nx, ny, L, seed):
    # <apply(u), v> = <u, adjoint(v)>, relative to |apply(u)| |v|
    x, y = pair
    g = make_grid(L, nx, ny)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(nx + 1, ny))
    au = apply(g, u, x, y)
    v = rng.normal(size=au.shape)
    lhs = float((au * v).sum())
    rhs = float((u * adjoint(g, v, x, y)).sum())
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(au) * np.linalg.norm(v)


X_OPS = ("Dx", "Dxx", "Axc")
Y_OPS = ("Dy", "Dyy", "Fy", "Ayc")


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(X_OPS + Y_OPS), nx=st.integers(8, 48),
       ny=st.integers(8, 48), L=st.floats(0.25, 4.0), fortran=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_apply_adjoint_match_plain_products(name, nx, ny, L, fortran, seed):
    # apply/adjoint compute X @ v, X^T @ v, (Y @ v^T)^T and (Y^T @ v^T)^T from
    # cached CSR matrices; scipy's own D @ v, D.T @ v, v @ D.T and v @ D must
    # give the same bits and the same memory layout
    g = make_grid(L, nx, ny)
    D = _ops(g)[name][0]
    rng = np.random.default_rng(seed)
    order = "F" if fortran else "C"
    u = np.asarray(rng.normal(size=(nx + 1, ny)), order=order)
    if name in X_OPS:
        v = np.asarray(rng.normal(size=(D.shape[0], ny)), order=order)
        pairs = [(apply(g, u, name), D @ u), (adjoint(g, v, name), D.T @ v)]
    else:
        pairs = [(apply(g, u, y=name), u @ D.T), (adjoint(g, u, y=name), u @ D)]
    for got, want in pairs:
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()


def test_wsf1_roundtrip_bit_identical(tmp_path, rng):
    g = make_grid(0.7301246, 12, 9)
    vals = rng.normal(size=(13, 9)) * np.logspace(-8, 8, 9)[None, :]
    vals[0, 3] = 1.0 / 3.0
    vals[1, 0] = -0.0
    u = ScalarField(g, vals)
    path = tmp_path / "field.wsf1"
    write_field(path, u)
    back = read_field(path)
    assert back.grid == u.grid
    assert np.array_equal(back.values, u.values)
    first = path.read_text()
    assert first.startswith("WSF1 nx=12 ny=9 L=")
    write_field(path, back)
    assert path.read_text() == first
