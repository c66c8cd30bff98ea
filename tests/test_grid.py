from functools import partial
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wellscape import (BranchedSpec, InvalidGrid, NotAdmissible, PotentialSpec,
                       ScalarField, branched_seed, d_x, d_xx, d_xy, d_y, d_yy,
                       field_from_function, integrate, l2_norm, make_grid,
                       potential_seed, random_admissible, read_field,
                       require_admissible, write_field, zero_field)
from wellscape.constructions import BumpSpec, nucleation_bump
from wellscape.energy import CELL_UY, SURFACE_STENCILS, scale_to_uy_peak
import wellscape
import wellscape.grid as grid_module
from wellscape.grid import (_BLOCK_ROWS, _TABLE_COST, _groups, _integrate_rows,
                            _square_row_sums, _strip_windows, _table_values, adjoint,
                            apply, apply_strips, integrate_square)

# every (x, y) operator pair the energies apply: the surface stencils, the
# elastic u_x and the cell-center u_y of the well term; and Axc, Ayc, the
# |Fy| of test_energy's bound on the fused smoothed kernel
OPERATOR_PAIRS = sorted({(x, y) for rows in SURFACE_STENCILS.values() for x, y, _ in rows}
                        | {("Dx", None), ("Axc", "Fy"), ("Axc", "Ayc")}, key=str)


def test_make_grid_spacings():
    g = make_grid(2.0, 64, 64)
    assert g.hx == 0.03125
    assert g.hy == 0.015625


def test_make_grid_boundary_of_precondition():
    g = make_grid(1.0, 8, 8)
    assert g.nx == 8 and g.ny == 8
    assert make_grid(1.0, 8.0, 16.0) == make_grid(1.0, 8, 16)
    # extreme widths whose stencil scales stay finite on 16 cells
    for L in (1e150, 1e-150):
        g = make_grid(L, 16, 16)
        assert g.hx == L / 16 and np.isfinite(apply(g, np.ones((17, 16)), "Dxx")).all()


@pytest.mark.parametrize("args", [(1.0, 4, 64), (1.0, 64, 4), (0.0, 64, 64),
                                  (-1.0, 64, 64),
                                  # cell counts that are not finite integers
                                  (1.0, 8.7, 8), (1.0, 8, 9.99), (1.0, math.nan, 8),
                                  (1.0, 8, math.inf),
                                  # on 16 cells h^2 overflows (1e160, 1e300), 1/h^2
                                  # overflows (1e-160), h^2 underflows to 0 (1e-300)
                                  (1e160, 16, 16), (1e300, 16, 16), (1e-160, 16, 16),
                                  (1e-300, 16, 16)])
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


def test_require_admissible():
    g = make_grid(1.0, 32, 32)
    require_admissible(zero_field(g))
    require_admissible(field_from_function(g, lambda X, Y: X * np.sin(2 * np.pi * Y)))
    bad = field_from_function(g, lambda X, Y: 1.0 + X)
    with pytest.raises(NotAdmissible, match=r"^Dirichlet violation at x=0: "
                       r"max \|u\(0,\.\)\| = 1\.000e\+00$"):
        require_admissible(bad)


def test_periodic_shift_commutes(grid64, rng):
    u = field_from_function(grid64, lambda X, Y: np.sin(2 * np.pi * Y) + X * np.cos(4 * np.pi * Y))
    for op in (d_y, d_yy):
        lhs = op(ScalarField(u.grid, np.roll(u.values, 5, axis=1))).values
        rhs = np.roll(op(u).values, 5, axis=1)
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


def _csr_ops(grid):
    """The operators as the sparse matrices the package used to multiply by:
    name -> CSR matrix, built as it built them."""
    nx, ny = grid.nx, grid.ny
    hx, hy = grid.hx, grid.hy
    Dy = sp.diags([np.full(ny - 1, 0.5), np.full(ny - 1, -0.5)], [1, -1],
                  (ny, ny), format="lil")
    Dy[0, ny - 1] = -0.5
    Dy[ny - 1, 0] = 0.5
    Dyy = sp.diags([np.ones(ny - 1), np.full(ny, -2.0), np.ones(ny - 1)],
                   [1, 0, -1], (ny, ny), format="lil")
    Dyy[0, ny - 1] = 1.0
    Dyy[ny - 1, 0] = 1.0
    Dx = sp.diags([np.full(nx, 0.5), np.full(nx, -0.5)], [1, -1],
                  (nx + 1, nx + 1), format="lil")
    Dx[0, :3] = [-1.5, 2.0, -0.5]
    Dx[nx, nx - 2:] = [0.5, -2.0, 1.5]
    Dxx = sp.diags([np.ones(nx), np.full(nx + 1, -2.0), np.ones(nx)],
                   [1, 0, -1], (nx + 1, nx + 1), format="lil")
    Dxx[0, :4] = [2.0, -5.0, 4.0, -1.0]
    Dxx[nx, nx - 3:] = [-1.0, 4.0, -5.0, 2.0]
    Axc = sp.diags([np.full(nx, 0.5), np.full(nx, 0.5)], [0, 1], (nx, nx + 1), format="csr")
    Fy = sp.diags([np.full(ny, -1.0), np.full(ny - 1, 1.0)], [0, 1], (ny, ny), format="lil")
    Fy[ny - 1, 0] = 1.0
    Ayc = sp.diags([np.full(ny, 0.5), np.full(ny - 1, 0.5)], [0, 1], (ny, ny), format="lil")
    Ayc[ny - 1, 0] = 0.5
    return {"Dy": (Dy / hy).tocsr(), "Dyy": (Dyy / hy**2).tocsr(),
            "Dx": (Dx / hx).tocsr(), "Dxx": (Dxx / hx**2).tocsr(),
            "Axc": Axc, "Fy": (Fy / hy).tocsr(), "Ayc": Ayc.tocsr()}


def _signed_normals(rng, shape, order):
    """Normals with a fifth of the entries +0.0 and a fifth -0.0."""
    v = rng.normal(size=shape)
    pick = rng.random(shape)
    v[pick < 0.2] = 0.0
    v[pick > 0.8] = -0.0
    return np.asarray(v, order=order)


# Summing n terms and rounding the sum once more errs by at most
# gamma_n = n*u/(1 - n*u) times the sum of their magnitudes, u = 2**-53
# (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 3-4).
# An interior output sums at most 4 unit terms (1, -2, 1 is four units) and
# scales once; a CSR product sums at most 4 rounded products; edge rows are
# evaluated by both in the same order.  So the two differ by at most
# 2*gamma_4 * (|D| @ |v|): c = 2*4, plus 1 for the O(u**2) terms and the
# rounding of |D| @ |v| itself.
CSR_BOUND = (2 * 4 + 1) * 2.0**-53


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(X_OPS + Y_OPS), nx=st.integers(8, 48),
       ny=st.integers(8, 48), L=st.floats(0.25, 4.0), fortran=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(name="Dyy", nx=256, ny=256, L=1.0, fortran=False, seed=0)
@example(name="Dx", nx=256, ny=256, L=1.0, fortran=True, seed=1)
def test_apply_adjoint_match_plain_products(name, nx, ny, L, fortran, seed):
    # apply/adjoint against the CSR products D @ v, D.T @ v, v @ D.T and v @ D:
    # the same shape, within CSR_BOUND * (|D| @ |v|) entrywise, in a C-ordered
    # array without out=; the same bits, written into a C-ordered out, with
    # out=
    g = make_grid(L, nx, ny)
    D = _csr_ops(g)[name]
    A = abs(D)
    rng = np.random.default_rng(seed)
    order = "F" if fortran else "C"
    u = _signed_normals(rng, (nx + 1, ny), order)
    if name in X_OPS:
        v = _signed_normals(rng, (D.shape[0], ny), order)
        cases = [(apply, u, dict(x=name), D @ u, A @ abs(u)),
                 (adjoint, v, dict(x=name), D.T @ v, A.T @ abs(v))]
    else:
        cases = [(apply, u, dict(y=name), u @ D.T, abs(u) @ A.T),
                 (adjoint, u, dict(y=name), u @ D, abs(u) @ A)]
    for fn, arg, ops, want, scale in cases:
        got = fn(g, arg, **ops)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.all(np.abs(got - want) <= CSR_BOUND * scale)
        out = np.full(got.shape, np.nan)
        assert fn(g, arg, **ops, out=out) is out
        assert out.tobytes() == got.tobytes()


@pytest.mark.parametrize("fn", [apply, adjoint])
def test_apply_adjoint_refuse_no_operator_and_a_non_c_out(fn):
    # no operator named, or an out that is not C-contiguous (F order, a
    # strided view): ValueError, and out is left as it was
    g = make_grid(1.0, 9, 11)
    u = np.random.default_rng(0).normal(size=(10, 11))
    with pytest.raises(ValueError, match="operator"):
        fn(g, u)
    for out in (np.full((10, 11), np.nan, order="F"), np.full((10, 22), np.nan)[:, ::2]):
        with pytest.raises(ValueError, match="C-contiguous"):
            fn(g, u, "Dx", "Dy", out=out)
        assert np.isnan(out).all()


@settings(max_examples=60, deadline=None)
@given(pair=st.sampled_from([p for p in OPERATOR_PAIRS if None not in p]),
       nx=st.integers(8, 48), ny=st.integers(8, 48), L=st.floats(0.25, 4.0),
       fortran=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(pair=CELL_UY, nx=9, ny=11, L=0.7, fortran=False, seed=0)
@example(pair=("Dx", "Dy"), nx=13, ny=9, L=2.5, fortran=True, seed=1)
def test_two_operators_act_in_order(pair, nx, ny, L, fortran, seed):
    # apply is the y-operator, then the x-operator on its result; adjoint the
    # x-operator, then the y-operator: bit for bit, whatever the input order
    x, y = pair
    g = make_grid(L, nx, ny)
    rng = np.random.default_rng(seed)
    order = "F" if fortran else "C"
    u = _signed_normals(rng, (nx + 1, ny), order)
    v = _signed_normals(rng, apply(g, u, x).shape, order)
    assert apply(g, u, x, y).tobytes() == apply(g, apply(g, u, y=y), x).tobytes()
    assert adjoint(g, v, x, y).tobytes() == adjoint(g, adjoint(g, v, x), y=y).tobytes()


# every (x, y) whose adjoint the smoothed energy's gradient scales by a
# factor folded into the last operator: the surface stencils, u_x and the
# cell-center u_y
FOLDED_PAIRS = sorted({(x, y) for rows in SURFACE_STENCILS.values() for x, y, _ in rows}
                      | {("Dx", None), CELL_UY}, key=str)

# The folded evaluation and c * adjoint(v) share the first operator's
# result m bit for bit.  Each lies within gamma_5 of c times the exact last
# operator applied to m, relative to |c| times its magnitude: the folded
# interior sums at most 4 units and multiplies by the rounded product
# c * scale (5 roundings), a folded edge row multiplies by rounded products
# c * a and sums at most 4 of them (5), and the reference rounds its sum,
# scale and c (5), or its edge products, sums and c (5).  |m| is within
# gamma_4 of |X|^T |v|, so the two differ by at most 2 gamma_5 |c| times
# |X|^T |v| |Y|: c = 2*5, plus 1 for the O(u**2) terms and the rounding of
# the magnitudes.  Factors between 1e-100 and 1e100 leave every product
# normal and finite, so no underflow term enters.
FOLD_BOUND = (2 * 5 + 1) * 2.0**-53
FLOAT_MAX = float(np.finfo(float).max)


@settings(max_examples=80, deadline=None)
@given(pair=st.sampled_from(FOLDED_PAIRS), nx=st.integers(4, 20).map(lambda k: 2 * k + 1),
       ny=st.integers(4, 20).map(lambda k: 2 * k + 1),
       L=st.floats(0.25, 4.0).filter(lambda L: L != 1.0),
       factor=st.floats(1e-100, 1e100) | st.floats(-1e100, -1e-100),
       seed=st.integers(0, 2**32 - 1))
@example(pair=CELL_UY, nx=9, ny=11, L=0.7, factor=-3.0, seed=0)
@example(pair=("Dxx", None), nx=9, ny=9, L=2.5, factor=1e-100, seed=1)
def test_folded_adjoint_is_factor_times_adjoint(pair, nx, ny, L, factor, seed):
    # the gradient's adjoint with its coefficient folded into the last
    # operator: within FOLD_BOUND * |c| * (|X|^T |v| |Y|) of c * adjoint(v),
    # and adjoint's bits at c = 1.  The folded coefficients saturate at the
    # largest float, so at c = +-max float, or +-inf, every output that
    # reads only zeros is 0, not 0 * inf = nan
    x, y = pair
    g = make_grid(L, nx, ny)
    ops = _csr_ops(g)
    rng = np.random.default_rng(seed)
    v = _signed_normals(rng, apply(g, np.zeros((nx + 1, ny)), x, y).shape, "C")

    def magnitude(w):
        m = abs(w) if x is None else abs(ops[x]).T @ abs(w)
        return m if y is None else m @ abs(ops[y])

    def folded(w, c):
        return grid_module._whole(g, w, x, y, True, None, factor=c)

    ref = adjoint(g, v, x, y)
    assert np.all(np.abs(folded(v, factor) - factor * ref)
                  <= FOLD_BOUND * abs(factor) * magnitude(v))
    assert folded(v, 1.0).tobytes() == ref.tobytes()
    sparse = np.where(rng.random(v.shape) < 0.1, v, 0.0)
    zero_reads = magnitude(sparse) == 0.0
    with np.errstate(over="ignore", invalid="ignore"):   # the outputs that read no zero
        for c in (-math.inf, -FLOAT_MAX, FLOAT_MAX, math.inf):
            assert np.all(folded(sparse, c)[zero_reads] == 0.0)
            assert np.all(folded(np.zeros_like(v), c) == 0.0)


# every (x, y) that a sharp reduction integrates: the surface stencils, u_x
# and the u_yy of the column integrals
SQUARED_PAIRS = sorted({(x, y) for rows in SURFACE_STENCILS.values() for x, y, _ in rows}
                       | {("Dx", None), (None, "Dyy")}, key=str)


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(8, 24), ny=st.integers(4, 20).map(lambda k: 2 * k + 1),
       L=st.floats(0.25, 4.0).filter(lambda L: L != 1.0), rows=st.integers(1, 26),
       seed=st.integers(0, 2**32 - 1))
@example(nx=8, ny=9, L=0.7, rows=1, seed=0)    # nine strips, a seam at every row
@example(nx=8, ny=9, L=0.7, rows=3, seed=1)    # three strips, nx + 1 a multiple
@example(nx=8, ny=9, L=0.7, rows=4, seed=2)    # the last one-sided row alone
@example(nx=8, ny=11, L=2.5, rows=5, seed=3)   # nx + 1 no multiple of the height
@example(nx=8, ny=11, L=2.5, rows=8, seed=4)   # a seam just before row nx
def test_strips_have_the_bits_of_the_whole_field(strip_rows, nx, ny, L, rows, seed):
    # apply_strips' blocks, in order, are apply()'s rows, and the integral
    # of _square_row_sums(g, v, x, y) is integrate_square(apply(g, v, x, y), g):
    # bit for bit, whatever the strip height
    g = make_grid(L, nx, ny)
    v = _signed_normals(np.random.default_rng(seed), (nx + 1, ny), "C")
    with strip_rows(rows, ny):
        for x, y in SQUARED_PAIRS + [CELL_UY]:
            whole = apply(g, v, x, y)
            starts, blocks = zip(*[(r0, block.copy()) for r0, block in apply_strips(g, v, x, y)])
            assert list(starts) == list(range(0, len(whole), rows))
            assert np.concatenate(blocks).tobytes() == whole.tobytes()
            if (x, y) != CELL_UY:
                strips = _integrate_rows(g, _square_row_sums(g, v, x, y))
                assert strips.hex() == integrate_square(whole, g).hex()


def test_strip_height_follows_the_byte_budget():
    # 32 rows at ny = 1024, 128 at 256, the whole field at 128^2
    for n, rows in ((1024, 32), (256, 128), (128, 129)):
        g = make_grid(1.0, n, n)
        r0, r1, _, _ = _strip_windows(g, None)[0]
        assert (r0, r1) == (0, rows)


def _random_admissible_ref(grid, rng, amplitude=1.0):
    """random_admissible as whole-field expressions, copied into the field."""
    y = grid.y_nodes
    xi = (grid.x_nodes / grid.L)[:, None]
    values = 0.0
    for power in (1, 2):
        prof = np.zeros_like(y)
        for n in range(1, 9):
            a, b = rng.normal(size=2) / n
            prof += a * np.cos(2.0 * math.pi * n * y) + b * np.sin(2.0 * math.pi * n * y)
        values = values + xi**power * prof
    rms = math.sqrt(float((values**2).mean()))
    if rms > 0:
        values *= amplitude / rms
    return ScalarField(grid, values)


def _scale_to_uy_peak_ref(u, peak):
    """scale_to_uy_peak from the whole cell-center u_y, copied into the field."""
    return ScalarField(u.grid, u.values * (peak / np.abs(apply(u.grid, u.values, *CELL_UY)).max()))


def _derived_ref(u, x, y):
    """u with the values X u Y^T, copied into the field."""
    return ScalarField(u.grid, apply(u.grid, u.values, x, y))


def _nucleation_bump_ref(spec, grid):
    """nucleation_bump as whole-field expressions, copied into the field."""
    a, dx, L = spec.a, spec.delta_x, spec.L
    x = grid.x_nodes[:, None]
    y = grid.y_nodes[None, :]
    f = np.where(x >= L - dx, spec.lam * ((x - (L - dx)) / dx) ** 2, 0.0)
    yr = np.where(y > 2.0 * a, 4.0 * a - y, y)
    lower = f * yr**2 / (2.0 * a)
    upper = a * f - f * (2.0 * a - yr) ** 2 / (2.0 * a)
    values = np.where((yr >= 0.0) & (y < 4.0 * a), np.where(yr <= a, lower, upper), 0.0)
    return ScalarField(grid, values)


@pytest.mark.parametrize("build, ref", [
    (lambda g: lambda: random_admissible(g, np.random.default_rng(5), 0.7),
     lambda g: _random_admissible_ref(g, np.random.default_rng(5), 0.7)),
    (lambda g: partial(scale_to_uy_peak,
                       _random_admissible_ref(g, np.random.default_rng(6)), 1.5),
     lambda g: _scale_to_uy_peak_ref(_random_admissible_ref(g, np.random.default_rng(6)), 1.5)),
    (lambda g: lambda: nucleation_bump(BumpSpec(0.1, 0.5, 2.0, g.L), g),
     lambda g: _nucleation_bump_ref(BumpSpec(0.1, 0.5, 2.0, g.L), g)),
    (lambda g: partial(d_x, _random_admissible_ref(g, np.random.default_rng(7))),
     lambda g: _derived_ref(_random_admissible_ref(g, np.random.default_rng(7)), "Dx", None)),
    (lambda g: partial(d_yy, _random_admissible_ref(g, np.random.default_rng(8))),
     lambda g: _derived_ref(_random_admissible_ref(g, np.random.default_rng(8)), None, "Dyy")),
], ids=["random_admissible", "scale_to_uy_peak", "nucleation_bump", "d_x", "d_yy"])
def test_constructors_hand_their_array_to_the_field(traced_peak, build, ref):
    # each makes one frozen float array of its own, which the field keeps,
    # with temporaries of at most an eighth of a field (strips, blocks of
    # rows): the peak is under 1.125 fields.  Copied into the field after
    # whole-field temporaries, they peaked at 2.13, 2.13, 4.13, 2.00 and
    # 2.00 fields
    g = make_grid(1.0, 512, 512)
    fn = build(g)
    fn()   # the operator tables of the grid are built once
    u, peak = traced_peak(fn)
    assert u.values.tobytes() == ref(g).values.tobytes()
    assert ScalarField(g, u.values).values is u.values
    assert peak <= 1.125 * u.values.nbytes, peak / u.values.nbytes


def test_package_runs_without_scipy():
    # scipy stays a test dependency and the package starts no thread pool:
    # importing it and running a descent, an energy and a critical_delta
    # must load neither scipy nor concurrent.futures
    script = "\n".join([
        "import sys, warnings",
        "import numpy as np",
        "import wellscape",
        "from wellscape import EnergyParams, MinimizeConfig, energy, make_grid, minimize",
        "from wellscape import PortfolioShrunk, critical_delta, random_admissible",
        "g = make_grid(1.0, 32, 32)",
        "u = random_admissible(g, np.random.default_rng(0), amplitude=0.1)",
        "p = EnergyParams(0.05, 0.5, 1)",
        "minimize(u, p, MinimizeConfig(max_iters=5))",
        "energy(u, p)",
        "warnings.simplefilter('ignore', PortfolioShrunk)",
        "critical_delta(0.05, 1.0, 1, make_grid(1.0, 16, 16), MinimizeConfig(max_iters=5))",
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))",
    ])
    src = os.path.dirname(os.path.dirname(wellscape.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


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


def _write_field_ref(path, u):
    """The per-value loop writer."""
    g = u.grid
    with open(path, "w", newline="\n") as fh:
        fh.write(f"WSF1 nx={g.nx} ny={g.ny} L={g.L:.17g}\n")
        for i in range(g.nx + 1):
            fh.write(" ".join(f"{v:.17g}" for v in u.values[i, :]) + "\n")


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
               1e-300, -1e-300, 1e300, -1e300, 1.0 / 3.0, 0.1]


def _assert_writes_like_loop_writer(out, u):
    write_field(out / "new.wsf1", u)
    _write_field_ref(out / "ref.wsf1", u)
    assert (out / "new.wsf1").read_bytes() == (out / "ref.wsf1").read_bytes()
    back = read_field(out / "new.wsf1")
    assert back.grid == u.grid
    assert back.values.tobytes() == u.values.tobytes()


def _table_blocks(vals):
    """Per _BLOCK_ROWS-line block of vals, whether write_field formats it from
    a table of its distinct values."""
    return [_groups(vals[i:i + _BLOCK_ROWS].reshape(-1).view(np.uint64)) is not None
            for i in range(0, len(vals), _BLOCK_ROWS)]


def _distinct_values(rng, shape):
    """Values of which hardly two are equal, 17 digits wide over 600 decades."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-300, 301, size=shape)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), ny=st.integers(8, 41), L=st.floats(1e-3, 1e3),
       kind=st.sampled_from(["plain", "pooled", "mixed"]))
def test_write_field_matches_loop_writer(tmp_path_factory, data, ny, L, kind):
    # same file bytes as the loop writer on odd grids, 17-digit widths,
    # signed zeros, subnormals and +-1e300; the file reads back bit-identically.
    # A pooled field draws from at most 8 values, both zeros and a subnormal
    # among them, so its first block takes the table path.  A mixed field has
    # at least two whole blocks, pooled and of distinct values in turn, so
    # one file holds both paths.
    low = 2 * _BLOCK_ROWS if kind == "mixed" else 8
    nx = data.draw(st.integers(low, low + 33), label="nx")
    finite = st.floats(allow_nan=False, allow_infinity=False)
    elements = st.sampled_from(EDGE_VALUES) | finite
    if kind != "plain":
        room = min(8, min(nx + 1, _BLOCK_ROWS) * ny // _TABLE_COST) - 3
        pool = [-0.0, 0.0, data.draw(st.sampled_from([5e-324, -5e-324, 1e-310]))]
        pool += data.draw(st.lists(elements, max_size=room))
        elements = st.sampled_from(pool)
    vals = data.draw(arrays(np.float64, (nx + 1, ny), elements=elements))
    if kind == "pooled":
        assert _table_blocks(vals)[0]
    if kind == "mixed":
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        pooled = (np.arange(nx + 1) // _BLOCK_ROWS % 2 == 0)[:, None]
        vals = np.where(pooled, vals, _distinct_values(rng, vals.shape))
        whole = (nx + 1) // _BLOCK_ROWS
        assert _table_blocks(vals)[:whole] == [k % 2 == 0 for k in range(whole)]
    _assert_writes_like_loop_writer(tmp_path_factory.mktemp("wsf1"),
                                    ScalarField(make_grid(L, nx, ny), vals))


def _threshold_field(rng, extra):
    """One block of 160 values, 16 + extra of them distinct: the most that
    takes the table path, or one more."""
    nx, ny = _BLOCK_ROWS - 1, 10
    n_distinct = (nx + 1) * ny // _TABLE_COST + extra
    pool = np.array([-0.0, 0.0, 5e-324] + [k / 3.0 for k in range(1, n_distinct - 2)])
    picks = rng.permutation(np.arange((nx + 1) * ny) % n_distinct)
    return ScalarField(make_grid(1.0, nx, ny), pool[picks].reshape(nx + 1, ny))


@pytest.mark.parametrize("extra, table", [(0, True), (1, False)])
def test_write_field_either_side_of_the_path_threshold(tmp_path, rng, extra, table):
    u = _threshold_field(rng, extra)
    assert _table_blocks(u.values) == [table]
    _assert_writes_like_loop_writer(tmp_path, u)


def test_write_field_branched_seed_matches_loop_writer(tmp_path):
    # 5 % of the branched seed's values are distinct: every block takes the
    # table path
    g = make_grid(1.0, 256, 256)
    u = branched_seed(BranchedSpec.from_epsilon(1e-3, 1.0), g)
    assert all(_table_blocks(u.values))
    _assert_writes_like_loop_writer(tmp_path, u)


@pytest.mark.parametrize("make", [
    lambda g: branched_seed(BranchedSpec.from_epsilon(1e-3, g.L), g),
    lambda g: potential_seed(PotentialSpec(4, 1.0), g),
    lambda g: random_admissible(g, np.random.default_rng(5)),
], ids=["branched", "potential", "random"])
def test_write_field_peak_memory(tmp_path, make, traced_peak):
    # every transient is one block's, 16 rows of 512 values: the five 8-byte
    # index arrays of _groups, an 8-byte slot per value in the gathered
    # table and again in the row lists, each value's text (at most 25
    # characters) in its row's string and again in the block's, and the
    # table's strings (one value in ten, about 75 bytes each): under 128
    # bytes a value, 1.05 MB.  The field is 2.1 MB, so a whole-field
    # transient, such as the sorted bit patterns of every value, fails this
    u = make(make_grid(1.0, 512, 512))
    _, peak = traced_peak(lambda: write_field(tmp_path / "f.wsf1", u))
    assert peak <= 128 * _BLOCK_ROWS * u.grid.ny < u.values.nbytes, peak / u.values.nbytes


def test_read_field_checks_the_header_before_the_payload(tmp_path):
    # the payload is not numbers: reading it would raise another ValueError
    path = tmp_path / "neg.wsf1"
    path.write_text("WSF1 nx=-8 ny=8 L=1\n" + "x " * 8 + "\n")
    with pytest.raises(InvalidGrid, match="need nx, ny >= 8"):
        read_field(path)


@pytest.mark.parametrize("text, message", [
    ("WSF1 nx=8 ny=8 L=1 junk\n" + "0 " * 8 + "\n", "token without '=': 'junk'"),
    ("WSF1 nx=8 ny=8 L=1\n", "has a header but no values"),
])
def test_read_field_malformed_files(tmp_path, text, message):
    path = tmp_path / "bad.wsf1"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            read_field(path)


def test_scalar_field_copies_what_others_can_write(rng):
    # a writable array, or a frozen view of one, is copied; a frozen array
    # that owns its memory, as read_field makes, is kept
    g = make_grid(1.0, 8, 8)
    writable = rng.normal(size=(9, 8))
    u = ScalarField(g, writable)
    writable[0, 0] += 1.0
    assert u.values[0, 0] != writable[0, 0]
    view = writable.view()
    view.setflags(write=False)
    assert ScalarField(g, view).values is not view
    assert ScalarField(g, u.values).values is u.values
    assert not ScalarField(g, writable).values.flags.writeable


# values whose finiteness a min/max test could get wrong: both infinities,
# NaN, both zeros, the least subnormal and a negative subnormal
FINITENESS_SPECIALS = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -2.0**-1030]


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       marks=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                st.sampled_from(FINITENESS_SPECIALS)), max_size=4),
       layout=st.sampled_from(["C", "F", "strided"]))
def test_finite_is_isfinite_all(rows, cols, seed, marks, layout):
    # the min/max test of ScalarField and the descent's trial check is
    # np.isfinite(a).all(), in C order, in F order and on a strided view
    # whose skipped entries are all NaN
    a = np.random.default_rng(seed).normal(size=(rows, cols))
    for pos, value in marks:
        a.reshape(-1)[int(pos * a.size)] = value
    if layout == "F":
        a = np.asfortranarray(a)
    elif layout == "strided":
        big = np.full((2 * rows, 3 * cols), math.nan)
        big[::2, ::3] = a
        a = big[::2, ::3]
    assert grid_module._finite(a) == bool(np.isfinite(a).all())


def _read_field_ref(path):
    """The reader that read_field replaced: the whole payload through
    np.loadtxt, then the shape check and the ScalarField."""
    with open(path) as fh:
        meta = dict(part.split("=", 1) for part in fh.readline().split()[1:])
        grid = make_grid(float(meta["L"]), int(meta["nx"]), int(meta["ny"]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            values = np.loadtxt(fh, dtype=float, ndmin=2)
    if values.shape != (grid.nx + 1, grid.ny):
        raise ValueError(f"payload shape {values.shape}")
    return ScalarField(grid, values)


def _read_bits(read, path):
    """The bytes of the values read, or None for a ValueError."""
    try:
        return read(path).values.tobytes()
    except ValueError:
        return None


def _assert_reads_like_loadtxt(path):
    ref = _read_bits(_read_field_ref, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _read_bits(read_field, path) == ref


# tokens loadtxt treats apart from plain 17-digit values: non-finite ones,
# which ScalarField rejects; ones it rejects itself, among them 1_0, which
# numpy's bytes-to-float cast would accept, and NULs, which S32 drops at a
# token's end; and zero-padded ones of 31-34 bytes around the 32-byte cells
ODD_TOKENS = (["nan", "-inf", "inf", "1e500", "-1e500", "1_0", "0x10", "1,5", "+.5", "-0",
               "1e-400", "\u00e9", "1\x00", "\x00", "\x001"]
              + ["0" * (n - 3) + "1.5" for n in (31, 32, 33, 34)]
              + ["-" + "0" * (n - 4) + "2.5" for n in (31, 32, 33, 34)])
TOKENS = (st.sampled_from(["%.17g" % v for v in EDGE_VALUES] + ODD_TOKENS)
          | st.floats().map(lambda v: "%.17g" % v) | st.floats().map(repr))


@st.composite
def _wsf1_texts(draw):
    """(header, payload) of a WSF1 file: pooled payloads (the table path),
    unpooled ones, or mixed ones of at least two whole blocks, pooled and of
    distinct values in turn; tabs and other whitespace, CRLF, blank and
    comment lines, a ragged row, and a row too many or too few."""
    kind = draw(st.sampled_from(["pooled", "plain", "mixed"]))
    low = 2 * _BLOCK_ROWS if kind == "mixed" else 8
    nx, ny = draw(st.integers(low, low + 32)), draw(st.integers(8, 24))
    rows = nx + 1 + draw(st.sampled_from([0, 0, 0, -1, 1]))
    if kind != "plain":
        pool = draw(st.lists(TOKENS, min_size=1, max_size=5))
        picks = draw(arrays(np.int8, (rows, ny), elements=st.integers(0, len(pool) - 1)))
        table = [[pool[k] for k in row] for row in picks.tolist()]
    if kind != "pooled":
        if kind == "plain":
            vals = draw(arrays(np.float64, (rows, ny),
                               elements=st.sampled_from(EDGE_VALUES) | st.floats()))
        else:
            vals = _distinct_values(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                                    (rows, ny))
        plain = [["%.17g" % v for v in row] for row in vals.tolist()]
        table = plain if kind == "plain" else [
            row if i // _BLOCK_ROWS % 2 == 0 else plain[i] for i, row in enumerate(table)]
        for i, j, tok in draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                                 st.integers(0, ny - 1), TOKENS), max_size=3)):
            table[i][j] = tok
    for i, change in draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                             st.sampled_from([-1, 1])), max_size=1)):
        table[i] = table[i][:-1] if change < 0 else table[i] + table[i][:1]
    # \x0b and \u2028 end a line for str.splitlines, but neither for file
    # iteration nor for loadtxt's stream: both read them as spaces
    sep = draw(st.sampled_from([" ", "\t", "  ", " \t ", "\x0b", "\x85\u2028"]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [sep.join(row) + eol for row in table]
    for i, extra in draw(st.lists(st.tuples(
            st.integers(0, rows),
            st.sampled_from(["\n", "  \n", "# note\n", "#\n", "0 # 1\n"])), max_size=3)):
        lines.insert(i, extra)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i].rstrip() + " # trailing comment" + eol
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return f"WSF1 nx={nx} ny={ny} L=1\n", text


def _pooled_text(token):
    """(header, payload) of one block of few distinct values, token among them."""
    rows = [["0.5", "0", token, "0.5", "0", "0.25", "0", "0.5"] for _ in range(_BLOCK_ROWS)]
    return (f"WSF1 nx={_BLOCK_ROWS - 1} ny=8 L=1\n",
            "".join(" ".join(row) + "\n" for row in rows))


@settings(max_examples=150, deadline=None)
@given(case=_wsf1_texts())
@example(case=_pooled_text("1_0"))
def test_read_field_matches_loadtxt(tmp_path_factory, case):
    # the same bits as the whole-payload loadtxt reader, or a ValueError from
    # both; the example is a table-path block that numpy's bytes-to-float
    # cast would read as 10
    path = tmp_path_factory.mktemp("wsf1") / "f.wsf1"
    path.write_bytes("".join(case).encode())
    _assert_reads_like_loadtxt(path)


@pytest.mark.parametrize("token", ODD_TOKENS)
def test_read_field_table_path_agrees_on_odd_tokens(tmp_path, token):
    # each odd token in a block of few distinct values, where the table path
    # would convert it
    path = tmp_path / "f.wsf1"
    path.write_bytes("".join(_pooled_text(token)).encode())
    _assert_reads_like_loadtxt(path)


@pytest.mark.parametrize("extra, table", [(0, True), (1, False)])
def test_read_field_either_side_of_the_path_threshold(tmp_path, rng, extra, table):
    u = _threshold_field(rng, extra)
    write_field(tmp_path / "f.wsf1", u)
    lines = (tmp_path / "f.wsf1").read_text().splitlines(keepends=True)[1:]
    got = _table_values(lines)
    assert (got is not None) == table
    if table:
        assert got.tobytes() == np.loadtxt(lines, dtype=float, ndmin=2).tobytes()
    assert read_field(tmp_path / "f.wsf1").values.tobytes() == u.values.tobytes()


@pytest.mark.parametrize("width, table", [(31, True), (32, False), (33, False)])
def test_read_field_long_tokens_take_loadtxt(tmp_path, width, table):
    # a token that fills its 32 S32 bytes may have been cut: loadtxt reads it
    token = "0" * (width - 3) + "1.5"
    lines = [" ".join([token] + ["0"] * 9) + "\n" for _ in range(_BLOCK_ROWS)]
    assert (_table_values(lines) is not None) == table
    path = tmp_path / "f.wsf1"
    path.write_text("WSF1 nx=15 ny=10 L=1\n" + "".join(lines))
    values = read_field(path).values
    assert np.all(values[:, 0] == 1.5) and np.all(values[:, 1:] == 0.0)


def test_read_field_without_values_or_room(tmp_path):
    # blank and comment lines alone are no values, with no warning escaping;
    # a header that promises more values than the file can hold allocates
    # nothing; a row too long and too few rows are named
    path = tmp_path / "f.wsf1"
    cases = [("WSF1 nx=8 ny=8 L=1\n\n  \n# only a comment\n", "has a header but no values"),
             ("WSF1 nx=100000000 ny=8 L=1\n" + "0 " * 8 + "\n", "too short"),
             ("WSF1 nx=8 ny=8 L=1\n" + "0.125 " * 64 + "\n", "does not fit"),
             ("WSF1 nx=8 ny=8 L=1\n" + ("0.125 " * 8 + "\n") * 10, "more than 9 rows"),
             ("WSF1 nx=8 ny=8 L=1\n" + ("0.125 " * 8 + "\n") * 8, r"shape \(8, 8\) != \(9, 8\)")]
    for text, message in cases:
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                read_field(path)


@pytest.mark.parametrize("make", [
    lambda g: branched_seed(BranchedSpec.from_epsilon(1e-3, g.L), g),
    lambda g: random_admissible(g, np.random.default_rng(5)),
], ids=["branched", "random"])
def test_read_field_peak_memory(tmp_path, make, traced_peak):
    # one array of the header's shape and one block's temporaries: no whole
    # payload is parsed into a second array, and the field is not copied
    u = make(make_grid(1.0, 512, 512))
    write_field(tmp_path / "f.wsf1", u)
    back, peak = traced_peak(lambda: read_field(tmp_path / "f.wsf1"))
    assert back.values.tobytes() == u.values.tobytes()
    assert peak <= 1.5 * u.values.nbytes, peak / u.values.nbytes


def test_read_field_table_path_refuses_a_hash_collision(monkeypatch):
    # an index that puts distinct tokens under one hash is caught word for word
    lines = ["0.5 0.25 " * 5 + "\n"] * _BLOCK_ROWS
    assert _table_values(lines) is not None
    monkeypatch.setattr(grid_module, "_groups",
                        lambda keys: (np.zeros(1, np.intp), np.zeros(len(keys), np.intp)))
    assert _table_values(lines) is None


@pytest.mark.parametrize("make, tries", [
    (lambda g: branched_seed(BranchedSpec.from_epsilon(1e-3, g.L), g), 32),
    (lambda g: random_admissible(g, np.random.default_rng(5)), 4),
], ids=["branched", "random"])
def test_read_field_backs_off_the_table_path(tmp_path, monkeypatch, make, tries):
    # 32 blocks: a pooled field tries the table on each; a field of distinct
    # values on blocks 0, 2, 8 and 30, after 1, 5 and 21 blocks of loadtxt
    u = make(make_grid(1.0, 32 * _BLOCK_ROWS - 1, 256))
    write_field(tmp_path / "f.wsf1", u)
    calls = []
    real = grid_module._table_values
    monkeypatch.setattr(grid_module, "_table_values",
                        lambda lines: calls.append(len(lines)) or real(lines))
    assert read_field(tmp_path / "f.wsf1").values.tobytes() == u.values.tobytes()
    assert len(calls) == tries
