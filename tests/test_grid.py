import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wellscape import (BranchedSpec, InvalidGrid, PotentialSpec, ScalarField,
                       branched_seed, d_x, d_xx, d_xy, d_y, d_yy,
                       field_from_function, integrate, l2_norm, make_grid,
                       potential_seed, random_admissible, read_field, shift_y,
                       validate_admissible, write_field, zero_field)
from wellscape.energy import SURFACE_STENCILS
import wellscape
from wellscape.grid import _TABLE_COST, Workspace, _distinct_bits, adjoint, apply

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
    # array without out=; the same bits, written into out, in either order
    # and with or without a workspace, with out=
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
    ws = Workspace()
    for fn, arg, ops, want, scale in cases:
        got = fn(g, arg, **ops)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.all(np.abs(got - want) <= CSR_BOUND * scale)
        for out_order in "CF":
            for scratch in (None, ws):
                out = np.full(got.shape, np.nan, order=out_order)
                assert fn(g, arg, **ops, out=out, ws=scratch) is out
                assert out.tobytes(order="C") == got.tobytes()


def test_package_runs_without_scipy():
    # scipy stays a test dependency: importing the package and running a
    # descent and an energy must not load it
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "import wellscape",
        "from wellscape import EnergyParams, MinimizeConfig, energy, make_grid, minimize",
        "from wellscape import random_admissible",
        "g = make_grid(1.0, 32, 32)",
        "u = random_admissible(g, np.random.default_rng(0), amplitude=0.1)",
        "p = EnergyParams(0.05, 0.5, 1)",
        "minimize(u, p, MinimizeConfig(max_iters=5))",
        "energy(u, p)",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), nx=st.integers(8, 41), ny=st.integers(8, 41),
       L=st.floats(1e-3, 1e3), pooled=st.booleans())
def test_write_field_matches_loop_writer(tmp_path_factory, data, nx, ny, L, pooled):
    # same file bytes as the loop writer on odd grids, 17-digit widths,
    # signed zeros, subnormals and +-1e300; the file reads back bit-identically.
    # A pooled field draws from at most 8 values, both zeros and a subnormal
    # among them, so it takes the distinct-value path.
    finite = st.floats(allow_nan=False, allow_infinity=False)
    elements = st.sampled_from(EDGE_VALUES) | finite
    if pooled:
        room = min(8, (nx + 1) * ny // _TABLE_COST) - 3
        pool = [-0.0, 0.0, data.draw(st.sampled_from([5e-324, -5e-324, 1e-310]))]
        pool += data.draw(st.lists(elements, max_size=room))
        elements = st.sampled_from(pool)
    vals = data.draw(arrays(np.float64, (nx + 1, ny), elements=elements))
    if pooled:
        assert _distinct_bits(vals) is not None
    _assert_writes_like_loop_writer(tmp_path_factory.mktemp("wsf1"),
                                    ScalarField(make_grid(L, nx, ny), vals))


@pytest.mark.parametrize("extra, table", [(0, True), (1, False)])
def test_write_field_either_side_of_the_path_threshold(tmp_path, rng, extra, table):
    # 200 values, 20 distinct take the table path and 21 the savetxt path
    nx, ny = 19, 10
    n_distinct = (nx + 1) * ny // _TABLE_COST + extra
    pool = np.array([-0.0, 0.0, 5e-324] + [k / 3.0 for k in range(1, n_distinct - 2)])
    picks = rng.permutation(np.arange((nx + 1) * ny) % n_distinct)
    vals = pool[picks].reshape(nx + 1, ny)
    assert (_distinct_bits(vals) is not None) == table
    _assert_writes_like_loop_writer(tmp_path, ScalarField(make_grid(1.0, nx, ny), vals))


def test_write_field_branched_seed_matches_loop_writer(tmp_path):
    # 5 % of the branched seed's values are distinct: the table path
    g = make_grid(1.0, 256, 256)
    u = branched_seed(BranchedSpec.from_epsilon(1e-3, 1.0), g)
    assert _distinct_bits(u.values) is not None
    _assert_writes_like_loop_writer(tmp_path, u)


@pytest.mark.parametrize("make", [
    lambda g: branched_seed(BranchedSpec.from_epsilon(1e-3, g.L), g),
    lambda g: potential_seed(PotentialSpec(4, 1.0, nR=2048), g),
    lambda g: random_admissible(g, np.random.default_rng(5)),
], ids=["branched", "potential", "random"])
def test_write_field_peak_memory(tmp_path, make):
    # the sorted bit patterns, the field's size, are the writer's largest
    # transient: no whole file's text and no string per value is held
    u = make(make_grid(1.0, 512, 512))
    tracemalloc.start()
    try:
        write_field(tmp_path / "f.wsf1", u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * u.values.nbytes, peak / u.values.nbytes


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
