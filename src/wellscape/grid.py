"""Uniform-grid scalar fields on the strip Omega = [0,L] x [0,1].

Fields are sampled at nodes (i*hx, j*hy), i = 0..nx, j = 0..ny-1.  The
vertical direction is periodic by construction: only one row per period is
stored, so u(x,1) = u(x,0) can never drift.  The left edge x = 0 carries a
homogeneous Dirichlet condition for admissible fields; x = L is natural.

Differential operators are second-order finite differences (central in the
interior, one-sided at the two vertical edges, circulant in y).  Quadrature
is cell-centered: the integral is the sum over cells of the bilinear
cell-center value times hx*hy, which is exact for cellwise-bilinear
integrands and makes boolean cell masks partition the area of Omega exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

TOL_BC = 1e-12  # left-edge Dirichlet tolerance; constructions set the edge exactly


class InvalidGrid(ValueError):
    """Raised for nonpositive widths or undersized cell counts."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid over [0,L] x [0,1] with nx x ny cells."""

    L: float
    nx: int
    ny: int

    @property
    def hx(self) -> float:
        return self.L / self.nx

    @property
    def hy(self) -> float:
        return 1.0 / self.ny

    @property
    def x_nodes(self) -> np.ndarray:
        return np.arange(self.nx + 1) * self.hx

    @property
    def y_nodes(self) -> np.ndarray:
        return np.arange(self.ny) * self.hy

    def node_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays (X, Y) of shape (nx+1, ny)."""
        return np.meshgrid(self.x_nodes, self.y_nodes, indexing="ij")


def make_grid(L: float, nx: int, ny: int) -> Grid:
    if not np.isfinite(L) or L <= 0:
        raise InvalidGrid(f"domain width must be positive, got L={L}")
    if nx < 8 or ny < 8:
        raise InvalidGrid(f"need nx, ny >= 8, got nx={nx}, ny={ny}")
    return Grid(float(L), int(nx), int(ny))


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Nodal values on a Grid, y-periodic by storage, immutable."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        expected = (self.grid.nx + 1, self.grid.ny)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        vals = np.array(self.values, dtype=float)  # defensive copy, then freeze
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return replace(self, values=values)


def zero_field(grid: Grid) -> ScalarField:
    return ScalarField(grid, np.zeros((grid.nx + 1, grid.ny)))


def field_from_function(grid: Grid,
                        fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> ScalarField:
    """Sample fn(x, y) at the nodes."""
    X, Y = grid.node_mesh()
    return ScalarField(grid, np.asarray(fn(X, Y), dtype=float))


# ---------------------------------------------------------------------------
# finite-difference operator matrices (1D, applied along one axis); nothing
# outside this module reaches them except through apply() and adjoint()

@lru_cache(maxsize=128)
def _ops(grid: Grid) -> dict:
    """Operator name -> (D, D^T), both CSR, so that no product builds a
    transposed sparse object per call."""
    nx, ny = grid.nx, grid.ny
    hx, hy = grid.hx, grid.hy

    # circulant central first derivative in y
    Dy = sp.diags([np.full(ny - 1, 0.5), np.full(ny - 1, -0.5)], [1, -1],
                  (ny, ny), format="lil")
    Dy[0, ny - 1] = -0.5
    Dy[ny - 1, 0] = 0.5
    Dy = (Dy / hy).tocsr()

    # circulant second derivative in y
    Dyy = sp.diags([np.ones(ny - 1), np.full(ny, -2.0), np.ones(ny - 1)],
                   [1, 0, -1], (ny, ny), format="lil")
    Dyy[0, ny - 1] = 1.0
    Dyy[ny - 1, 0] = 1.0
    Dyy = (Dyy / hy**2).tocsr()

    # central first derivative in x, one-sided second-order rows at i=0, nx
    Dx = sp.diags([np.full(nx, 0.5), np.full(nx, -0.5)], [1, -1],
                  (nx + 1, nx + 1), format="lil")
    Dx[0, :3] = [-1.5, 2.0, -0.5]
    Dx[nx, nx - 2:] = [0.5, -2.0, 1.5]
    Dx = (Dx / hx).tocsr()

    # second derivative in x, one-sided second-order rows at the edges
    Dxx = sp.diags([np.ones(nx), np.full(nx + 1, -2.0), np.ones(nx)],
                   [1, 0, -1], (nx + 1, nx + 1), format="lil")
    Dxx[0, :4] = [2.0, -5.0, 4.0, -1.0]
    Dxx[nx, nx - 3:] = [-1.0, 4.0, -5.0, 2.0]
    Dxx = (Dxx / hx**2).tocsr()

    # node -> cell averaging (bilinear value at cell centers)
    Axc = sp.diags([np.full(nx, 0.5), np.full(nx, 0.5)], [0, 1],
                   (nx, nx + 1), format="csr")
    # forward difference in y on the cell circle: (u[:, j+1] - u[:, j]) / hy
    Fy = sp.diags([np.full(ny, -1.0), np.full(ny - 1, 1.0)], [0, 1],
                  (ny, ny), format="lil")
    Fy[ny - 1, 0] = 1.0
    Fy = (Fy / hy).tocsr()
    # cell averaging in y: (w[:, j] + w[:, j+1]) / 2 on the circle
    Ayc = sp.diags([np.full(ny, 0.5), np.full(ny - 1, 0.5)], [0, 1],
                   (ny, ny), format="lil")
    Ayc[ny - 1, 0] = 0.5
    Ayc = Ayc.tocsr()

    mats = {"Dy": Dy, "Dyy": Dyy, "Dx": Dx, "Dxx": Dxx,
            "Axc": Axc, "Fy": Fy, "Ayc": Ayc}
    return {name: (D, D.T.tocsr()) for name, D in mats.items()}


def apply(grid: Grid, values: np.ndarray, x: Optional[str] = None,
          y: Optional[str] = None) -> np.ndarray:
    """X @ values @ Y^T for the named x- and y-operators (None: identity), y first.

    Names: Dx, Dxx, Axc (nodes -> cells) in x; Dy, Dyy, Fy, Ayc (cell circle) in y.
    The y-apply is computed as (Y @ values^T)^T, which is what scipy does for
    values @ Y.T, so the bits are the same.
    """
    ops = _ops(grid)
    if y is not None:
        values = (ops[y][0] @ values.T).T
    if x is not None:
        values = ops[x][0] @ values
    return values


def adjoint(grid: Grid, values: np.ndarray, x: Optional[str] = None,
            y: Optional[str] = None) -> np.ndarray:
    """X^T @ values @ Y, the adjoint of apply(); the x-operator acts first."""
    ops = _ops(grid)
    if x is not None:
        values = ops[x][1] @ values
    if y is not None:
        values = (ops[y][1] @ values.T).T
    return values


def d_y(u: ScalarField) -> ScalarField:
    """Central difference in y with periodic wraparound."""
    return u.with_values(apply(u.grid, u.values, y="Dy"))


def d_x(u: ScalarField) -> ScalarField:
    """Central difference in x; one-sided second-order stencils at i=0, nx."""
    return u.with_values(apply(u.grid, u.values, "Dx"))


def d_yy(u: ScalarField) -> ScalarField:
    return u.with_values(apply(u.grid, u.values, y="Dyy"))


def d_xx(u: ScalarField) -> ScalarField:
    return u.with_values(apply(u.grid, u.values, "Dxx"))


def d_xy(u: ScalarField) -> ScalarField:
    """Mixed second derivative, computed as d_x(d_y(u))."""
    return u.with_values(apply(u.grid, u.values, "Dx", "Dy"))


def _x_weights(grid: Grid) -> np.ndarray:
    w = np.ones(grid.nx + 1)
    w[0] = w[-1] = 0.5
    return w


def integrate(f: ScalarField | np.ndarray, grid: Grid | None = None) -> float:
    """Cell-centered quadrature of a nodal field over Omega.

    Equals the sum over cells of the bilinear cell-center value times hx*hy
    (trapezoid in x, periodic rectangle rule in y); exact for cellwise-
    bilinear integrands.
    """
    if isinstance(f, ScalarField):
        grid, values = f.grid, f.values
    else:
        if grid is None:
            raise ValueError("grid required when integrating a bare array")
        values = np.asarray(f)
    w = _x_weights(grid)
    return float(grid.hx * grid.hy * (w @ values.sum(axis=1)))


def l2_norm(u: ScalarField) -> float:
    """sqrt of integrate(u^2)."""
    return float(np.sqrt(max(integrate(u.values**2, u.grid), 0.0)))


def shift_y(u: ScalarField, cells: int) -> ScalarField:
    """Circular shift by whole cells in y (the periodic direction)."""
    return u.with_values(np.roll(u.values, cells, axis=1))


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    violations: tuple[str, ...]


def validate_admissible(u: ScalarField) -> AdmissibilityReport:
    """Check the essential conditions: left-edge Dirichlet and finiteness.

    Periodicity in y is structural (a single stored row per period) and
    always passes.
    """
    violations = []
    if not np.all(np.isfinite(u.values)):
        violations.append("non-finite values")
    max_edge = float(np.max(np.abs(u.values[0, :])))
    if max_edge > TOL_BC:
        violations.append(f"Dirichlet violation at x=0: max |u(0,.)| = {max_edge:.3e}")
    return AdmissibilityReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# WSF1 text dump format

def write_field(path, u: ScalarField) -> None:
    """Write the WSF1 dump: header, then nx+1 lines of ny values (row-major in i).

    Values are printed with 17 significant digits so readers round-trip
    bit-identically.
    """
    g = u.grid
    with open(path, "w", newline="\n") as fh:
        fh.write(f"WSF1 nx={g.nx} ny={g.ny} L={g.L:.17g}\n")
        for i in range(g.nx + 1):
            fh.write(" ".join(f"{v:.17g}" for v in u.values[i, :]) + "\n")


def read_field(path) -> ScalarField:
    """Read a WSF1 dump written by write_field."""
    with open(path) as fh:
        header = fh.readline().split()
        if not header or header[0] != "WSF1":
            raise ValueError(f"not a WSF1 file: {path}")
        meta = dict(part.split("=", 1) for part in header[1:])
        missing = [key for key in ("nx", "ny", "L") if key not in meta]
        if missing:
            raise ValueError(f"WSF1 header of {path} lacks {', '.join(missing)}")
        nx, ny, L = int(meta["nx"]), int(meta["ny"]), float(meta["L"])
        values = np.loadtxt(fh, dtype=float, ndmin=2)
    if values.shape != (nx + 1, ny):
        raise ValueError(f"WSF1 payload shape {values.shape} != {(nx + 1, ny)}")
    return ScalarField(make_grid(L, nx, ny), values)
