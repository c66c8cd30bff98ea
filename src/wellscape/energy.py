"""The well potential, the sets A(u)/B(u), and the energies E1, E2, E3.

Each functional has the form

    E_i(u) = S_i(u) + integral of u_x^2 + Delta * area(A(u)),

where S_i is the eps^2-weighted surface term (u_yy^2, |grad u_y|^2 or
|D^2 u|^2, one table: SURFACE_STENCILS), B(u) = {|u_y| >= 1} and A(u) is
its complement.  The well term is discontinuous in u; minimization goes
through a C^1 smoothstep surrogate (energy_smoothed / energy_gradient)
while all reporting uses the sharp term.

B-membership is decided per cell from the y-derivative of the bilinear
interpolant at the cell center.  Two measures of B coexist:

* cell areas (`area_b_cells`): the plain mask sum, so that
  area(A) + area(B) = |Omega| exactly; this drives the well term;
* per-column interval lengths (`column_lengths`, `area_b`): each maximal
  run of n B-cells counts as an interval of length (n+1)*hy (its two
  boundary cells are half-covered on average), which removes the one-cell-
  per-interface bias of the raw mask and is what tau and the geometric
  diagnostics use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import (ScalarField, _x_weights, adjoint, apply, integrate,
                   validate_admissible)

# |u_y| >= 1 is tested with this slack so that exact ties survive roundoff
# (the branched seed's entire B-set sits at |u_y| = 1 exactly).
TIE_TOL = 1e-12

# S_i(u) = sum of weight * integral (X u Y^T)^2 over the (x-op, y-op, weight)
# rows of variant i: u_yy^2, then u_xy^2, then u_xx^2
SURFACE_STENCILS = {
    1: ((None, "Dyy", 1.0),),
    2: ((None, "Dyy", 1.0), ("Dx", "Dy", 1.0)),
    3: ((None, "Dyy", 1.0), ("Dx", "Dy", 2.0), ("Dxx", None, 1.0)),
}


class NotAdmissible(ValueError):
    """Field fails the admissibility conditions required by energy()."""


class ZeroSmoothing(ValueError):
    """energy_gradient needs smooth_w > 0."""


class EmptyB(ValueError):
    """Operation requires area(B) > 0."""


class EmptyPiM(ValueError):
    """Truncation removed every column of Pi(B)."""


class TauOne(ValueError):
    """Degenerate geometry: occupied columns lie fully inside B."""


@dataclass(frozen=True)
class EnergyParams:
    """(epsilon, Delta, variant, smoothing half-width)."""

    epsilon: float
    delta: float = 0.0
    variant: int = 1
    smooth_w: float = 0.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.variant not in (1, 2, 3):
            raise ValueError(f"variant must be 1, 2 or 3, got {self.variant}")
        if not 0.0 <= self.smooth_w <= 0.5:
            raise ValueError(f"smooth_w must lie in [0, 0.5], got {self.smooth_w}")


@dataclass(frozen=True)
class EnergyBreakdown:
    surface: float
    elastic: float
    well: float
    total: float
    area_B: float
    area_A: float

    def to_json_dict(self) -> dict:
        return {"surface": self.surface, "elastic": self.elastic,
                "well": self.well, "total": self.total,
                "area_B": self.area_B, "area_A": self.area_A}


@dataclass(frozen=True)
class BSetGeometry:
    """Discrete B(u) with its column projection and mean vertical extent tau."""

    b_mask: np.ndarray            # (nx, ny) bool, per cell
    area_b_cells: float           # mask sum * hx * hy (partitions |Omega| exactly)
    column_lengths: np.ndarray    # (nx,) run-corrected L^1(l_x cap B) per cell column
    area_b: float                 # hx * sum(column_lengths)
    pi_columns: np.ndarray        # cell columns containing at least one B-cell
    len_pi: float                 # hx * |pi_columns|
    tau: Optional[float]          # area_b / len_pi, None when B is empty


@dataclass(frozen=True)
class TruncatedBSet:
    M: float
    pi_m_columns: np.ndarray
    b_m_mask: np.ndarray
    area_b_m: float
    len_pi_m: float
    column_integrals: np.ndarray  # per-column integral of u_yy^2 dy


def well_potential(a, b, delta: float):
    """W_Delta(a, b) = a^2 + delta * chi_(-1,1)(b); accepts scalars or arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = a**2 + np.where(np.abs(b) < 1.0, delta, 0.0)
    return float(out) if out.ndim == 0 else out


def _cell_center_uy(u: ScalarField) -> np.ndarray:
    """d/dy of the bilinear interpolant at cell centers, shape (nx, ny)."""
    return apply(u.grid, u.values, "Axc", "Fy")


def _b_cells(u: ScalarField) -> tuple[np.ndarray, np.ndarray, float]:
    """|u_y| at cell centers, the B-cell mask and its area (mask sum * hx * hy)."""
    q = np.abs(_cell_center_uy(u))
    mask = q >= 1.0 - TIE_TOL
    return q, mask, float(mask.sum()) * u.grid.hx * u.grid.hy


def _column_lengths(mask: np.ndarray, q: np.ndarray, hy: float) -> np.ndarray:
    """Per-column interval lengths of B, refined per run.

    A run whose |u_y| never exceeds 1 is a tie plateau (the situation of the
    sawtooth strips, where |u_y| = 1 exactly): its two boundary cells are
    half-covered on average, so it counts (n+1)*hy.  A run that genuinely
    crosses 1 is already midpoint-unbiased at n*hy; so does a full column.

    Each partly-B column is rotated to start at its last cell if non-B, else
    at its first non-B cell: no run then crosses the seam, and runs come in
    the order of their unrotated starts, which is the order they are summed.
    """
    nx, ny = mask.shape
    lengths = np.zeros(nx)
    full = mask.all(axis=1)
    lengths[full] = min(ny * hy, 1.0)
    cols = np.flatnonzero(mask.any(axis=1) & ~full)
    if cols.size == 0:
        return lengths
    sub = mask[cols]
    start = np.where(sub[:, -1], np.argmin(sub, axis=1), ny - 1)
    idx = (start[:, None] + np.arange(ny)) % ny
    flat = np.take_along_axis(sub, idx, axis=1).ravel()
    qmax = np.where(flat, np.take_along_axis(q[cols], idx, axis=1).ravel(), -np.inf)
    edges = np.diff(flat.astype(np.int8), append=np.int8(0))
    starts = np.flatnonzero(edges == 1) + 1  # every rotated column starts non-B
    n = np.flatnonzero(edges == -1) + 1 - starts
    plateau = np.maximum.reduceat(qmax, starts) <= 1.0 + TIE_TOL
    contrib = (n + plateau) * hy
    # cumsum adds each column's runs left to right like the scalar loop did;
    # np.add.reduceat may sum pairwise, which can change the last bit
    col_of = starts // ny
    rank = np.arange(starts.size) - np.searchsorted(col_of, col_of)
    table = np.zeros((cols.size, int(rank.max()) + 1))
    table[col_of, rank] = contrib
    lengths[cols] = np.minimum(np.cumsum(table, axis=1)[:, -1], 1.0)
    return lengths


def b_geometry(u: ScalarField) -> BSetGeometry:
    """Discrete B(u) = {cell centers with |u_y| >= 1} and derived geometry."""
    g = u.grid
    q, mask, area_cells = _b_cells(u)
    lengths = _column_lengths(mask, q, g.hy)
    pi = np.flatnonzero(mask.any(axis=1))
    len_pi = g.hx * pi.size
    area_b = float(g.hx * lengths.sum())
    tau = None
    if area_b > 0.0 and len_pi > 0.0:
        tau = min(area_b / len_pi, 1.0)
    return BSetGeometry(mask, area_cells, lengths, area_b, pi, len_pi, tau)


def column_uyy_integrals(u: ScalarField) -> np.ndarray:
    """Per cell column, the quadrature of u_yy^2 dy along the column.

    Cell-centered like integrate(), so hx * sum equals integrate(u_yy^2).
    """
    g = u.grid
    cells = apply(g, apply(g, apply(g, u.values, y="Dyy") ** 2, "Axc"), y="Ayc")
    return g.hy * cells.sum(axis=1)


def truncate_b(u: ScalarField, M: float) -> TruncatedBSet:
    """Keep the columns of Pi(B) whose row-integral of u_yy^2 stays below M."""
    if M <= 0:
        raise ValueError(f"M must be positive, got {M}")
    geom = b_geometry(u)
    if geom.area_b <= 0.0:
        raise EmptyB("truncate_b requires area(B) > 0")
    col_ints = column_uyy_integrals(u)
    keep = geom.pi_columns[col_ints[geom.pi_columns] < M]
    b_m = np.zeros_like(geom.b_mask)
    b_m[keep, :] = geom.b_mask[keep, :]
    kept_lengths = np.zeros_like(geom.column_lengths)
    kept_lengths[keep] = geom.column_lengths[keep]
    area_m = float(u.grid.hx * kept_lengths.sum())
    return TruncatedBSet(float(M), keep, b_m, area_m, u.grid.hx * keep.size, col_ints)


# ---------------------------------------------------------------------------
# energies

def surface_and_elastic(u: ScalarField, epsilon: float, variant: int) -> tuple[float, float]:
    """(eps^2 * S_variant(u), integral of u_x^2): the quadratic part of E_i."""
    g = u.grid
    surface = epsilon**2 * sum(w * integrate(apply(g, u.values, x, y) ** 2, g)
                               for x, y, w in SURFACE_STENCILS[variant])
    elastic = integrate(apply(g, u.values, "Dx") ** 2, g)
    return surface, elastic


def energy(u: ScalarField, p: EnergyParams) -> EnergyBreakdown:
    """Sharp energy breakdown of an admissible field.

    The well term uses the cell-mask area of A(u), so
    area_A + area_B = |Omega| exactly and total = surface + elastic + well.
    """
    report = validate_admissible(u)
    if not report.ok:
        raise NotAdmissible("; ".join(report.violations))
    surface, elastic = surface_and_elastic(u, p.epsilon, p.variant)
    area_b = _b_cells(u)[2]
    area_a = u.grid.L - area_b
    well = p.delta * area_a
    return EnergyBreakdown(surface, elastic, well,
                           surface + elastic + well, area_b, area_a)


def _smoothstep_indicator(q: np.ndarray, w: float) -> np.ndarray:
    """C^1 surrogate for chi_(-1,1)(|u_y|): 1 below 1-w, 0 above 1, cubic between."""
    t = np.clip((q - (1.0 - w)) / w, 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)


def _smoothstep_slope(q: np.ndarray, w: float) -> np.ndarray:
    t = (q - (1.0 - w)) / w
    inside = (t > 0.0) & (t < 1.0)
    out = np.zeros_like(q)
    tb = t[inside]
    out[inside] = -6.0 * tb * (1.0 - tb) / w
    return out


def energy_smoothed(u: ScalarField, p: EnergyParams) -> float:
    """Energy with the indicator replaced by the cubic smoothstep.

    With smooth_w = 0 this is exactly the sharp total.
    """
    g = u.grid
    surface, elastic = surface_and_elastic(u, p.epsilon, p.variant)
    if p.smooth_w == 0.0:
        return surface + elastic + p.delta * (g.L - _b_cells(u)[2])
    s = _smoothstep_indicator(np.abs(_cell_center_uy(u)), p.smooth_w)
    return surface + elastic + p.delta * g.hx * g.hy * float(s.sum())


def energy_gradient(u: ScalarField, p: EnergyParams) -> ScalarField:
    """Exact gradient of energy_smoothed with respect to the nodal values.

    Each quadratic term w * integral (X u Y^T)^2 contributes
    2 w X^T (wx * X u Y^T) Y, with wx the quadrature weight per node; the
    well term contributes the adjoint of the cell-center u_y.  Rows at i = 0
    are zeroed (the Dirichlet edge stays pinned during descent).
    """
    if p.smooth_w <= 0.0:
        raise ZeroSmoothing("gradient needs smooth_w > 0")
    g = u.grid
    wx = _x_weights(g)[:, None]
    scale = g.hx * g.hy

    grad = np.zeros_like(u.values)
    for x, y, w in SURFACE_STENCILS[p.variant]:
        grad += 2.0 * w * p.epsilon**2 * scale * adjoint(
            g, wx * apply(g, u.values, x, y), x, y)
    grad += 2.0 * scale * adjoint(g, wx * apply(g, u.values, "Dx"), "Dx")

    uy_c = _cell_center_uy(u)
    slope = _smoothstep_slope(np.abs(uy_c), p.smooth_w) * np.sign(uy_c)
    grad += p.delta * scale * adjoint(g, slope, "Axc", "Fy")

    grad[0, :] = 0.0
    return u.with_values(grad)
