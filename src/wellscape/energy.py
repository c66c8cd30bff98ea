"""The well potential, the sets A(u)/B(u), and the energies E1, E2, E3.

Each functional has the form

    E_i(u) = S_i(u) + integral of u_x^2 + Delta * area(A(u)),

where S_i is the eps^2-weighted surface term (u_yy^2, |grad u_y|^2 or
|D^2 u|^2, one table: SURFACE_STENCILS), B(u) = {|u_y| >= 1} and A(u) is
its complement.  The well term is discontinuous in u; minimization goes
through a C^1 smoothstep surrogate (energy_smoothed / energy_gradient,
one value pass and one adjoint pass over the same stencils) while all
reporting uses the sharp term.

B-membership is decided per cell from the y-derivative of the bilinear
interpolant at the cell center.  Two measures of B coexist:

* the cell area (`energy().area_B`): the plain mask sum, so that
  area(A) + area(B) = |Omega| exactly; this drives the well term;
* per-column interval lengths (`column_lengths`, `area_b`): each maximal
  run of n B-cells counts as an interval of length (n+1)*hy (its two
  boundary cells are half-covered on average), which removes the one-cell-
  per-interface bias of the raw mask and is what tau and the geometric
  diagnostics use.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

import numpy as np

from .grid import (Grid, ScalarField, Workspace, _adopt, _field_integral_square,
                   _field_row_sums, _memoized, _whole, apply, apply_strips,
                   integrate_square)

# |u_y| >= 1 is tested with this slack so that exact ties survive roundoff
# (the branched seed's entire B-set sits at |u_y| = 1 exactly).
TIE_TOL = 1e-12
TOL_BC = 1e-12  # left-edge Dirichlet tolerance; constructions set the edge exactly

# S_i(u) = sum of weight * integral (X u Y^T)^2 over the (x-op, y-op, weight)
# rows of variant i: u_yy^2, then u_xy^2, then u_xx^2
SURFACE_STENCILS = {
    1: ((None, "Dyy", 1.0),),
    2: ((None, "Dyy", 1.0), ("Dx", "Dy", 1.0)),
    3: ((None, "Dyy", 1.0), ("Dx", "Dy", 2.0), ("Dxx", None, 1.0)),
}
# (x-op, y-op) of the y-derivative of the bilinear interpolant at cell centers
CELL_UY = ("Axc", "Fy")


class NotAdmissible(ValueError):
    """Field fails the admissibility conditions required by energy()."""


def require_admissible(u: ScalarField) -> None:
    """Raise NotAdmissible unless u meets the left-edge Dirichlet condition.

    Finiteness is checked when the ScalarField is made, and periodicity in
    y is structural (a single stored row per period), so the edge is the
    one condition left to check.
    """
    max_edge = float(np.max(np.abs(u.values[0, :])))
    if max_edge > TOL_BC:
        raise NotAdmissible(f"Dirichlet violation at x=0: max |u(0,.)| = {max_edge:.3e}")


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
        if not np.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not np.isfinite(self.delta) or self.delta < 0:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
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
        return asdict(self)


@dataclass(frozen=True)
class BSetGeometry:
    """Discrete B(u) with its column projection and mean vertical extent tau.

    b_geometry computes it once per field and hands every caller the same
    one, so its arrays are read-only."""

    column_lengths: np.ndarray    # (nx,) run-corrected L^1(l_x cap B) per cell column
    area_b: float                 # hx * sum(column_lengths)
    pi_columns: np.ndarray        # cell columns containing at least one B-cell
    tau: Optional[float]          # area_b / (hx * |pi_columns|), None when B is empty


@dataclass(frozen=True)
class TruncatedBSet:
    pi_m_columns: np.ndarray
    area_b_m: float
    len_pi_m: float


def _b_cells(u: ScalarField):
    """Yield (r0, |u_y| at the cell centers, the B-cell mask) a strip of cell
    rows at a time, from r0 on: u_y is d/dy of the bilinear interpolant, and
    the arrays are overwritten at the next step."""
    for r0, q in apply_strips(u.grid, u.values, *CELL_UY):
        np.abs(q, out=q)
        yield r0, q, q >= 1.0 - TIE_TOL


def uy_peak(u: ScalarField) -> float:
    """max |u_y| at cell centers, one strip pass over u."""
    return max(float(q.max()) for _, q, _ in _b_cells(u))


def scale_to_uy_peak(u: ScalarField, peak: float) -> ScalarField:
    """u times peak / max |u_y| at cell centers, or u itself where u_y
    vanishes at every cell center."""
    top = uy_peak(u)
    if not top > 0:
        return u
    return _adopt(u, u.values * (peak / top))


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
    # bincount adds each column's runs left to right like the scalar loop
    # did; np.add.reduceat may sum pairwise, which can change the last bit
    sums = np.bincount(starts // ny, weights=contrib, minlength=cols.size)
    lengths[cols] = np.minimum(sums, 1.0)
    return lengths


def b_geometry(u: ScalarField) -> BSetGeometry:
    """Discrete B(u) = {cell centers with |u_y| >= 1} and derived geometry,
    computed once per field (_memoized)."""
    return _memoized(u, "b_geometry", _b_geometry)


def _b_geometry(u: ScalarField) -> BSetGeometry:
    """b_geometry uncached.  _column_lengths treats each cell column on its
    own, so it runs a strip of columns at a time."""
    g = u.grid
    lengths = np.empty(g.nx)
    occupied = np.empty(g.nx, dtype=bool)
    for r0, q, mask in _b_cells(u):
        r1 = r0 + len(q)
        lengths[r0:r1] = _column_lengths(mask, q, g.hy)
        occupied[r0:r1] = mask.any(axis=1)
    pi = np.flatnonzero(occupied)
    len_pi = g.hx * pi.size
    area_b = float(g.hx * lengths.sum())
    tau = None
    if area_b > 0.0 and len_pi > 0.0:
        tau = min(area_b / len_pi, 1.0)
    lengths.setflags(write=False)
    pi.setflags(write=False)
    return BSetGeometry(lengths, area_b, pi, tau)


def column_uyy_integrals(u: ScalarField) -> np.ndarray:
    """Per cell column, the quadrature of u_yy^2 dy along the column.

    Cell-centered like integrate(): hy/2 times the sum of u_yy^2 over the
    column's two node rows, so hx * sum is integrate_square(u_yy).
    """
    r = _field_row_sums(u, y="Dyy")
    return 0.5 * u.grid.hy * (r[:-1] + r[1:])


def truncate_b(u: ScalarField, M: float) -> TruncatedBSet:
    """Keep the columns of Pi(B) whose row-integral of u_yy^2 stays below M."""
    if M <= 0:
        raise ValueError(f"M must be positive, got {M}")
    geom = b_geometry(u)
    if geom.area_b <= 0.0:
        raise EmptyB("truncate_b requires area(B) > 0")
    col_ints = column_uyy_integrals(u)
    keep = geom.pi_columns[col_ints[geom.pi_columns] < M]
    kept_lengths = np.zeros_like(geom.column_lengths)
    kept_lengths[keep] = geom.column_lengths[keep]
    area_m = float(u.grid.hx * kept_lengths.sum())
    return TruncatedBSet(keep, area_m, u.grid.hx * keep.size)


# ---------------------------------------------------------------------------
# energies

def _quadratic_rows(variant: int) -> list:
    """(x-op, y-op) of each SURFACE_STENCILS row of variant, then of u_x."""
    return [(x, y) for x, y, _ in SURFACE_STENCILS[variant]] + [("Dx", None)]


def _weigh(integrals: list, epsilon: float, variant: int) -> tuple[float, float]:
    """(eps^2 * S_variant, integral of u_x^2) from the _quadratic_rows integrals."""
    *surface, elastic = integrals
    weights = [w for _, _, w in SURFACE_STENCILS[variant]]
    return epsilon**2 * sum(w * i for w, i in zip(weights, surface)), elastic


def _quadratic_sums(values: np.ndarray, grid: Grid, epsilon: float, variant: int,
                    ws: Workspace) -> tuple[float, float, list]:
    """(eps^2 * S_variant, integral of u_x^2, fields) of the nodal values.

    The fields are apply(values, x, y) per _quadratic_rows row, each applied
    into ws, integrated and kept for the gradient pass.  The integrals have
    the bits of surface_and_elastic's strip-wise ones.
    """
    shape = (grid.nx + 1, grid.ny)
    fields = [apply(grid, values, x, y, out=ws.get(("field", k), shape))
              for k, (x, y) in enumerate(_quadratic_rows(variant))]
    integrals = [integrate_square(f, grid) for f in fields]
    return (*_weigh(integrals, epsilon, variant), fields)


def surface_and_elastic(u: ScalarField, epsilon: float, variant: int) -> tuple[float, float]:
    """(eps^2 * S_variant(u), integral of u_x^2): the quadratic part of E_i.

    Each integral is a strip at a time from the field's memoized row sums
    (_field_integral_square): no derivative field is made."""
    return _weigh([_field_integral_square(u, x, y) for x, y in _quadratic_rows(variant)],
                  epsilon, variant)


def energy(u: ScalarField, p: EnergyParams) -> EnergyBreakdown:
    """Sharp energy breakdown of an admissible field.

    The well term uses the cell-mask area of A(u), so
    area_A + area_B = |Omega| exactly and total = surface + elastic + well.
    """
    require_admissible(u)
    surface, elastic = surface_and_elastic(u, p.epsilon, p.variant)
    cells = sum(np.count_nonzero(mask) for _, _, mask in _b_cells(u))
    area_b = float(cells) * u.grid.hx * u.grid.hy
    area_a = u.grid.L - area_b
    well = p.delta * area_a
    return EnergyBreakdown(surface, elastic, well,
                           surface + elastic + well, area_b, area_a)


class _SmoothedTerms(NamedTuple):
    """What the value pass of the smoothed energy keeps for its gradient."""

    fields: list          # apply(values, x, y) per SURFACE_STENCILS row
    dx: np.ndarray        # apply(values, "Dx")
    uy: np.ndarray        # cell-center u_y
    q: np.ndarray         # t (1 - t), t = (|u_y| - (1 - w)) / w clipped to [0, 1]


def _smoothed_terms(values: np.ndarray, grid: Grid, p: EnergyParams,
                    ws: Workspace) -> tuple[float, _SmoothedTerms]:
    """Value pass of the smoothed energy (smooth_w > 0): every forward apply once.

    The indicator chi_(-1,1)(|u_y|) becomes the C^1 smoothstep
    1 - t^2 (3 - 2t): 1 below |u_y| = 1 - w, 0 above 1, cubic between.
    With q = t (1 - t), t^2 (3 - 2t) = t^2 + 2 t q, so the well term sums
    it over the n cells as n - sum t^2 - 2 sum t q, two two-operand
    einsums; q is also the gradient's slope up to sign and a factor.
    t is divided by w, not multiplied by 1 / w: 1 / w overflows for w
    below about 5.6e-309, and a tie |u_y| = 1 - w would then give 0 * inf.
    Its arrays, the returned terms included, live in `ws` until reused.
    """
    w = p.smooth_w
    surface, elastic, (*fields, dx) = _quadratic_sums(values, grid, p.epsilon,
                                                      p.variant, ws)
    cells = (grid.nx, grid.ny)
    uy = apply(grid, values, *CELL_UY, out=ws.get("uy", cells))
    t = np.abs(uy, out=ws.get("t", cells))
    t -= 1.0 - w
    t /= w
    np.clip(t, 0.0, 1.0, out=t)
    q = np.subtract(1.0, t, out=ws.get("well", cells))
    q *= t
    inside = (t.size - float(np.einsum("ij,ij->", t, t))
              - 2.0 * float(np.einsum("ij,ij->", t, q)))
    value = surface + elastic + p.delta * grid.hx * grid.hy * inside
    return value, _SmoothedTerms(fields, dx, uy, q)


def _smoothed_gradient(terms: _SmoothedTerms, grid: Grid, p: EnergyParams,
                       ws: Workspace, grad: np.ndarray) -> np.ndarray:
    """Gradient pass: only adjoint applies, on the value pass's terms (overwritten).

    Each quadratic term w * integral (X u Y^T)^2 contributes
    2 w X^T (wx * X u Y^T) Y, with wx the quadrature weight per node (1/2 at
    i = 0 and nx, 1 between, where x * 1.0 is x, so only the two end rows are
    scaled); the well term contributes the adjoint of the cell-center u_y
    applied to the smoothstep slope -6 t (1 - t) / w times sign(u_y), which
    vanishes where t is clipped.  Each term's scalar coefficient (2 w eps^2
    hx hy, 2 hx hy, -6 delta hx hy / w) is folded into its adjoint's last
    operator (grid._whole's factor), so no term is scaled in a pass of its
    own; the first term's adjoint is written straight into the gradient
    and the others are added on, so a zero entry may carry either sign.
    Rows at i = 0 are zeroed (the Dirichlet edge stays pinned during
    descent).  The gradient goes to `grad`, a C-ordered node field, and
    scratch comes from `ws`.
    """
    scale = grid.hx * grid.hy
    quadratic = [(2.0 * w * p.epsilon**2 * scale, f, x, y)
                 for f, (x, y, w) in zip(terms.fields, SURFACE_STENCILS[p.variant])]
    quadratic.append((2.0 * scale, terms.dx, "Dx", None))

    term = ws.get("term", grad.shape)
    for k, (coef, f, x, y) in enumerate(quadratic):
        f[0] *= 0.5
        f[-1] *= 0.5
        dst = term if k else grad
        _whole(grid, f, x, y, True, dst, factor=coef)
        if dst is term:
            grad += term

    # slope * sign(u_y) is -(6 / w) copysign(t (1 - t), u_y): the same
    # numbers wherever it is nonzero, as the slope is <= 0 and nonzero only
    # where |u_y| > 1 - w.  Where 6 / w overflows, the fold saturates the
    # factor's products with the stencil coefficients at the largest float,
    # so the cells outside the band still give 0
    well = np.copysign(terms.q, terms.uy, out=terms.q)
    _whole(grid, well, *CELL_UY, True, term, factor=-6.0 * p.delta * scale / p.smooth_w)
    grad += term

    grad[0, :] = 0.0
    return grad


def energy_smoothed(u: ScalarField, p: EnergyParams) -> float:
    """Energy with the indicator replaced by the cubic smoothstep.

    With smooth_w = 0 this is exactly the sharp total.
    """
    if p.smooth_w == 0.0:
        return energy(u, p).total
    return _smoothed_terms(u.values, u.grid, p, Workspace())[0]


def energy_gradient(u: ScalarField, p: EnergyParams) -> ScalarField:
    """Exact gradient of energy_smoothed with respect to the nodal values."""
    if p.smooth_w <= 0.0:
        raise ZeroSmoothing("gradient needs smooth_w > 0")
    ws = Workspace()
    terms = _smoothed_terms(u.values, u.grid, p, ws)[1]
    return _adopt(u, _smoothed_gradient(terms, u.grid, p, ws, np.empty(u.values.shape)))
