"""Analytic bound calculators and numerical certifiers.

Every checker returns a BoundReport (lhs, rhs, holds, slack).  Proven-true
inequalities are verified with the relative tolerance factor
1 - 10*max(hx, hy), which absorbs discretization error.  Unnamed constants
from the theory are calibration parameters: estimated once by a documented
sweep (see calibrate.py), frozen into a JSON file, and read-only here.  The
env var WELLSCAPE_CALIBRATION overrides the packaged file.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Optional, Sequence

import numpy as np

from .energy import (EmptyB, EmptyPiM, TauOne, TruncatedBSet, b_geometry,
                     surface_and_elastic, truncate_b)
from .grid import ScalarField, apply, integrate, l2_norm

POINCARE_CONSTANT = math.pi**2 / 4.0  # sharp 1D Dirichlet-Neumann constant


class DegenerateInterval(ValueError):
    """Obstacle problem needs y2 > y1."""


class BandEmpty(ValueError):
    """The proportional band needs delta >= 16 eps^2."""


class InequalityViolated(RuntimeError):
    """A proven inequality failed its tolerance-adjusted check."""


# ---------------------------------------------------------------------------
# calibration

def _calibration_path() -> Optional[str]:
    return os.environ.get("WELLSCAPE_CALIBRATION")


@lru_cache(maxsize=8)
def _load_calibration_file(path: Optional[str]) -> dict:
    if path is not None:
        with open(path) as fh:
            return json.load(fh)
    with resources.files("wellscape").joinpath("calibration.json").open() as fh:
        return json.load(fh)


def load_calibration() -> dict:
    """Calibration constants (checker name -> value)."""
    return _load_calibration_file(_calibration_path())


def calibration_value(name: str, calibration: Optional[dict] = None) -> float:
    cal = calibration if calibration is not None else load_calibration()
    if name not in cal:
        raise KeyError(f"calibration constant {name!r} missing")
    return float(cal[name])


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class BoundReport:
    check: str
    context: str
    lhs: float
    rhs: float
    slack: float
    holds: bool


def reports_to_csv(reports: Sequence[BoundReport], fh) -> None:
    """CSV columns (check, context, lhs, rhs, slack, holds)."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["check", "context", "lhs", "rhs", "slack", "holds"])
    for r in reports:
        writer.writerow([r.check, r.context, repr(r.lhs), repr(r.rhs),
                         repr(r.slack), r.holds])


def grid_tolerance(u: ScalarField) -> float:
    return 1.0 - 10.0 * max(u.grid.hx, u.grid.hy)


# ---------------------------------------------------------------------------
# 1D obstacle problem

@dataclass(frozen=True)
class ObstacleSolution:
    value: float
    y1: float
    y2: float

    def minimizer(self, y):
        """The optimal profile (y - (y1+y2)/2)^2 / (y1 - y2)."""
        mid = 0.5 * (self.y1 + self.y2)
        return (np.asarray(y) - mid) ** 2 / (self.y1 - self.y2)


def obstacle_min_1d(y1: float, y2: float) -> ObstacleSolution:
    """min of int f''^2 over f with f'(y1) >= 1, f'(y2) <= -1: 4/(y2-y1)."""
    if y2 <= y1:
        raise DegenerateInterval(f"need y2 > y1, got {y1}, {y2}")
    return ObstacleSolution(4.0 / (y2 - y1), y1, y2)


def obstacle_qp_oracle(y1: float, y2: float, n: int = 512) -> tuple[float, np.ndarray, np.ndarray]:
    """Discrete quadratic program: minimize h * sum of second differences squared.

    Both derivative constraints are active at the optimum; the
    equality-constrained KKT system is solved directly and the multiplier
    signs are verified so the solution certifies the inequality-constrained
    problem.  Returns (value, nodes, profile).
    """
    if y2 <= y1:
        raise DegenerateInterval(f"need y2 > y1, got {y1}, {y2}")
    h = (y2 - y1) / n
    nodes = y1 + h * np.arange(n + 1)

    D2 = np.zeros((n - 1, n + 1))
    idx = np.arange(n - 1)
    D2[idx, idx] = 1.0
    D2[idx, idx + 1] = -2.0
    D2[idx, idx + 2] = 1.0
    Q = D2.T @ D2 / h**3  # value = f^T Q f

    A = np.zeros((3, n + 1))
    A[0, :3] = np.array([-3.0, 4.0, -1.0]) / (2.0 * h)   # f'(y1) = 1
    A[1, n - 2:] = np.array([1.0, -4.0, 3.0]) / (2.0 * h)  # f'(y2) = -1
    A[2, 0] = 1.0                                          # gauge f(y1) = 0
    b = np.array([1.0, -1.0, 0.0])

    kkt = np.zeros((n + 4, n + 4))
    kkt[:n + 1, :n + 1] = 2.0 * Q
    kkt[:n + 1, n + 1:] = A.T
    kkt[n + 1:, :n + 1] = A
    rhs = np.concatenate([np.zeros(n + 1), b])
    sol = np.linalg.solve(kkt, rhs)
    f = sol[:n + 1]
    lam = sol[n + 1:]
    # stationarity 2Qf = -A^T lam: the >=-constraint needs lam[0] <= 0 and the
    # <=-constraint lam[1] >= 0 for the active set to be KKT-consistent
    tol = 1e-8 * (abs(lam[0]) + abs(lam[1]) + 1.0)
    if lam[0] > tol or lam[1] < -tol:
        raise RuntimeError(f"QP multiplier signs inconsistent: {lam[:2]}")
    return float(f @ Q @ f), nodes, f


# ---------------------------------------------------------------------------
# field checkers

def lemma1_check(u: ScalarField) -> BoundReport:
    """int u_yy^2 / area(B) >= 4 / (tau (1 - tau)), tolerance-adjusted."""
    geom = b_geometry(u)
    if geom.area_b <= 0.0:
        raise EmptyB("lemma1_check requires area(B) > 0")
    if geom.tau is None or geom.tau >= 1.0 - 1e-9:
        raise TauOne(f"tau = {geom.tau}: occupied columns fully inside B")
    lhs = integrate(apply(u.grid, u.values, y="Dyy") ** 2, u.grid) / geom.area_b
    rhs = 4.0 / (geom.tau * (1.0 - geom.tau))
    holds = lhs >= rhs * grid_tolerance(u)
    ctx = f"tau={geom.tau:.6g},area_B={geom.area_b:.6g}"
    return BoundReport("lemma1", ctx, lhs, rhs, lhs - rhs, holds)


def estimate_interp_constant(family: Iterable[np.ndarray],
                             sigma_grid: Sequence[float]) -> float:
    """Empirical infimum of (sigma^-2 int f'' ^2 + sigma^2 int f^2) / int f'^2.

    family yields 1D periodic profiles sampled on a uniform grid of [0, 1);
    profiles with vanishing int f'^2 are skipped.
    """
    sigma = np.asarray(list(sigma_grid), dtype=float)
    if np.any(sigma == 0.0):
        raise ValueError("sigma grid must avoid zero")
    best = math.inf
    for f in family:
        f = np.asarray(f, dtype=float)
        m = f.size
        hy = 1.0 / m
        fyy = (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / hy**2
        fy = (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * hy)
        a = hy * float(fyy @ fyy)
        bb = hy * float(f @ f)
        c = hy * float(fy @ fy)
        if c <= 1e-14 * (a + bb + 1.0):
            continue
        ratios = (a / sigma**2 + sigma**2 * bb) / c
        best = min(best, float(ratios.min()))
    return best


def poincare_check(u: ScalarField) -> BoundReport:
    """int u_x^2 >= (pi^2/4) / L^2 * int u^2 for fields vanishing at x = 0."""
    g = u.grid
    lhs = integrate(apply(g, u.values, "Dx") ** 2, g)
    rhs = POINCARE_CONSTANT / g.L**2 * integrate(u.values**2, g)
    holds = lhs >= rhs * grid_tolerance(u)
    return BoundReport("poincare", f"L={g.L:g}", lhs, rhs, lhs - rhs, holds)


def proportional_band(epsilon: float, delta: float) -> tuple[float, float]:
    """The band 4 eps^2 / delta <= tau <= 1 - 4 eps^2 / delta."""
    if delta < 16.0 * epsilon**2 * (1.0 - 1e-12):  # slack keeps the exact threshold in
        raise BandEmpty(f"delta = {delta} < 16 eps^2 = {16 * epsilon**2}")
    lo = 4.0 * epsilon**2 / delta
    return lo, 1.0 - lo


def killerinterp_sides(u: ScalarField, M: float) -> tuple[float, float, TruncatedBSet]:
    """(||u||_2 ||u_x||_2, (area(B_M)/len(Pi_M))^2 / M, the truncation).

    The two sides of the truncated interpolation bound without its constant,
    shared by killerinterp_check and the calibration sweep that sets C.
    """
    trunc = truncate_b(u, M)  # EmptyB when area(B) = 0
    if trunc.pi_m_columns.size == 0 or trunc.area_b_m <= 0.0:
        raise EmptyPiM("truncation removed every column")
    lhs = l2_norm(u) * math.sqrt(max(integrate(
        apply(u.grid, u.values, "Dx") ** 2, u.grid), 0.0))
    base = (trunc.area_b_m / trunc.len_pi_m) ** 2 / M
    return lhs, base, trunc


def killerinterp_check(u: ScalarField, M: float,
                       calibration: Optional[dict] = None) -> BoundReport:
    """||u||_2 ||u_x||_2 >= (C/M) (area(B_M)/len(Pi_M))^2, calibrated C."""
    lhs, base, trunc = killerinterp_sides(u, M)
    C = calibration_value("killerinterp_C", calibration)
    rhs = C * base
    holds = lhs >= rhs * grid_tolerance(u)
    raw = lhs / base if base > 0 else math.inf
    ctx = f"M={M:.6g},raw_C={raw:.6g},area_B_M={trunc.area_b_m:.6g}"
    return BoundReport("killerinterp", ctx, lhs, rhs, lhs - rhs, holds)


def wopper_check(u: ScalarField, epsilon: float) -> BoundReport:
    """Where the column boundary term vanishes, the surface + elastic energy
    dominates epsilon times the column's B-length.

    Columns failing the boundary-term condition are skipped (reported in the
    context); with structurally periodic fields the condition holds
    identically, since a periodic sum of central differences telescopes.
    """
    g = u.grid
    uy = apply(g, u.values, y="Dy")
    ux = apply(g, u.values, "Dx")
    dcol = apply(g, uy * ux, y="Dy")
    con2 = g.hy * dcol.sum(axis=1)  # per node column
    tol = 1e-8 * (np.abs(uy).max() * np.abs(ux).max() + 1.0)
    ok_nodes = np.abs(con2) <= tol
    ok_cells = ok_nodes[:-1] & ok_nodes[1:]

    geom = b_geometry(u)
    lhs = sum(surface_and_elastic(u, epsilon, 1))
    lengths = np.where(ok_cells, geom.column_lengths, 0.0)
    rhs = epsilon * float(lengths.max()) if lengths.size else 0.0
    if geom.area_b <= 0.0:
        return BoundReport("wopper", "vacuous (B empty)", lhs, 0.0, lhs, True)
    holds = lhs >= rhs * grid_tolerance(u)
    ctx = f"qualifying_columns={int(ok_cells.sum())}/{ok_cells.size}"
    return BoundReport("wopper", ctx, lhs, rhs, lhs - rhs, holds)


# ---------------------------------------------------------------------------
# closed-form bound calculators

def theorem2_bounds(epsilon: float, delta: float, L: float, C: float = 1.0) -> tuple[float, float]:
    """(r, s) = (C eps^3.5 / delta^2, C eps^6 / (delta^4 L))."""
    if min(epsilon, delta, L) <= 0:
        raise ValueError("epsilon, delta, L must be positive")
    return C * epsilon**3.5 / delta**2, C * epsilon**6 / (delta**4 * L)


@dataclass(frozen=True)
class PqRegion:
    """Feasible (p, q) = (||v||_2, area(B)^1/2) region for energy-lowering v."""

    f_const: float      # pq >= f_const
    g_slope: float      # p >= g_slope * q
    upper_slope: float  # p <= upper_slope * q
    p_min: float
    q_min: float
    nonempty: bool


def pq_region(epsilon: float, delta: float, L: float,
              constants: Optional[dict] = None) -> PqRegion:
    if min(epsilon, delta, L) <= 0:
        raise ValueError("epsilon, delta, L must be positive")
    c = {"C_f": 1.0, "C_g": 1.0, "C_u": 1.0}
    if constants:
        c.update(constants)
    f_const = c["C_f"] * epsilon**6 * delta**-3.5
    g_slope = c["C_g"] * epsilon * delta**-0.5
    upper_slope = c["C_u"] * L * delta**0.5
    p_min = math.sqrt(f_const * g_slope)
    q_min = math.sqrt(f_const / upper_slope)
    return PqRegion(f_const, g_slope, upper_slope, p_min, q_min,
                    g_slope < upper_slope)


def critical_delta_bounds(epsilon: float, L: float,
                          calibration: Optional[dict] = None) -> tuple[float, float]:
    """Calibrated band for the critical well-depth: (max(16 eps^2, c eps/L), C eps/L)."""
    if epsilon <= 0 or L <= 0:
        raise ValueError("epsilon and L must be positive")
    c_lo = calibration_value("critical_delta_lower_c", calibration)
    c_hi = calibration_value("critical_delta_upper_C", calibration)
    return max(16.0 * epsilon**2, c_lo * epsilon / L), c_hi * epsilon / L
