"""Analytic bound calculators and numerical certifiers.

Every checker returns a BoundReport (lhs, rhs, holds, slack).  Proven-true
inequalities are verified with the relative tolerance factor
1 - 10*max(hx, hy), which absorbs discretization error; where it is not
positive every field would pass, so the checkers raise GridTooCoarse.
Unnamed constants of the inequalities are calibration parameters:
estimated once by a documented sweep (see calibrate.py), frozen into the
packaged file calibration.json and read-only here: no environment
setting changes them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from .energy import (EmptyB, EmptyPiM, TauOne, TruncatedBSet, b_geometry,
                     surface_and_elastic, truncate_b)
from .grid import ScalarField, _field_integral_square, l2_norm

POINCARE_CONSTANT = math.pi**2 / 4.0  # sharp 1D Dirichlet-Neumann constant


class DegenerateInterval(ValueError):
    """Obstacle problem needs finite y2 > y1."""


class BandEmpty(ValueError):
    """The proportional band needs delta >= 16 eps^2."""


class InequalityViolated(RuntimeError):
    """A proven inequality failed its tolerance-adjusted check."""


class GridTooCoarse(ValueError):
    """The grid tolerance 1 - 10*max(hx, hy) is not positive: no check can fail."""


# ---------------------------------------------------------------------------
# calibration

@lru_cache(maxsize=1)
def load_calibration() -> dict:
    """Calibration constants (checker name -> value) of the packaged file."""
    with resources.files("wellscape").joinpath("calibration.json").open() as fh:
        return json.load(fh)


def calibration_value(name: str) -> float:
    cal = load_calibration()
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


def _report(check: str, context: str, lhs: float, rhs: float, u: ScalarField) -> BoundReport:
    """The report of lhs >= rhs, tested at u's grid tolerance 1 - 10*max(hx, hy)."""
    tolerance = 1.0 - 10.0 * max(u.grid.hx, u.grid.hy)
    if tolerance <= 0.0:
        raise GridTooCoarse(f"{check}: grid tolerance {tolerance:g} <= 0 on {u.grid}")
    return BoundReport(check, context, lhs, rhs, lhs - rhs, lhs >= rhs * tolerance)


# ---------------------------------------------------------------------------
# 1D obstacle problem

def _check_interval(y1: float, y2: float) -> None:
    if not (math.isfinite(y1) and math.isfinite(y2) and y2 > y1):
        raise DegenerateInterval(f"need finite y2 > y1, got {y1}, {y2}")


def obstacle_min_1d(y1: float, y2: float) -> float:
    """min of int f''^2 over f with f'(y1) >= 1, f'(y2) <= -1: 4/(y2-y1),
    attained by the profile f(y) = (y - (y1+y2)/2)^2 / (y1 - y2)."""
    _check_interval(y1, y2)
    return 4.0 / (y2 - y1)


def obstacle_qp_oracle(y1: float, y2: float, n: int = 512) -> tuple[float, np.ndarray, np.ndarray]:
    """Discrete quadratic program: minimize h * sum of second differences squared.

    Minimize sum_{i=1}^{n-1} s_i^2 / h^3, s_i = f_{i-1} - 2 f_i + f_{i+1},
    over the nodal values f_0..f_n, subject to the one-sided second-order
    slopes f'(y1) >= 1 and f'(y2) <= -1 and the gauge f(y1) = 0.  With
    d_i = f_i - f_{i-1} the slopes read d_1 - s_1/2 >= h and
    d_n + s_{n-1}/2 <= -h, and d_n = d_1 + sum s.  Some d_1 meets both
    exactly when w . s <= -2h, w = (1, ..., 1) plus 1/2 at both ends, so
    the optimum is the least-norm s = -2h w / (w . w) with value
    4 / (h w . w).  That s meets w . s <= -2h with equality, which leaves
    the one d_1 = h + s_1/2: both slope constraints are active.  O(n) time
    and memory.  Returns (value, nodes, profile).
    """
    _check_interval(y1, y2)
    if n < 2:
        raise ValueError(f"the QP needs n >= 2, got {n}")
    h = (y2 - y1) / n
    nodes = y1 + h * np.arange(n + 1)
    w = np.ones(n - 1)
    w[0] += 0.5
    w[-1] += 0.5
    ww = float(w @ w)
    s = (-2.0 * h / ww) * w
    d = np.concatenate(([0.0], np.cumsum(s))) + (h + 0.5 * s[0])
    f = np.concatenate(([0.0], np.cumsum(d)))
    return 4.0 / (h * ww), nodes, f


# ---------------------------------------------------------------------------
# field checkers

def lemma1_check(u: ScalarField) -> BoundReport:
    """int u_yy^2 / area(B) >= 4 / (tau (1 - tau)), tolerance-adjusted."""
    geom = b_geometry(u)
    if geom.area_b <= 0.0:
        raise EmptyB("lemma1_check requires area(B) > 0")
    if geom.tau is None or geom.tau >= 1.0 - 1e-9:
        raise TauOne(f"tau = {geom.tau}: occupied columns fully inside B")
    lhs = _field_integral_square(u, y="Dyy") / geom.area_b
    rhs = 4.0 / (geom.tau * (1.0 - geom.tau))
    return _report("lemma1", f"tau={geom.tau:.6g},area_B={geom.area_b:.6g}", lhs, rhs, u)


def estimate_interp_constant(family: Iterable[np.ndarray]) -> float:
    """Empirical infimum of (sigma^-2 int f'' ^2 + sigma^2 int f^2) / int f'^2.

    family yields 1D periodic profiles sampled on a uniform grid of [0, 1);
    profiles with vanishing int f'^2 are skipped.  For a profile with
    integrals a = int f''^2, b = int f^2 and c = int f'^2, the minimum over
    sigma of a / sigma^2 + sigma^2 b is 2 sqrt(ab), taken at
    sigma = (a/b)^(1/4), so its ratio is 2 sqrt(ab) / c.
    """
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
        best = min(best, 2.0 * math.sqrt(a * bb) / c)
    return best


def poincare_check(u: ScalarField) -> BoundReport:
    """int u_x^2 >= (pi^2/4) / L^2 * int u^2 for fields vanishing at x = 0."""
    g = u.grid
    lhs = _field_integral_square(u, "Dx")
    rhs = POINCARE_CONSTANT / g.L**2 * _field_integral_square(u)
    return _report("poincare", f"L={g.L:g}", lhs, rhs, u)


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
    lhs = l2_norm(u) * math.sqrt(_field_integral_square(u, "Dx"))
    base = (trunc.area_b_m / trunc.len_pi_m) ** 2 / M
    return lhs, base, trunc


def killerinterp_check(u: ScalarField, M: float) -> BoundReport:
    """||u||_2 ||u_x||_2 >= (C/M) (area(B_M)/len(Pi_M))^2, calibrated C."""
    lhs, base, trunc = killerinterp_sides(u, M)
    rhs = calibration_value("killerinterp_C") * base
    raw = lhs / base if base > 0 else math.inf
    ctx = f"M={M:.6g},raw_C={raw:.6g},area_B_M={trunc.area_b_m:.6g}"
    return _report("killerinterp", ctx, lhs, rhs, u)


def wopper_check(u: ScalarField, epsilon: float) -> BoundReport:
    """The surface + elastic energy dominates epsilon times the largest
    column B-length.

    The lemma asks this of the columns whose boundary term, the integral of
    d/dy (u_y u_x) along the column, vanishes.  Every column qualifies:
    fields are y-periodic by storage, and a periodic sum of central
    differences telescopes to zero.
    """
    geom = b_geometry(u)
    lhs = sum(surface_and_elastic(u, epsilon, 1))
    if geom.area_b <= 0.0:
        return _report("wopper", "vacuous (B empty)", lhs, 0.0, u)
    return _report("wopper", f"eps={epsilon:g}", lhs,
                   epsilon * float(geom.column_lengths.max()), u)


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


def pq_region(epsilon: float, delta: float, L: float) -> PqRegion:
    """The region with the theorem's constants all set to 1."""
    if min(epsilon, delta, L) <= 0:
        raise ValueError("epsilon, delta, L must be positive")
    f_const = epsilon**6 * delta**-3.5
    g_slope = epsilon * delta**-0.5
    upper_slope = L * delta**0.5
    p_min = math.sqrt(f_const * g_slope)
    q_min = math.sqrt(f_const / upper_slope)
    return PqRegion(f_const, g_slope, upper_slope, p_min, q_min,
                    g_slope < upper_slope)
