"""Energy landscape exploration: descent, critical well-depth, scaling fits.

Global minimization is undecidable numerically; the critical-depth predicate
"some admissible state beats E(0) by tol_e" is evaluated over a fixed
multistart portfolio (zero field, branched seed and amplitude-scaled copies,
a seeded random perturbation), each descended with smoothing continuation:
the indicator in the well term is replaced by a cubic smoothstep whose width
is halved stage by stage, and the final report is always the sharp energy of
the best iterate seen (start included), so descent can never report worse
than its start.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .constructions import BranchedSpec, ResolutionTooCoarse, branched_seed
# energy_gradient and energy_smoothed are not called here; bench/ wraps them
# under these names, so they stay importable from this module
from .energy import (EnergyBreakdown, EnergyParams, NotAdmissible,  # noqa: F401
                     _cell_center_uy, _smoothed_gradient, _smoothed_terms,
                     b_geometry, energy, energy_gradient, energy_smoothed)
from .grid import Grid, ScalarField, l2_norm, validate_admissible, zero_field


class Diverged(RuntimeError):
    """Smoothed energy blew past 1000x the starting energy, or a descent
    step produced a non-finite iterate."""


class PortfolioShrunk(UserWarning):
    """The branched seed is unresolvable on the grid; the portfolio lost its
    branched starts."""


class BracketNotFound(RuntimeError):
    """No predicate sign change within ten decades of well-depth."""


STEP0 = 1e-3              # first trial step of each stage
MAX_BACKTRACKS = 40       # step halvings per iteration
ARMIJO = 1e-4             # sufficient-decrease constant
DIVERGENCE_FACTOR = 1e3   # smoothed-energy cap over the start's sharp energy


@dataclass(frozen=True)
class MinimizeConfig:
    """Continuation schedule and stopping rule for projected descent."""

    max_iters: int = 150
    w_init: float = 0.3
    w_factor: float = 0.5
    w_floor: Optional[float] = None   # None -> 2*hy of the grid in use
    gtol: float = 1e-9

    def schedule(self, hy: float) -> list[float]:
        floor = self.w_floor if self.w_floor is not None else 2.0 * hy
        floor = min(max(floor, 1e-6), 0.5)
        ws = []
        w = min(self.w_init, 0.5)
        while w > floor * (1.0 + 1e-12):
            ws.append(w)
            w *= self.w_factor
        ws.append(floor)
        return ws


@dataclass
class MinimizeResult:
    field: ScalarField
    breakdown: EnergyBreakdown
    trace: list[dict]
    backtrack_failures: int
    start_sharp: float


def _descend_stage(x: np.ndarray, grid: Grid, p: EnergyParams,
                   cfg: MinimizeConfig, stage: int, trace: list,
                   e_cap: float) -> tuple[np.ndarray, int]:
    """BB two-point steps with Armijo backtracking; monotone in the smoothed energy.

    Works on raw arrays: each trial point gets one value pass, and the
    gradient at an accepted trial reuses the terms of that pass.
    """
    failures = 0
    e, terms = _smoothed_terms(x, grid, p)
    g = _smoothed_gradient(terms, grid, p)
    t = STEP0
    prev_x = None
    prev_g = None
    for it in range(cfg.max_iters):
        gnorm = float(np.max(np.abs(g)))
        trace.append({"stage": stage, "iter": it, "smoothed_energy": e,
                      "grad_norm": gnorm})
        if e > e_cap:
            raise Diverged(f"smoothed energy {e:.3e} exceeded cap {e_cap:.3e}")
        if gnorm <= cfg.gtol:
            break
        if prev_x is not None:
            s = x - prev_x
            yv = g - prev_g
            denom = float((yv * yv).sum())
            if denom > 0:
                t = abs(float((s * yv).sum())) / denom
            t = min(max(t, 1e-18), 1e8)
        accepted = False
        gg = float((g * g).sum())
        for _ in range(MAX_BACKTRACKS):
            x_new = x - t * g
            if not np.isfinite(x_new).all():
                raise Diverged(f"non-finite trial iterate in stage {stage}, "
                               f"iteration {it} (step {t:.3e})")
            e_new, terms = _smoothed_terms(x_new, grid, p)
            if e_new <= e - ARMIJO * t * gg:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            if gnorm > 100.0 * cfg.gtol:
                failures += 1
            break
        prev_x, prev_g = x, g
        x, e = x_new, e_new
        g = _smoothed_gradient(terms, grid, p)
    return x, failures


def minimize(start: ScalarField, p: EnergyParams,
             cfg: Optional[MinimizeConfig] = None) -> MinimizeResult:
    """Projected descent on the smoothed energy with continuation over smooth_w.

    Returns the sharp breakdown of the best iterate across stages (the start
    counts), so the reported energy never exceeds the start's.
    """
    cfg = cfg or MinimizeConfig()
    report = validate_admissible(start)
    if not report.ok:
        raise NotAdmissible("; ".join(report.violations))
    grid = start.grid
    x = np.array(start.values)
    x[0, :] = 0.0  # pin the Dirichlet edge exactly
    start_sharp = energy(ScalarField(grid, x), p).total
    e_cap = DIVERGENCE_FACTOR * max(abs(start_sharp), 1e-30)

    trace: list[dict] = []
    failures = 0
    candidates = [(start_sharp, x)]
    for stage, w in enumerate(cfg.schedule(grid.hy)):
        pw = replace(p, smooth_w=w)
        x, nfail = _descend_stage(x, grid, pw, cfg, stage, trace, e_cap)
        failures += nfail
        candidates.append((energy(ScalarField(grid, x), p).total, x))

    best_e, best_x = min(candidates, key=lambda c: c[0])
    best = ScalarField(grid, best_x)
    return MinimizeResult(best, energy(best, p), trace, failures, start_sharp)


# ---------------------------------------------------------------------------
# admissible random fields and the multistart portfolio

def random_admissible(grid: Grid, rng: np.random.Generator,
                      amplitude: float = 1.0) -> ScalarField:
    """Band-limited trigonometric profile (modes 1..8) times powers of x/L;
    admissible by construction (vanishes at x = 0, y-periodic by storage)."""
    X, Y = grid.node_mesh()
    xi = X / grid.L
    values = np.zeros_like(X)
    for power in (1, 2):
        prof = np.zeros_like(Y)
        for n in range(1, 9):
            a, b = rng.normal(size=2) / n
            prof += a * np.cos(2.0 * math.pi * n * Y) + b * np.sin(2.0 * math.pi * n * Y)
        values += xi**power * prof
    rms = math.sqrt(float((values**2).mean()))
    if rms > 0:
        values *= amplitude / rms
    return ScalarField(grid, values)


def multistart_portfolio(epsilon: float, grid: Grid,
                         seed: int = 0) -> list[tuple[str, ScalarField]]:
    """zero field, branched seed, its x0.5 / x2 rescalings, one random start."""
    starts: list[tuple[str, ScalarField]] = [("zero", zero_field(grid))]
    try:
        seedf = branched_seed(BranchedSpec.from_epsilon(epsilon, grid.L), grid)
        starts.append(("branched", seedf))
        for s in (0.5, 2.0):
            starts.append((f"branched_x{s:g}", seedf.with_values(s * seedf.values)))
    except ResolutionTooCoarse as exc:
        warnings.warn(f"no branched starts at epsilon={epsilon:g} on the "
                      f"{grid.nx}x{grid.ny} grid (L={grid.L:g}): {exc}",
                      PortfolioShrunk, stacklevel=2)
    rng = np.random.default_rng(seed)
    starts.append(("random", random_admissible(grid, rng, amplitude=0.1)))
    return starts


# ---------------------------------------------------------------------------
# critical well-depth by bisection

@dataclass(frozen=True)
class EvalRecord:
    delta: float
    best_energy: float
    reference: float   # E(0) = delta * L
    winner: str
    beats: bool
    area_b_best: float = 0.0


@dataclass
class CriticalDeltaResult:
    epsilon: float
    L: float
    variant: int
    delta_lo: float
    delta_hi: float
    evaluations: list[EvalRecord]

    @property
    def midpoint(self) -> float:
        return math.sqrt(self.delta_lo * self.delta_hi)


def _tol_e(e0: float, epsilon: float) -> float:
    # separates genuine descent from quadrature noise
    return 1e-6 * max(e0, epsilon)


def critical_delta(epsilon: float, L: float, variant: int, grid: Grid,
                   cfg: Optional[MinimizeConfig] = None, tol_rel: float = 0.25,
                   seed: int = 0,
                   bracket: Optional[tuple[float, float]] = None) -> CriticalDeltaResult:
    """Bisection on delta over "some multistart descent beats E(0) by tol_e".

    The initial bracket comes from the calibrated theoretical band, widened
    by factors of 10 until the predicate flips; bisection is geometric and
    stops at hi/lo <= 1 + tol_rel.  A predicate descends the starts on
    min(portfolio, cores) threads; its winner is the first lowest energy in
    portfolio order, whatever that count.
    """
    from .bounds import critical_delta_bounds

    if min(epsilon, L) <= 0 or tol_rel <= 0:
        raise ValueError("epsilon, L, tol_rel must be positive")
    cfg = cfg or MinimizeConfig()
    starts = multistart_portfolio(epsilon, grid, seed=seed)
    evaluations: list[EvalRecord] = []
    n_workers = min(len(starts), os.cpu_count() or 1)

    def predicate(delta: float) -> bool:
        p = EnergyParams(epsilon, delta, variant)
        e0 = delta * grid.L

        def run(item):
            name, start_field = item
            br = minimize(start_field, p, cfg).breakdown
            return name, br.total, br.area_B

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(run, starts))
        winner, best, area = min(outcomes, key=lambda o: o[1])
        beats = best < e0 - _tol_e(e0, epsilon)
        evaluations.append(EvalRecord(delta, best, e0, winner, beats, area))
        return beats

    if bracket is not None:
        lo, hi = bracket
    else:
        lo, hi = critical_delta_bounds(epsilon, L)
        if hi <= lo:
            hi = 2.0 * lo
    for _ in range(11):
        if not predicate(lo):
            break
        lo /= 10.0
    else:
        raise BracketNotFound("predicate true over ten decades below the band")
    for _ in range(11):
        if predicate(hi):
            break
        hi *= 10.0
    else:
        raise BracketNotFound("predicate false over ten decades above the band")

    while hi / lo > 1.0 + tol_rel:
        mid = math.sqrt(lo * hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return CriticalDeltaResult(epsilon, L, variant, lo, hi, evaluations)


# ---------------------------------------------------------------------------
# scaling sweeps

@dataclass(frozen=True)
class ScalingFit:
    samples: tuple[tuple[float, float], ...]  # (epsilon, delta_c midpoint)
    slope: float
    constant: float
    residual_rms: float


def fit_power_law(x: Sequence[float], y: Sequence[float]) -> ScalingFit:
    """Least squares on log-transformed positives: y = constant * x^slope."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive samples")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return ScalingFit(tuple(zip(x.tolist(), y.tolist())), float(slope),
                      float(math.exp(intercept)),
                      float(np.sqrt(np.mean(resid**2))))


def scaling_sweep(eps_list: Sequence[float], L: float, variant: int, grid: Grid,
                  cfg: Optional[MinimizeConfig] = None, tol_rel: float = 0.25,
                  seed: int = 0) -> tuple[ScalingFit, list[CriticalDeltaResult]]:
    """Bisect the critical depth per epsilon and fit log delta_c vs log eps."""
    eps = sorted(eps_list)
    if len(eps) < 4 or math.log10(eps[-1] / eps[0]) < 1.3:
        raise ValueError("need >= 4 epsilon values spanning >= 1.3 decades")
    results = [critical_delta(e, L, variant, grid, cfg, tol_rel, seed=seed)
               for e in eps]
    fit = fit_power_law(eps, [r.midpoint for r in results])
    return fit, results


# ---------------------------------------------------------------------------
# local minimality probes

@dataclass(frozen=True)
class ProbeReport:
    n_samples: int
    eligible: int
    violations: int
    cap: float


def local_minimality_probe(p: EnergyParams, grid: Grid, n_samples: int,
                           norm_cap: Optional[float] = None,
                           area_cap: Optional[float] = None,
                           seed: int = 0) -> ProbeReport:
    """Random admissible perturbations against the local-minimality floor.

    norm mode: rescale each sample to ||v||_2 = norm_cap and count samples
    with E(v) <= E(0).  area mode: rescale the amplitude until area(B) is
    positive but below area_cap (samples that cannot reach the window are
    ineligible) and count energy violations among the eligible ones.
    """
    if (norm_cap is None) == (area_cap is None):
        raise ValueError("pass exactly one of norm_cap / area_cap")
    rng = np.random.default_rng(seed)
    e0 = p.delta * grid.L
    eligible = 0
    violations = 0
    for _ in range(n_samples):
        w = random_admissible(grid, rng)
        if norm_cap is not None:
            nrm = l2_norm(w)
            if nrm <= 0:
                continue
            v = w.with_values(w.values * (norm_cap / nrm))
            eligible += 1
            if energy(v, p).total <= e0:
                violations += 1
        else:
            uy_max = float(np.abs(_cell_center_uy(w)).max())
            if uy_max <= 0:
                continue
            v = None
            for bump in (1.001, 1.01, 1.05):
                cand = w.with_values(w.values * (bump / uy_max))
                area = b_geometry(cand).area_b
                if 0.0 < area <= area_cap:
                    v = cand
                    break
            if v is None:
                continue
            eligible += 1
            if energy(v, p).total <= e0:
                violations += 1
    cap = norm_cap if norm_cap is not None else area_cap
    return ProbeReport(n_samples, eligible, violations, float(cap))
