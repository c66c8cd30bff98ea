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
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .constructions import BranchedSpec, ResolutionTooCoarse, branched_seed
# energy_gradient and energy_smoothed are not called here; bench/ wraps them
# under these names, so they stay importable from this module
from .energy import (EnergyBreakdown, EnergyParams, _smoothed_gradient,  # noqa: F401
                     _smoothed_terms, b_geometry, energy, energy_gradient,
                     energy_smoothed, require_admissible, uy_peak)
from .grid import Grid, ScalarField, Workspace, _adopt, _finite, l2_norm, zero_field


class Diverged(RuntimeError):
    """Smoothed energy blew past 1000x the starting energy, or a descent
    step produced a non-finite iterate."""


class PortfolioShrunk(UserWarning):
    """The branched seed is unresolvable on the grid; the portfolio lost its
    branched starts."""


class BracketNotFound(RuntimeError):
    """No predicate sign change within ten decades of well-depth, or a
    bracket too near 0 for its geometric midpoint to be a float inside it."""


STEP0 = 1e-3              # first trial step of each stage
MAX_BACKTRACKS = 40       # step halvings per iteration
ARMIJO = 1e-4             # sufficient-decrease constant
DIVERGENCE_FACTOR = 1e3   # smoothed-energy cap over the start's sharp energy
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class MinimizeConfig:
    """Continuation schedule and stopping rule for projected descent."""

    max_iters: int = 150
    w_init: float = 0.3
    w_factor: float = 0.5
    w_floor: Optional[float] = None   # None -> 2*hy of the grid in use
    gtol: float = 1e-9

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not 0.0 < self.w_factor < 1.0:
            raise ValueError(f"w_factor must lie in (0, 1), got {self.w_factor}")

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
    # least certificate(...) over the start and the stage ends, and its field
    # (None while every one of them is +inf)
    certificate: float = math.inf
    certificate_field: Optional[ScalarField] = None


def _tol_e(e0: float, epsilon: float) -> float:
    # separates genuine descent from quadrature noise
    return 1e-6 * max(e0, epsilon)


def _beats(total: float, e0: float, epsilon: float) -> bool:
    """The predicate's test: an energy below E(0) = e0 by more than tol_e."""
    return total < e0 - _tol_e(e0, epsilon)


def certificate(br: EnergyBreakdown, epsilon: float, L: float) -> float:
    """The least delta from which on the field of breakdown br passes the
    predicate's float test, up to that test's rounding.

    For a fixed field, E_delta = Q + delta*(L - area_B) with Q = surface +
    elastic, so the margin (E(0) - tol_e) - E_delta = delta*area_B - Q -
    1e-6*max(delta*L, eps) rises with delta, and the field certifies
    delta_c <= certificate.  Each branch of tol_e gives a closed form.  Q and
    area_B are first moved by a bound on the test's rounding error,
    8u(Q + 2 delta L) with u the unit roundoff, so that the test holds at
    the returned value and at every larger delta, not just near the root;
    the value is then stepped up an ulp at a time until the test holds.
    +inf when the margin stops rising (area_B about 1e-6 L or less, in
    particular area_B = 0).
    """
    q, area = br.surface + br.elastic, br.area_B
    q_hi, area_lo = q * (1.0 + 8.0 * _UNIT_ROUNDOFF), area - 16.0 * _UNIT_ROUNDOFF * L
    if not (area_lo - 1e-6 * L > 0.0 and math.isfinite(q)):
        return math.inf
    c = (q_hi + 1e-6 * epsilon) / area_lo      # tol_e = 1e-6 eps while delta*L < eps
    if c * L >= epsilon:
        c = q_hi / (area_lo - 1e-6 * L)        # tol_e = 1e-6 delta*L
    for _ in range(64):
        if _beats(q + c * (L - area), c * L, epsilon):   # energy()'s total at c
            return c
        c = math.nextafter(c, math.inf)
    return math.inf


def _descend_stage(x: np.ndarray, grid: Grid, p: EnergyParams,
                   cfg: MinimizeConfig, stage: int, trace: list,
                   e_cap: float, ws: Workspace) -> tuple[np.ndarray, int]:
    """BB two-point steps with Armijo backtracking; monotone in the smoothed energy.

    Works on raw arrays: each trial point gets one value pass, and the
    gradient at an accepted trial reuses the terms of that pass.  The
    descent's own arrays live in the workspace ws: trial iterates rotate
    through three of its buffers and gradients through two, and the passes
    write into the rest.  The BB step forms y = g - g_prev and
    s = x - x_prev in place in the previous gradient and iterate, which
    nothing reads after (the next gradient and trial overwrite them), and
    max |g| as max(max g, -min g), so it needs no buffer of its own.  The
    only whole-field arrays an iteration allocates are the intermediates of
    its two-operator applies and adjoints (the cell-center u_y, and u_xy
    for variants 2 and 3), one at a time, in grid._blocks.  The BB step's
    inner products are einsum reductions, which write no product field and
    never call BLAS, so the iterates do not depend on BLAS threads.  The
    returned iterate is one of those buffers, which the next stage on ws
    overwrites; x may be one too (the previous stage's end), or the
    caller's array, which the BB step may overwrite.
    """
    xs = [ws.get(("x", k), x.shape) for k in range(3)]
    gs = [ws.get(("g", k), x.shape) for k in range(2)]
    failures = 0
    e, terms = _smoothed_terms(x, grid, p, ws)
    g = _smoothed_gradient(terms, grid, p, ws, gs[0])
    t = STEP0
    prev_x = None
    prev_g = None
    for it in range(cfg.max_iters):
        gnorm = float(max(g.max(), -g.min())) + 0.0   # max |g|, +0.0 for -0.0
        trace.append({"stage": stage, "iter": it, "smoothed_energy": e,
                      "grad_norm": gnorm})
        if e > e_cap:
            raise Diverged(f"smoothed energy {e:.3e} exceeded cap {e_cap:.3e}")
        if gnorm <= cfg.gtol:
            break
        if prev_x is not None:
            yv = np.subtract(g, prev_g, out=prev_g)
            denom = float(np.einsum("ij,ij->", yv, yv))
            if denom > 0:
                sv = np.subtract(x, prev_x, out=prev_x)
                t = abs(float(np.einsum("ij,ij->", sv, yv))) / denom
            t = min(max(t, 1e-18), 1e8)
        accepted = False
        gg = float(np.einsum("ij,ij->", g, g))
        x_new = next(buf for buf in xs if buf is not x and buf is not prev_x)
        for _ in range(MAX_BACKTRACKS):
            np.multiply(g, t, out=x_new)
            np.subtract(x, x_new, out=x_new)
            if not _finite(x_new):
                raise Diverged(f"non-finite trial iterate in stage {stage}, "
                               f"iteration {it} (step {t:.3e})")
            e_new, terms = _smoothed_terms(x_new, grid, p, ws)
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
        g = _smoothed_gradient(terms, grid, p, ws, next(buf for buf in gs if buf is not prev_g))
    return x, failures


def minimize(start: ScalarField, p: EnergyParams,
             cfg: Optional[MinimizeConfig] = None) -> MinimizeResult:
    """Projected descent on the smoothed energy with continuation over smooth_w.

    Returns the sharp breakdown of the best iterate across stages (the start
    counts), so the reported energy never exceeds the start's, and the least
    certificate among the same fields.
    """
    cfg = cfg or MinimizeConfig()
    require_admissible(start)
    grid = start.grid
    x = np.array(start.values)
    x[0, :] = 0.0  # pin the Dirichlet edge exactly
    best = ScalarField(grid, x)
    best_br = energy(best, p)
    e_cap = DIVERGENCE_FACTOR * max(abs(best_br.total), 1e-30)

    trace: list[dict] = []
    failures = 0
    ws = Workspace()   # shared by the stages, so their arrays are made once
    cert = certificate(best_br, p.epsilon, grid.L)
    cert_field = best if cert < math.inf else None
    for stage, w in enumerate(cfg.schedule(grid.hy)):
        pw = replace(p, smooth_w=w)
        x, nfail = _descend_stage(x, grid, pw, cfg, stage, trace, e_cap, ws)
        failures += nfail
        end = ScalarField(grid, x)   # a copy: x is a buffer the next stage overwrites
        br = energy(end, p)
        c = certificate(br, p.epsilon, grid.L)
        if br.total < best_br.total:
            best, best_br = end, br
        if c < cert:
            cert, cert_field = c, end
    return MinimizeResult(best, best_br, trace, failures, cert, cert_field)


# ---------------------------------------------------------------------------
# admissible random fields and the multistart portfolio

def random_admissible(grid: Grid, rng: np.random.Generator,
                      amplitude: float = 1.0) -> ScalarField:
    """Band-limited trigonometric profile (modes 1..8) times powers of x/L;
    admissible by construction (vanishes at x = 0, y-periodic by storage)."""
    y = grid.y_nodes
    xi = (grid.x_nodes / grid.L)[:, None]
    profs = []
    for _ in (1, 2):
        prof = np.zeros_like(y)
        for n in range(1, 9):
            a, b = rng.normal(size=2) / n
            prof += a * np.cos(2.0 * math.pi * n * y) + b * np.sin(2.0 * math.pi * n * y)
        profs.append(prof)

    def fill(values):
        # (xi p1 + 0.0) + xi^2 p2, the second product 16 rows at a time, so
        # that no product field is made; -0.0 + 0.0 keeps the x = 0 row at +0.0
        np.multiply(xi, profs[0], out=values)
        values += 0.0
        for r0 in range(0, len(values), 16):
            values[r0:r0 + 16] += xi[r0:r0 + 16] ** 2 * profs[1]
        return values

    # the rms needs every square summed in numpy's own order: the squares
    # are taken in place, then the field is filled again, so that no second
    # field is held
    values = fill(np.empty((grid.nx + 1, grid.ny)))
    rms = math.sqrt(float(np.square(values, out=values).mean()))
    fill(values)
    if rms > 0:
        values *= amplitude / rms
    values.setflags(write=False)
    return ScalarField(grid, values)


def multistart_portfolio(epsilon: float, grid: Grid,
                         seed: int = 0) -> list[tuple[str, ScalarField]]:
    """zero field, branched seed, its x0.5 / x2 rescalings, one random start."""
    starts: list[tuple[str, ScalarField]] = [("zero", zero_field(grid))]
    try:
        seedf = branched_seed(BranchedSpec.from_epsilon(epsilon, grid.L), grid)
        starts.append(("branched", seedf))
        for s in (0.5, 2.0):
            starts.append((f"branched_x{s:g}", _adopt(seedf, s * seedf.values)))
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
    beats: bool        # the descent outcome, whatever the certificates say
    certificate: float = math.inf   # least certificate among the fields descended
    certificate_start: str = ""     # the start whose descent gave it


@dataclass
class CriticalDeltaResult:
    """delta_hi is the least certificate seen: certificate_field passes the
    predicate's test there.  delta_lo is the largest delta below it at which
    no descent beat E(0)."""

    epsilon: float
    L: float
    variant: int
    delta_lo: float
    delta_hi: float
    evaluations: list[EvalRecord]
    certificate_field: Optional[ScalarField] = None
    certificate_start: str = ""
    certificate_delta: Optional[float] = None   # None: an undescended start
    inversions: int = 0   # predicates false at a delta a certificate settled as true

    @property
    def midpoint(self) -> float:
        return math.sqrt(self.delta_lo * self.delta_hi)


_BAND_LOWER_C = 4.413225327179394
_BAND_UPPER_C = 49.35138849834494


def _search_band(epsilon: float, L: float) -> tuple[float, float]:
    """(down, top) = (max(16 eps^2, c eps/L), C eps/L), where the search starts;
    top is 2 down where C eps/L <= down, so the band is never empty.

    c and C are calibrate's eps = 0.02, 128^2 bracket over and times 3,
    frozen so that no change to descent moves them.  They are no constants
    of an inequality: they only choose the first delta of a downward search,
    the climb's start and the probe gate.
    """
    down = max(16.0 * epsilon**2, _BAND_LOWER_C * epsilon / L)
    top = _BAND_UPPER_C * epsilon / L
    return down, top if top > down else 2.0 * down


class _Certificate(NamedTuple):
    value: float
    start: str
    delta: Optional[float]
    field: Optional[ScalarField]


def critical_delta(epsilon: float, L: float, variant: int, grid: Grid,
                   cfg: Optional[MinimizeConfig] = None, tol_rel: float = 0.25,
                   seed: int = 0) -> CriticalDeltaResult:
    """Bisection on delta over "some multistart descent beats E(0) by tol_e".

    The energy of a fixed field is affine in delta, so every field with
    area_B > 0 passes the predicate from its certificate() on.  delta_hi is
    the least certificate over the portfolio's starts and every stage end
    that a predicate descends; it is certified by a named field and no later
    descent can contradict it.  delta_lo is the largest delta below delta_hi
    at which no descent beat E(0).

    The search keeps top, the top of _search_band's band, and
    hi = min(top, least certificate).  When a start certifies top, the
    first predicate probes just below hi: at hi/(1 + tol_rel), stepped up
    until hi/delta <= 1 + tol_rel holds in floats, the stop test below.  A
    false probe is lo and settles the bracket, one predicate in all (its
    descents can only lower hi to a certificate above it, or they would
    have beaten E(0) there); a true one lowers hi to a certificate at or
    below it.  Then each pass takes lo, the largest false delta below hi,
    and does one of four things:

    - no lo: the next step of a downward search by factors of 10, which
      starts at the band's low end on the first pass and at hi/10 on a
      later one; a step at or above hi runs no predicate;
    - no certificate at or below top: climb, a predicate at top, then top
      times 10;
    - hi/lo > 1 + tol_rel: a predicate at the geometric midpoint;
    - otherwise stop.

    A downward search and the climb each raise BracketNotFound after 11
    steps, and so does a midpoint step once lo * hi underflows: a predicate
    that keeps certifying below lo drives the bracket towards 0, and
    sqrt(lo * hi) is then no float inside it.  No predicate runs at a delta
    a certificate settles.  A predicate false at a delta that a later
    certificate reaches is counted in `inversions`.  A predicate descends
    the starts one after another on the calling thread, in portfolio order;
    its winner is the first lowest energy.
    """
    if min(epsilon, L) <= 0 or tol_rel <= 0:
        raise ValueError("epsilon, L, tol_rel must be positive")
    if not math.isclose(L, grid.L, rel_tol=1e-12):
        raise ValueError(f"L {L} != grid width {grid.L}")
    cfg = cfg or MinimizeConfig()
    starts = multistart_portfolio(epsilon, grid, seed=seed)
    evaluations: list[EvalRecord] = []
    p0 = EnergyParams(epsilon, 0.0, variant)
    best = min((_Certificate(certificate(energy(f, p0), epsilon, grid.L), name, None, f)
                for name, f in starts), key=lambda c: c.value)

    def predicate(delta: float) -> None:
        """Run one predicate, record it and keep the least certificate."""
        nonlocal best
        p = EnergyParams(epsilon, delta, variant)
        e0 = delta * grid.L

        outcomes = []
        for name, start_field in starts:
            res = minimize(start_field, p, cfg)
            # best changes only after the last start, so a field that cannot
            # lower it is dropped here instead of kept until then
            field = res.certificate_field if res.certificate < best.value else None
            outcomes.append((name, res.breakdown.total, res.certificate, field))
        winner, total, _, _ = min(outcomes, key=lambda o: o[1])
        cert_start, _, cert, cert_field = min(outcomes, key=lambda o: o[2])
        evaluations.append(EvalRecord(delta, total, e0, winner, _beats(total, e0, epsilon),
                                      cert, cert_start))
        if cert < best.value:
            best = _Certificate(cert, cert_start, delta, cert_field)

    down, top = _search_band(epsilon, L)
    if best.value <= top:
        hi = best.value
        probe = hi / (1.0 + tol_rel)
        while hi / probe > 1.0 + tol_rel:
            probe = math.nextafter(probe, math.inf)
        predicate(probe)
    down_from, downs, climbs = down, 0, 0
    while True:
        hi = min(top, best.value)
        lo = max((r.delta for r in evaluations if not r.beats and r.delta < hi),
                 default=None)
        if lo is None:
            if down is None:   # a new downward search
                down_from = down = hi / 10.0
                downs = 0
            if downs == 11:
                raise BracketNotFound(f"predicate true over ten decades below {down_from:.6g}")
            if down < hi:
                predicate(down)
            down, downs = down / 10.0, downs + 1
            continue
        down = None   # a later downward search starts at hi/10
        if best.value > top:
            if climbs == 11:
                raise BracketNotFound("predicate false over ten decades above the band")
            predicate(top)
            top, climbs = 10.0 * top, climbs + 1
        elif hi / lo > 1.0 + tol_rel:
            mid = math.sqrt(lo * hi)
            if not lo < mid < hi:   # lo * hi underflowed
                raise BracketNotFound(f"[{lo:.6g}, {hi:.6g}] too near 0 to bisect: "
                                      "lo * hi underflows")
            predicate(mid)
        else:
            break
    inversions = sum(1 for r in evaluations if not r.beats and r.delta >= hi)
    return CriticalDeltaResult(epsilon, L, variant, lo, hi, evaluations, best.field,
                               best.start, best.delta, inversions)


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


def sweep_epsilons(eps_list: Sequence[float]) -> list[float]:
    """eps_list sorted; a ValueError unless it holds >= 4 positive, finite
    values spanning >= 1.3 decades, as a slope fit needs."""
    eps = sorted(eps_list)
    if not all(0.0 < e < math.inf for e in eps):
        raise ValueError(f"epsilon values must be positive and finite, got {eps}")
    if len(eps) < 4 or math.log10(eps[-1] / eps[0]) < 1.3:
        raise ValueError("need >= 4 epsilon values spanning >= 1.3 decades")
    return eps


def scaling_sweep(eps_list: Sequence[float], variant: int, grid: Grid,
                  cfg: Optional[MinimizeConfig] = None, tol_rel: float = 0.25,
                  seed: int = 0) -> tuple[ScalingFit, list[CriticalDeltaResult]]:
    """Bisect the critical depth per epsilon on grid and fit log delta_c vs log eps."""
    eps = sweep_epsilons(eps_list)
    results = [critical_delta(e, grid.L, variant, grid, cfg, tol_rel, seed=seed)
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
    cap = norm_cap if norm_cap is not None else area_cap
    if not 0.0 < cap < math.inf:
        raise ValueError(f"the cap must be positive and finite, got {cap}")

    def rescaled(w: ScalarField) -> Optional[ScalarField]:
        """w scaled into the probe's window, or None when it cannot be."""
        if norm_cap is not None:
            nrm = l2_norm(w)
            return _adopt(w, w.values * (norm_cap / nrm)) if nrm > 0 else None
        # a field whose u_y vanishes has area(B) = 0 at every bump
        peak = uy_peak(w)
        if not peak > 0:
            return None
        for bump in (1.001, 1.01, 1.05):
            cand = _adopt(w, w.values * (bump / peak))
            if 0.0 < b_geometry(cand).area_b <= area_cap:
                return cand
        return None

    rng = np.random.default_rng(seed)
    e0 = p.delta * grid.L
    eligible = 0
    violations = 0
    for _ in range(n_samples):
        v = rescaled(random_admissible(grid, rng))
        if v is None:
            continue
        eligible += 1
        if energy(v, p).total <= e0:
            violations += 1
    return ProbeReport(n_samples, eligible, violations, float(cap))
