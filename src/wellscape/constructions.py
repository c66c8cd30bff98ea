"""The three analytic seed families and their supporting radial machinery.

* branched seed: a y-periodic sawtooth with parabolic caps on the right half
  of the domain, linearly interpolated to zero on the left half.  Its
  surface + elastic cost is O(eps) while area(B) is a fixed fraction of L,
  which is what drives the upper bound on the critical well-depth.

* nucleation bump: a compactly supported bump attached to the right edge
  whose B-set can be made arbitrarily small while staying of positive
  measure, at cost O(lambda^2 * delta^(1/2)) when a = delta^(1/2).

* potential seeds: densities f_j(R, theta) = g_j(R) sin(theta) on the disk,
  whose Newtonian potentials z_j = Z(R) sin(theta) solve the separable
  radial ODE

      Z'' + Z'/R - Z/R^2 = g(R),
      Z(R) = -(1/(2R)) int_0^R s^2 g(s) ds - (R/2) int_R^inf g(s) ds,

  with both moments elementary for the piecewise power-law g_j
  (PotentialSpec.moments), and the pullback of the cut-off potential to
  Omega by the affine map T(x) = 2(x - P)/sqrt(L^2+1), P = (L/2, 1/2).
  A direct log-kernel convolution quadrature is kept as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Grid, ScalarField

SUPPORT_RADIUS = 2.0  # densities live on the disk of radius 2


class ResolutionTooCoarse(ValueError):
    """Grid cannot resolve the construction's internal length scales."""


def quintic_smoothstep_cutoff(r_plateau: float, r_support: float) -> Callable:
    """C^2 cutoff: 1 on [0, r_plateau], 0 beyond r_support, quintic between."""
    if not 0.0 < r_plateau < r_support:
        raise ValueError(f"need 0 < r_plateau < r_support, got {r_plateau}, {r_support}")

    def cutoff(r):
        t = np.clip((np.asarray(r, dtype=float) - r_plateau) / (r_support - r_plateau),
                    0.0, 1.0)
        return 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t**2)

    return cutoff


# ---------------------------------------------------------------------------
# branched seed

@dataclass(frozen=True)
class BranchedSpec:
    """Shape parameters of the branched seed.

    h = c * sqrt(eps*L) is the cap height, l = L/2 the half-width,
    k = h/(2l) the taper rate, and N = 1/(4h) the (integer) number of
    vertical periods.  c is the admissible constant closest to 1.
    """

    epsilon: float
    L: float
    c: float
    h: float
    l: float
    k: float
    N: int

    @classmethod
    def from_epsilon(cls, epsilon: float, L: float) -> "BranchedSpec":
        if epsilon <= 0 or L <= 0:
            raise ValueError("epsilon and L must be positive")
        n0 = 1.0 / (4.0 * math.sqrt(epsilon * L))
        candidates = {max(1, math.floor(n0)), max(1, math.ceil(n0))}
        N = min(candidates, key=lambda n: abs(1.0 / (4.0 * n * math.sqrt(epsilon * L)) - 1.0))
        c = 1.0 / (4.0 * N * math.sqrt(epsilon * L))
        h = 1.0 / (4.0 * N)
        l = L / 2.0
        return cls(epsilon, L, c, h, l, h / (2.0 * l), N)

    def to_json_dict(self) -> dict:
        return {"epsilon": self.epsilon, "L": self.L, "c": self.c,
                "h": self.h, "l": self.l, "k": self.k, "N": self.N}


def _reflected_phase(y: np.ndarray, h: float) -> np.ndarray:
    """y mod 4h, reflected about y = 2h into [0, 2h]."""
    yp = np.mod(y, 4.0 * h)
    return np.where(yp > 2.0 * h, 4.0 * h - yp, yp)


def _sawtooth_profile(xw: np.ndarray, yp: np.ndarray, h: float, k: float) -> np.ndarray:
    """The periodic cap profile w(xw, y) on [0, l] x [0, 1], at the reflected
    phase yp of y.

    One period [0, 4h] consists of a rising parabolic cap (slope 0 -> 1), a
    slope-one segment, a decelerating cap (slope 1 -> 0) up to y = 2h, then
    the mirror image.  The cap extent is H(xw) = h - k*xw.
    """
    H = h - k * xw
    out = np.where(yp <= H, yp**2 / (2.0 * H), yp - H / 2.0)
    # constant 2h - H keeps the value and slope continuous at yp = 2h - H
    out = np.where(yp >= 2.0 * h - H,
                   2.0 * h - H - (yp - 2.0 * h) ** 2 / (2.0 * H), out)
    return out


def branched_seed(spec: BranchedSpec, grid: Grid) -> ScalarField:
    """Sample the glued seed: (x/l) * w(0, y) on [0, l], w(x-l, y) on [l, L].

    The profile is evaluated once per distinct phase, told apart by bit
    pattern as the WSF1 writer tells values apart, and gathered into the
    columns: a 1024^2 seed at eps = 1e-3 has 65 distinct phases.
    """
    if not math.isclose(grid.L, spec.L, rel_tol=1e-12):
        raise ValueError(f"grid width {grid.L} != spec width {spec.L}")
    if grid.ny * spec.h < 8.0:
        raise ResolutionTooCoarse(
            f"ny*h = {grid.ny * spec.h:.2f} < 8; the caps are unresolved")
    bits, column_phase = np.unique(_reflected_phase(grid.y_nodes, spec.h).view(np.uint64),
                                   return_inverse=True)
    phases = bits.view(np.float64)[None, :]
    x = grid.x_nodes[:, None]
    n_left = np.count_nonzero(x <= spec.l)   # x ascends: the first rows
    values = np.empty((grid.nx + 1, grid.ny))
    w0 = _sawtooth_profile(np.zeros((1, 1)), phases, spec.h, spec.k)[:, column_phase]
    np.multiply(x[:n_left] / spec.l, w0, out=values[:n_left])
    right = _sawtooth_profile(x[n_left:] - spec.l, phases, spec.h, spec.k)
    # in-range indices: mode="clip" only lets take write straight into out
    np.take(right, column_phase, axis=1, out=values[n_left:], mode="clip")
    values.setflags(write=False)
    return ScalarField(grid, values)


# ---------------------------------------------------------------------------
# nucleation bump

@dataclass(frozen=True)
class BumpSpec:
    """Bump of lobe half-height a, support width delta_x, amplitude lambda > 1."""

    a: float
    delta_x: float
    lam: float
    L: float

    def __post_init__(self):
        if self.a <= 0 or 4.0 * self.a > 1.0:
            raise ValueError(f"need 0 < 4a <= 1, got a={self.a}")
        if not 0.0 < self.delta_x <= self.L:
            raise ValueError(f"need 0 < delta_x <= L, got {self.delta_x}, {self.L}")
        if self.lam <= 1.0:
            raise ValueError(f"lambda must exceed 1, got {self.lam}")

    def to_json_dict(self) -> dict:
        return {"a": self.a, "delta_x": self.delta_x, "lambda": self.lam, "L": self.L}


def nucleation_bump(spec: BumpSpec, grid: Grid) -> ScalarField:
    """Sample the bump, supported in [L - delta, L] x [0, 4a].

    The x-profile lam*((x - L + delta)/delta)^2 vanishes at the left edge of
    the support, so the zero extension is C^1 there; the peak gradient sits
    on the natural boundary x = L.
    """
    if not math.isclose(grid.L, spec.L, rel_tol=1e-12):
        raise ValueError(f"grid width {grid.L} != spec width {spec.L}")
    if grid.hx > spec.delta_x / 8.0 or grid.hy > spec.a / 8.0:
        raise ResolutionTooCoarse(
            f"need >= 8 cells across delta and a; hx={grid.hx:.3e}, hy={grid.hy:.3e}")
    a, dx, L = spec.a, spec.delta_x, spec.L
    x = grid.x_nodes[:, None]
    y = grid.y_nodes[None, :]
    f = spec.lam * ((x - (L - dx)) / dx) ** 2
    f = np.where(x >= L - dx, f, 0.0)
    yr = np.where(y > 2.0 * a, 4.0 * a - y, y)  # reflect about y = 2a
    # one field, written in place column set by column set: f yr^2 / 2a on
    # the lower caps, a f - f (2a - yr)^2 / 2a on the upper ones, 0 outside
    lower = yr <= a
    values = f * np.where(lower, yr**2, (2.0 * a - yr) ** 2)
    values /= 2.0 * a
    np.subtract(a * f, values, out=values, where=~lower)
    values[:, ~((yr >= 0.0) & (y < 4.0 * a))[0]] = 0.0
    values.setflags(write=False)
    return ScalarField(grid, values)


# ---------------------------------------------------------------------------
# potential seeds

@dataclass(frozen=True)
class PotentialSpec:
    """Index j of the density sequence on a domain of width L, and the
    radial factor g(R) of its density g(R) sin(theta) on the disk.

    k = -6*sqrt(L^2+1), A_j = k/j, alpha_j = 1/j - 2, 1 <= j <= 1023 (2^j
    stays a float).  g is 2^j A_j on [0, 2^-j], A_j R^(1/j-1) on (2^-j, 1],
    A_j on (1, 2] and 0 beyond, so the potential z = Z(R) sin(theta), the
    solution of Z'' + Z'/R - Z/R^2 = g, is elementary (see potential).  g
    carries no cutoff: the reference values -k/4 - A_j for z_y(0,0)
    integrate the bare branches; the seed's cutoff psi lives on Omega (see
    potential_seed).
    """

    j: int
    L: float

    def __post_init__(self):
        if not 1 <= self.j <= 1023:
            raise ValueError(f"sequence index must be in 1..1023, got {self.j}")
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")

    @property
    def k(self) -> float:
        return -6.0 * math.sqrt(self.L**2 + 1.0)

    @property
    def A_j(self) -> float:
        return self.k / self.j

    @property
    def alpha_j(self) -> float:
        return 1.0 / self.j - 2.0

    def to_json_dict(self) -> dict:
        return {"j": self.j, "L": self.L, "k": self.k, "A_j": self.A_j,
                "alpha_j": self.alpha_j}

    def density(self, R) -> np.ndarray:
        """The radial factor g(R) of the density g(R) sin(theta)."""
        R = np.asarray(R, dtype=float)
        inner = 2.0**self.j * self.A_j
        with np.errstate(invalid="ignore"):
            middle = self.A_j * np.power(np.maximum(R, 1e-300), self.alpha_j + 1.0)
        return np.where(R <= 2.0**(-self.j), inner,
                        np.where(R <= 1.0, middle,
                                 np.where(R <= SUPPORT_RADIUS, self.A_j, 0.0)))

    def moments(self, R) -> tuple[np.ndarray, np.ndarray]:
        """(J, I2) with J = I1/R^2, I1(R) = int_0^R s^2 g ds and
        I2(R) = int_R^2 g ds, in closed form.

        Each branch adds its integral over its part of [0, R], R clipped to
        the branch.  J is 2^j A_j R/3 on the inner disk R <= knot, and I1/R^2
        only beyond it, where R^2 underflows to 0 below about R = 2^-537 and J
        is then not finite: no node of the shipped grids lies in that band.
        """
        R = np.asarray(R, dtype=float)
        knot, inner, p = 2.0**(-self.j), 2.0**self.j * self.A_j, 1.0 / self.j
        r0 = np.minimum(R, knot)
        r1 = np.clip(R, knot, 1.0)
        r2 = np.clip(R, 1.0, SUPPORT_RADIUS)
        i1 = (inner * r0**3 / 3.0
              + self.A_j * (np.power(r1, p + 2.0) - knot ** (p + 2.0)) / (p + 2.0)
              + self.A_j * (r2**3 - 1.0) / 3.0)
        i2 = (inner * (knot - r0) + self.A_j * self.j * (1.0 - np.power(r1, p))
              + self.A_j * (SUPPORT_RADIUS - r2))
        J = np.divide(i1, R * R, out=np.asarray(inner * R / 3.0), where=R > knot)
        return J, i2

    def potential(self, R) -> tuple[np.ndarray, np.ndarray]:
        """(Z, Z') at R: Z = -I1/(2R) - R*I2/2 and Z' = I1/(2R^2) - I2/2,
        the Newtonian potential z = Z sin(theta) of g sin(theta)."""
        J, i2 = self.moments(R)
        return -np.asarray(R, dtype=float) * (J + i2) / 2.0, (J - i2) / 2.0

    @property
    def zprime0(self) -> float:
        """Z'(0) = z_y(0, 0) = -I2(0)/2, which is -A_j - k/4."""
        return float(self.potential(0.0)[1])

    def norm_l2(self) -> float:
        """||f||_2 over the disk: sqrt(pi * int g^2 R dR), in closed form.

        The three branches give int g^2 R dR = A_j^2 (1/2 + 3j/8 + 3/2).
        """
        return math.sqrt(2.0 * math.pi * self.A_j**2 * (1.0 + 3.0 * self.j / 16.0))


def convolution_oracle(f: Callable, probes: np.ndarray,
                       n_r: int = 1024, n_theta: int = 720) -> tuple[np.ndarray, np.ndarray]:
    """Direct quadrature of the log kernel and its gradient kernel.

    f(x, y) is a bounded density on the disk of radius 2, sampled on a
    midpoint polar grid.  Cells hit by a probe are excluded from the kernel
    sum and replaced by the analytic average of ln r over an equal-area disk
    (their gradient contribution cancels by symmetry).

    Returns (z, grad_z) with shapes (m,) and (m, 2).
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    dr = SUPPORT_RADIUS / n_r
    dth = 2.0 * math.pi / n_theta
    Rc = (np.arange(n_r) + 0.5) * dr
    Tc = (np.arange(n_theta) + 0.5) * dth
    Rg, Tg = np.meshgrid(Rc, Tc, indexing="ij")
    X = (Rg * np.cos(Tg)).ravel()
    Y = (Rg * np.sin(Tg)).ravel()
    W = (Rg * dr * dth).ravel()                      # cell areas
    F = np.asarray(f(X, Y), dtype=float)
    FW = F * W
    cell_diag2 = ((dr**2 + (Rg * dth) ** 2) / 4.0).ravel()

    z = np.empty(probes.shape[0])
    gz = np.empty((probes.shape[0], 2))
    for m, (px, py) in enumerate(probes):
        ddx = px - X
        ddy = py - Y
        d2 = ddx**2 + ddy**2
        near = d2 < cell_diag2
        safe_d2 = np.where(near, 1.0, d2)
        kern = 0.5 * np.log(safe_d2)
        kern[near] = 0.0
        val = float(kern @ FW)
        if np.any(near):
            # analytic average of ln r over a disk of the same area
            r_eq = np.sqrt(W[near] / math.pi)
            val += float(np.sum(FW[near] * (np.log(r_eq) - 0.5)))
        z[m] = val / (2.0 * math.pi)
        inv = np.where(near, 0.0, 1.0 / safe_d2)
        gz[m, 0] = float((ddx * inv) @ FW) / (2.0 * math.pi)
        gz[m, 1] = float((ddy * inv) @ FW) / (2.0 * math.pi)
    return z, gz


def domain_pullback_radius(L: float) -> float:
    """Radius of the nearest image of the domain boundary under T."""
    return 2.0 * min(L / 2.0, 0.5) / math.sqrt(L**2 + 1.0)


def potential_seed(spec: PotentialSpec, grid: Grid) -> ScalarField:
    """Pull the cut-off potential back to Omega through the affine map T.

    psi is a quintic cutoff with plateau radius 0.5*r_bd and support radius
    0.9*r_bd, r_bd the pullback radius of the domain boundary, so the seed
    is compactly supported in the interior: the left edge is exactly zero
    and the stored y-periodicity is genuine.
    """
    if not math.isclose(grid.L, spec.L, rel_tol=1e-12):
        raise ValueError(f"grid width {grid.L} != spec width {spec.L}")
    r_bd = domain_pullback_radius(spec.L)
    psi = quintic_smoothstep_cutoff(0.5 * r_bd, 0.9 * r_bd)

    denom = math.sqrt(spec.L**2 + 1.0)
    X, Y = grid.node_mesh()
    Tx = 2.0 * (X - spec.L / 2.0) / denom
    Ty = 2.0 * (Y - 0.5) / denom
    R = np.hypot(Tx, Ty)
    J, i2 = spec.moments(R)
    values = psi(R) * (-(J + i2) / 2.0) * Ty   # Z/R = -(J + I2)/2
    values[0, :] = 0.0  # no-op (psi vanishes there); keeps the edge exact
    return ScalarField(grid, values)
