"""Finite-difference discretization of the effective radial problem.

The transformed eigenfunction u(rho) = rho^(tau/2) Phi(rho) satisfies
-u''/2 + V_eff u = E u with u -> 0 at both ends.  Second-order central
differences on a uniform grid give a symmetric tridiagonal matrix; its
lowest eigenvalues are extracted by Sturm-sequence bisection (LAPACK
*stebz*), which is robust for the singular centrifugal term and cheap when
only a few levels are wanted.  Richardson extrapolation from grids h and
h/2 upgrades the eigenvalues to effective fourth order.

Boundary handling: the grid starts one spacing away from the origin, with
Dirichlet values at rho = 0 and rho = rho_max + h.  The zero at the origin
is exact (u ~ rho^(tau/2) for tau > 2), so the 1/rho^2 singularity is never
discretized; tau <= 2 is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import ModelParams, turning_point_g, v_eff_radial, v_new

__all__ = [
    "RadialGrid",
    "solver_grid",
    "hamiltonian_diagonals",
    "lowest_eigenvalues",
    "lowest_eigenpairs",
    "matrix_norm1",
    "richardson",
]

# WKB decay of the top level between its turning point and the outer wall.
WALL_DECAY_NATS = 19.3


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid of n_points nodes on [rho_min, rho_max], rho_min > 0."""

    rho_min: float
    rho_max: float
    n_points: int

    def __post_init__(self):
        if not (np.isfinite(self.rho_min) and self.rho_min > 0):
            raise ValidationError(f"rho_min must be > 0, got {self.rho_min!r}")
        if not (np.isfinite(self.rho_max) and self.rho_max > self.rho_min):
            raise ValidationError(
                f"rho_max must exceed rho_min = {self.rho_min}, got {self.rho_max!r}")
        if not isinstance(self.n_points, (int, np.integer)) or self.n_points < 3:
            raise ValidationError(f"n_points must be an integer >= 3, got {self.n_points!r}")
        if self.rho_min < self.spacing / 2:
            raise ValidationError(
                f"rho_min = {self.rho_min} below half the spacing h/2 = {self.spacing / 2}")

    @property
    def spacing(self) -> float:
        return (self.rho_max - self.rho_min) / (self.n_points - 1)

    @property
    def nodes(self):
        return np.linspace(self.rho_min, self.rho_max, self.n_points)

    def refined(self) -> "RadialGrid":
        """Grid with half the spacing representing the same continuum domain.

        Only meaningful for solver grids (rho_min == h): the outer Dirichlet
        radius R = rho_max + h is preserved.
        """
        h2 = self.spacing / 2
        return RadialGrid(h2, self.rho_max + h2, 2 * self.n_points + 1)


def solver_grid(p: ModelParams, k: int, n_points: int | None = None) -> RadialGrid:
    """Eigensolver grid for the lowest k levels, sized from tau and k.

    The outer Dirichlet radius R sits at g = w R^2 = g_t + margin, where
    g_t = 2 E_(k-1) / w is the turning point of the top level; n_points,
    unless given, follows from tau and k.  The constants were measured with
    `isospectrality_check` (Richardson pair on n and 2n+1 points):

    * tau >= 4: max(501, 250 k + 1) points; margin
      max(40, (3 S sqrt(g_t))^(2/3)) with S = WALL_DECAY_NATS = 19.3.
      Margin: past g_t the top level decays like exp(-int kappa d rho) with
      kappa = sqrt(w (g - g_t)).  With d rho = dg / (2 sqrt(w g)) and
      D = g - g_t << g_t the exponent is D^(3/2) / (3 sqrt(g_t)), so a fixed
      margin buys less decay as g_t grows.  Margin 40 gives 19.3 nats at
      k = 4, tau = 6 (g_t = 19), where it removed the top level's wall
      shift, but only 7.4 nats at k = 32 (g_t = 131): there N=3, lambda=1,
      r=1, m=60 shows a wall shift of 0.86 tol_iso (0.87 at w = 20), which
      passed only because 16001 points inflated tol_iso, and on 8001 points
      it reads 3.47 tol_iso.  Holding S fixed puts that wall at margin 76
      and the shift at 0.03 tol_iso.
      Points: bisection roundoff, not truncation, limits large grids: the
      floor 25 eps ||T_fine|| grows like 1/h^2 (tol_iso 8.2e-7 on 20001
      points, 1.0e-8 on 2001 at N=3, lambda=1, r=1, m=2).  Over five configs
      (tau = 4 ... 1769) x w in {0.05, 1, 20} at k = 4, 125 points per level
      leave |E_ext - E_conv| <= 0.27 tol_iso and |E - E_n| <= 2.5e-2 of the
      1e-6 E_n gate, 250 leave 0.022 and 1.5e-3, 500 leave 0.047 and
      3.2e-4 at 1.6x the time.  Over 860 configs (tau = 4 ... 10679,
      k = 1 ... 32, m = 0 ... 60, w = 0.05 ... 20) this rule keeps both
      within 0.051 tol_iso and 8.8e-3 of the gate, and the 1.01-scaled
      extension term (N=8, r=1, k=4) still fails up to tau = 52.5 (m = 1),
      73.5 (m = 2) and 87.5 (m = 3).
    * tau < 4: 20001 points, margin 30, as before.  u ~ rho^(tau/2) is too
      rough at the origin for the pair to be fourth order: its error falls
      like h^(tau-1) (slope 1.2 at tau = 2.2, 1.5 at 2.5, 2 at 3).  At tau = 3
      (N=2, lambda=1, r=1, m=1..3) 2001 points give |E_ext - E_conv| = 15 to
      45 tol_iso; at tau = 4 they give <= 0.016 tol_iso.  Margin 40 here would
      stretch h enough to fail N=2, lambda=0.75, r=1, m=2 (tau = 2.5).

    An explicit n_points keeps the margin rule of its tau regime.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    smooth = p.tau >= 4
    if n_points is None:
        n_points = max(501, 250 * k + 1) if smooth else 20001
    g_t = turning_point_g(k - 1, p, 0)
    margin = max(40.0, (3 * WALL_DECAY_NATS * np.sqrt(g_t)) ** (2 / 3)) if smooth else 30.0
    radius = float(np.sqrt((g_t + margin) / p.omega))
    h = radius / (n_points + 1)
    return RadialGrid(h, n_points * h, n_points)


def hamiltonian_diagonals(p: ModelParams, grid: RadialGrid, extended: bool,
                          v_new_scale: float = 1.0):
    """Diagonal and off-diagonal of the discretized operator on the grid.

    Requires rho_min == spacing (exact Dirichlet zero at the origin) and
    tau > 2, the regime where u vanishes at the origin fast enough for that
    boundary treatment.
    """
    h = grid.spacing
    if abs(grid.rho_min - h) > 1e-9 * h:
        raise ValidationError(
            f"solver grids need rho_min == spacing (got rho_min = {grid.rho_min}, h = {h})")
    if p.tau <= 2:
        raise ValidationError(
            f"tau = {p.tau} <= 2: origin boundary treatment invalid; increase coupling, degree, or n_particles")
    rho = grid.nodes
    pot = v_eff_radial(rho, p, extended=False)
    if extended:
        pot = pot + v_new_scale * v_new(rho, p)
    diag = 1.0 / h ** 2 + pot
    off = np.full(grid.n_points - 1, -0.5 / h ** 2)
    return diag, off


def lowest_eigenvalues(diag, off, k):
    """Lowest k eigenvalues of the symmetric tridiagonal matrix by bisection."""
    from scipy.linalg import eigvalsh_tridiagonal  # ~0.3 s and ~28 MB; only the solver needs it
    if k > len(diag):
        raise ValidationError(f"k = {k} exceeds matrix dimension {len(diag)}")
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                                lapack_driver="stebz")


def lowest_eigenpairs(diag, off, k):
    """Lowest k eigenpairs (bisection + inverse iteration)."""
    from scipy.linalg import eigh_tridiagonal
    if k > len(diag):
        raise ValidationError(f"k = {k} exceeds matrix dimension {len(diag)}")
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))


def matrix_norm1(diag, off) -> float:
    """1-norm of the tridiagonal matrix; sets the bisection roundoff scale."""
    col = np.abs(diag).copy()
    col[:-1] += np.abs(off)
    col[1:] += np.abs(off)
    return float(np.max(col))


def richardson(coarse, fine):
    """(4 fine - coarse)/3: cancels the h^2 error term of the h, h/2 pair."""
    return (4 * np.asarray(fine) - np.asarray(coarse)) / 3
