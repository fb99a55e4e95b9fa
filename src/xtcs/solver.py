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
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .errors import ValidationError
from .model import ModelParams, turning_point_g, v_eff_radial, v_new

__all__ = [
    "RadialGrid",
    "solver_grid",
    "hamiltonian_diagonals",
    "lowest_eigenvalues",
    "lowest_eigenpairs",
    "sturm_count",
    "matrix_norm1",
    "richardson",
]


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


def solver_grid(p: ModelParams, k: int, n_points: int = 20001) -> RadialGrid:
    """Default eigensolver grid for the lowest k levels.

    The outer Dirichlet radius R sits at g = w R^2 = turning point of level
    k-1 plus 30, i.e. w^2 R^2 / 2 = E_{k-1} + 15 w, so the harmonic wall
    leaves ~15 quanta of classically forbidden margin; the domain-truncation
    shift is then far below discretization error.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    radius = float(np.sqrt(turning_point_g(k - 1, p, 30) / p.omega))
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
    if k > len(diag):
        raise ValidationError(f"k = {k} exceeds matrix dimension {len(diag)}")
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                                lapack_driver="stebz")


def lowest_eigenpairs(diag, off, k):
    """Lowest k eigenpairs (bisection + inverse iteration)."""
    if k > len(diag):
        raise ValidationError(f"k = {k} exceeds matrix dimension {len(diag)}")
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))


def sturm_count(diag, off, x: float) -> int:
    """Number of eigenvalues strictly below x (Sturm sequence sign count)."""
    tiny = np.finfo(float).tiny
    count = 0
    q = diag[0] - x
    if q < 0:
        count += 1
    for i in range(1, len(diag)):
        denom = q if q != 0.0 else tiny
        q = diag[i] - x - off[i - 1] ** 2 / denom
        if q < 0:
            count += 1
    return count


def matrix_norm1(diag, off) -> float:
    """1-norm of the tridiagonal matrix; sets the bisection roundoff scale."""
    col = np.abs(diag).copy()
    col[:-1] += np.abs(off)
    col[1:] += np.abs(off)
    return float(np.max(col))


def richardson(coarse, fine):
    """(4 fine - coarse)/3: cancels the h^2 error term of the h, h/2 pair."""
    return (4 * np.asarray(fine) - np.asarray(coarse)) / 3
