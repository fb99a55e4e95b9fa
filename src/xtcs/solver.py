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

Brackets: an isospectrality check solves four ladders (conventional and
extended, coarse and fine).  `isospectral_ladders` bisects only the
conventional coarse one over the full index range; each level of the other
three is bisected inside a bracket taken from a ladder already solved, which
`lowest_eigenvalues` certifies by Sturm counts or abandons for the full call.
The half-widths were measured with `isospectrality_check` over 627 configs
(tau = 3 ... 10679, k in {1, 4, 12}, w in {0.05, 1, 20}, m in {0, 1, 2, 3, 20},
plus the 1.01-scaled extension term at w = 1, m <= 3):

* conventional fine: (E_c, E_c (1 + 2 FINE_BRACKET)] around each coarse level
  E_c, FINE_BRACKET = 2e-5.  The three-point Laplacian underestimates the
  kinetic energy, so the fine level lies above the coarse one, by 5.9e-9 to
  1.76e-5 of E_c over tau = 2.2 ... 10679, k = 1 ... 32, w = 0.05 ... 20
  (largest at tau = 4, k = 4); the bracket leaves a 2.3x margin and never
  missed.
* extended coarse: E_c +- EXT_BRACKET eps ||T_fine||, EXT_BRACKET = 1e3 (40
  tol_iso).  On one grid the extended and conventional levels differ by
  their h^2 error terms: <= 2.0 eps ||T_fine|| from tau = 127.6 up, up to
  852 at tau = 21, 1.2e4 at tau = 11 and 4.8e6 at tau = 4 (k = 1, m = 20).
  So at small tau, and for most perturbed controls, this bracket misses and
  the full call runs: 138 of the 627 configs, 93 of them unperturbed at
  tau = 4, 6 and 11.
* extended fine: E_f +- max(2 |x_c - E_c|, EXT_FINE_FLOOR eps ||T_fine||)
  around each conventional fine level E_f, x_c the extended coarse level,
  EXT_FINE_FLOOR = 8.  An h^2 difference shrinks 4x on the fine grid and a
  real one (the controls) stays; the floor covers bisection noise (<= 0.92
  eps ||T_fine|| at tau = 1769).  It missed on 5 perturbed controls.

Where the extended matrices are bitwise the conventional ones (m = 0) their
ladders are reused, so |E_ext - E_conv| reads exactly 0 there.  Against the
full call on every ladder: no verdict changed and every report item moved by
<= 0.07 tol_iso (a bracketed level may differ from the full call's by up to
eps ||T||); the 627 checks took 16.6 s instead of 27.5 s (2 vCPUs).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np

from .errors import NonFiniteError, ValidationError
from .model import ModelParams, turning_point_g, v_eff_radial, v_new

__all__ = [
    "RadialGrid",
    "solver_grid",
    "hamiltonian_diagonals",
    "lowest_eigenvalues",
    "isospectral_ladders",
    "matrix_norm1",
    "richardson",
]

# WKB decay of the top level between its turning point and the outer wall.
WALL_DECAY_NATS = 19.3
# Bracket half-widths for isospectral_ladders (see the module docstring).
FINE_BRACKET = 2e-5  # of each coarse level
EXT_BRACKET = 1e3  # eps ||T_fine||
EXT_FINE_FLOOR = 8  # eps ||T_fine||


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
    boundary treatment, and a finite v_new_scale.
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
        if not np.isfinite(v_new_scale):
            raise ValidationError(f"v_new_scale must be finite, got {v_new_scale!r}")
        pot = pot + v_new_scale * v_new(rho, p)
        if not np.all(np.isfinite(pot)):
            raise NonFiniteError("spectrum: v_new is not finite (Laguerre overflow)")
    diag = 1.0 / h ** 2 + pot
    off = np.full(grid.n_points - 1, -0.5 / h ** 2)
    return diag, off


def lowest_eigenvalues(diag, off, k, guesses=None, half_widths=None):
    """Lowest k eigenvalues of the symmetric tridiagonal matrix by bisection, and how
    they were found: "bracketed" or "full".

    Both paths call LAPACK *stebz* (see `_stebz`).  A non-finite matrix raises
    NonFiniteError naming the spectrum stage, and so does a full call that does not
    return k levels with info = 0.  Without guesses (or when they fail) one call over
    the index range 0..k-1 ("full"); most of its ~160 Sturm sweeps locate that index
    window inside the Gershgorin interval, ~1e6 wide on the solver grids.  With
    guesses, level n is bisected only in the bracket (guesses[n] - half_widths[n],
    guesses[n] + half_widths[n]].  The brackets must be nonempty, ordered and
    disjoint; one count-only call (RANGE = 'V' over (Gershgorin bound, top bracket's
    upper end], tolerance inf: two Sturm counts) must find exactly k eigenvalues, and
    one call per bracket must find exactly one.  Those k are then the lowest k in
    order ("bracketed"), each to the full call's tolerance eps ||T||, so the two
    answers differ by up to eps ||T||.  On any miss the full call runs: the guesses
    set the cost, never which levels come back.

    Cost on a 2003-row solver matrix (k = 4, 2 vCPUs): full 2.5-2.9 ms; count 0.09 ms;
    a bracket 2^j eps ||T|| wide ~(5.5 + j) sweeps of 16 us, i.e. 0.16 ms at j = 4 and
    0.47 ms at j = 21.  One RANGE = 'V' call over all k brackets took 2.0 ms against
    1.6 ms for the k calls, since its window spans the gaps.  The first call in a
    process also loads the LAPACK extension: 24-35 ms, `import scipy` included.
    """
    if not 1 <= k <= len(diag) or len(diag) < 2:  # stebz's wrapper takes no 1-row matrix
        raise ValidationError(
            f"need 1 <= k <= matrix dimension >= 2, got k = {k} and dimension {len(diag)}")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise NonFiniteError("spectrum: the tridiagonal matrix is not finite")
    stebz = _stebz()
    if guesses is not None:
        found = _bracketed(stebz, diag, off, k, guesses, half_widths)
        if found is not None:
            return found, "bracketed"
    # RANGE = 'I' (2), indices 1..k, tolerance 0 (stebz's own, ~eps ||T||), ORDER = 'E':
    # the arguments of scipy's eigvalsh_tridiagonal(select="i", lapack_driver="stebz")
    count, w, _, _, info = stebz(diag, off, 2, 0.0, 1.0, 1, k, 0.0, "E")
    if info or count != k:
        raise NonFiniteError(
            f"spectrum: stebz returned info = {info} and {count} of {k} levels")
    return w[:k], "full"


def _bracketed(stebz, diag, off, k, guesses, half_widths):
    """The k eigenvalues certified inside their brackets, or None."""
    guesses = np.asarray(guesses, dtype=float)
    lo, hi = guesses - half_widths, guesses + half_widths
    if not (lo.shape == (k,) and np.all(lo < hi) and np.all(hi[:-1] <= lo[1:])):
        return None
    # RANGE = 'V' (1) counts in (vl, vu]; stebz clips vl = -inf to its Gershgorin bound
    count, _, _, _, info = stebz(diag, off, 1, -np.inf, hi[-1], 0, 0, np.inf, "E")
    if info or count != k:
        return None
    values = np.empty(k)
    for n in reversed(range(k)):  # the top level moves most: a miss shows up first
        count, w, _, _, info = stebz(diag, off, 1, lo[n], hi[n], 0, 0, 0.0, "E")
        if info or count != 1:
            return None
        values[n] = w[0]
    return values


def _stebz():
    """LAPACK dstebz from scipy's `scipy.linalg._flapack` extension.

    `import scipy.linalg` costs ~0.35 s and ~24 MB of peak RSS (its `__init__` pulls in
    numpy.f2py, numpy.testing and numpy.ma); the extension alone loads in 2-10 ms.
    `import scipy` runs scipy's platform set-up first.  The extension is loaded under its
    own name and registered in sys.modules, which caches it: later calls and a later
    `import scipy.linalg` reuse this module, so it is never initialised twice.
    """
    import scipy

    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        candidates = [Path(scipy.__file__).parent / "linalg" / f"_flapack{suffix}"
                      for suffix in EXTENSION_SUFFIXES]
        path = next((c for c in candidates if c.is_file()), None)
        if path is None:
            looked_for = ", ".join(map(str, candidates))
            raise ImportError(f"LAPACK extension not found: looked for {looked_for}", name=name)
        loader = ExtensionFileLoader(name, str(path))
        module = module_from_spec(spec_from_file_location(name, path, loader=loader))
        sys.modules[name] = module
        loader.exec_module(module)
    return sys.modules[name].dstebz


def isospectral_ladders(conv, ext, k):
    """Lowest k eigenvalues of the conventional and extended matrices of one grid pair.

    conv and ext are ((diag, off) on the coarse grid, (diag, off) on the fine grid).
    Returns, for conv and then ext, ((coarse, fine) eigenvalues, (how, how)): how each
    ladder was solved, "full", "bracketed", or "reused" where the extended matrices are
    bitwise the conventional ones, as at m = 0.  Only the conventional coarse ladder
    needs the full call; the brackets are set as in the module docstring.
    """
    coarse, how_coarse = lowest_eigenvalues(*conv[0], k)
    shift = FINE_BRACKET * np.abs(coarse)  # the fine level sits above the coarse one
    fine, how_fine = lowest_eigenvalues(*conv[1], k, coarse + shift, shift)
    solved = ((coarse, fine), (how_coarse, how_fine))
    if all(np.array_equal(a, b) for a, b in zip(ext[0] + ext[1], conv[0] + conv[1])):
        return solved, ((coarse, fine), ("reused", "reused"))
    ulp_norm = np.finfo(float).eps * matrix_norm1(*ext[1])
    x_coarse, how_x_coarse = lowest_eigenvalues(*ext[0], k, coarse, EXT_BRACKET * ulp_norm)
    x_fine, how_x_fine = lowest_eigenvalues(
        *ext[1], k, fine, np.maximum(2 * np.abs(x_coarse - coarse), EXT_FINE_FLOOR * ulp_norm))
    return solved, ((x_coarse, x_fine), (how_x_coarse, how_x_fine))


def matrix_norm1(diag, off) -> float:
    """1-norm of the tridiagonal matrix; sets the bisection roundoff scale."""
    col = np.abs(diag).copy()
    col[:-1] += np.abs(off)
    col[1:] += np.abs(off)
    return float(np.max(col))


def richardson(coarse, fine):
    """(4 fine - coarse)/3: cancels the h^2 error term of the h, h/2 pair."""
    return (4 * np.asarray(fine) - np.asarray(coarse)) / 3
