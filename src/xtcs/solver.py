"""Finite-difference discretization of the effective radial problem.

The transformed eigenfunction u(rho) = rho^(tau/2) Phi(rho) satisfies
-u''/2 + V_eff u = E u with u -> 0 at both ends.  Second-order central
differences on a uniform grid give a symmetric tridiagonal matrix T; its
lowest eigenvalues come from `lowest_eigenvalues`, and Richardson
extrapolation from grids h and h/2 upgrades them to effective fourth order.

Boundary handling: the grid starts one spacing away from the origin, with
Dirichlet values at rho = 0 and rho = rho_max + h.  The zero at the origin
is exact (u ~ rho^(tau/2) for tau > 2), so the 1/rho^2 singularity is never
discretized; tau <= 2 is rejected.

Refinement: each level starts from a seed s and runs shifted inverse
iteration with Rayleigh-quotient shifts: solve (T - s I) y = x by LAPACK
*gtsv*, x = y / |y|_2, s = x^T T x, until r = |T x - s x|_2 <= 2 eps ||T||_1,
r stops halving (its rounding floor: 3-7 eps ||T||_1 on the tau < 4 grids)
or RQI_STEPS steps, starting from x = ones or from given start vectors.
Certificate: for symmetric T and unit x some eigenvalue lies within r of
s, so the intervals s_n +- max(r_n, 4 eps ||T||) (the floor covers the
residual's own rounding) each hold one if they are finite, ordered and
disjoint, and they hold the lowest k, one each and in order, if one
count-only Sturm call (*stebz*, RANGE = 'V') finds exactly k eigenvalues up
to the top interval's end.  Any miss, a zero pivot in *gtsv* too, runs
*stebz* bisection over the index range instead ("full"), so seeds set the
cost, never which levels come back.

Seeds (`verify.numeric_spectrum`): the analytic E_n for the coarse ladder and
coarse + 3/4 (E_n - coarse) for the fine one (the h^2 error shrinks 4x), for the
conventional and the extended matrices alike.  The fine ladder's iteration starts
from the coarse ladder's vectors, `_prolonged` to the fine grid; the coarse ladder,
and a fine one after a "full" coarse one, start from ones.
Over 1,944 `isospectrality_check` configs (N = 2 ... 16, lambda = 0.6 ... 2.5, r = 1
and N - 1, w = 0.05 ... 20, m in {0, 1, 3, 20}, k in {1, 4, 12}, extension term
scaled by 1 and 1.01) all 6,804 ladders solved were refined.  Solves per level:
coarse 2.05 at tau >= 4 and 2.45 below; fine 1.04 at tau >= 4 (1.51 from ones) and
1.19 below (2.24 from ones); 1.56 overall (1.82 from ones).  At tau < 4 the rounding
floor can lie above the 2 eps stop, and a warm start that lands on it takes a second
solve to see r stop halving: of the 252 fine ladders there, 30 (all at tau = 3, k = 4)
take more solves warm than from ones, 35 as many and 187 fewer.
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
    "wall_g",
    "solver_grid",
    "hamiltonian_diagonals",
    "lowest_eigenvalues",
    "matrix_norm1",
    "richardson",
]

# WKB decay of the top level between its turning point and the wall of a default domain.
WALL_DECAY_NATS = 19.3
# Cap on the Rayleigh-quotient inverse-iteration steps per refined level.
RQI_STEPS = 6
# Cap on levels x points (fine matrix rows, `wavefunctions._gram` nodes): ~0.2 us, 20 B each.
SIZE_BUDGET = 2 ** 23


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


def wall_g(n, p: ModelParams) -> float:
    """g = w rho^2 of the wall that ends the domains holding levels 0..n: the solver grid
    (tau >= 4, so `verify.convergence_orders` too) and the rule of `wavefunctions._gram`.
    It is g_t + max(40, (3 S sqrt(g_t))^(2/3)), g_t the turning point of level n,
    S = WALL_DECAY_NATS.

    Past g_t level n decays like exp(-int kappa d rho) with kappa = sqrt(w (g - g_t)).
    With d rho = dg / (2 sqrt(w g)) and D = g - g_t << g_t the exponent is
    D^(3/2) / (3 sqrt(g_t)), so the second term is where it reaches S nats.
    """
    g_t = turning_point_g(n, p, 0)
    return g_t + max(40.0, (3 * WALL_DECAY_NATS * np.sqrt(g_t)) ** (2 / 3))


def solver_grid(p: ModelParams, k: int, n_points: int | None = None) -> RadialGrid:
    """Eigensolver grid for the lowest k levels, sized from tau and k.  Its callers in
    the package are the ladder path, `verify.numeric_spectrum` and `verify._spectra` (for
    `isospectrality_check`, `spectrum_csv_rows` and `convergence_orders` alike).

    The outer Dirichlet radius R sits at g = w R^2 = g_t + margin, where
    g_t = 2 E_(k-1) / w is the turning point of the top level; n_points,
    unless given, follows from tau and k.  The constants were measured with
    `isospectrality_check` (Richardson pair on n and 2n+1 points):

    * tau >= 4: max(501, 250 k + 1) points; w R^2 = `wall_g`(k - 1).
      A fixed margin buys less decay as g_t grows.  Margin 40 gives 19.3 nats at
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

    An explicit n_points keeps the margin rule of its tau regime.  Above SIZE_BUDGET rows
    x levels of the pair's fine matrix it raises before any work.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    smooth = p.tau >= 4
    if n_points is None:
        n_points = max(501, 250 * k + 1) if smooth else 20001
    if k * (2 * n_points + 1) > SIZE_BUDGET:  # the pair's fine matrix
        raise ValidationError(f"{k} levels on {2 * n_points + 1} fine matrix rows exceed the size "
                              f"budget of {SIZE_BUDGET} rows x levels; lower --levels or --points")
    g_wall = wall_g(k - 1, p) if smooth else turning_point_g(k - 1, p, 30)
    radius = float(np.sqrt(g_wall / p.omega))
    h = radius / (n_points + 1)
    return RadialGrid(h, n_points * h, n_points)


def hamiltonian_diagonals(p: ModelParams, grid: RadialGrid, extended: bool,
                          v_new_scale: float = 1.0):
    """Diagonal and off-diagonal of the discretized operator on the grid.

    Requires rho_min == spacing (exact Dirichlet zero at the origin) and
    tau > 2, the regime where u vanishes at the origin fast enough for that
    boundary treatment, and a finite v_new_scale.
    """
    pot = _v_eff(p, grid)
    return _tridiagonal(grid, pot + (_extension(p, grid, v_new_scale) if extended else 0.0))


def _v_eff(p: ModelParams, grid: RadialGrid):
    """Conventional V_eff on the nodes of a solver grid (rho_min == spacing) at tau > 2, or
    ValidationError; an overflow stays inf, which lowest_eigenvalues rejects."""
    h = grid.spacing
    if abs(grid.rho_min - h) > 1e-9 * h:
        raise ValidationError(
            f"solver grids need rho_min == spacing (got rho_min = {grid.rho_min}, h = {h})")
    if p.tau <= 2:
        raise ValidationError(
            f"tau = {p.tau} <= 2: origin boundary treatment invalid; increase coupling, degree, or n_particles")
    with np.errstate(over="ignore", invalid="ignore"):
        return v_eff_radial(grid.nodes, p, extended=False)


def _extension(p: ModelParams, grid: RadialGrid, v_new_scale: float):
    """v_new_scale * v_new on the grid's nodes; a non-finite scale or value (Laguerre
    overflow) raises."""
    if not np.isfinite(v_new_scale):
        raise ValidationError(f"v_new_scale must be finite, got {v_new_scale!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        extra = v_new_scale * v_new(grid.nodes, p)
    if not np.all(np.isfinite(extra)):
        raise NonFiniteError("spectrum: v_new is not finite (Laguerre overflow)")
    return extra


def _tridiagonal(grid: RadialGrid, pot):
    """(diag, off) of -u''/2 + pot u on the grid, with pot given at its nodes."""
    h = grid.spacing
    return 1.0 / h ** 2 + pot, np.full(grid.n_points - 1, -0.5 / h ** 2)


def _prolonged(vectors):
    """Rows given on a solver grid, carried to grid.refined(): the fine grid's odd nodes
    are the coarse nodes, and each even node takes the mean of its two neighbours, the
    Dirichlet zeros beyond either end included."""
    walled = np.zeros((len(vectors), 2 * len(vectors[0]) + 3))  # fine nodes and the zeros
    walled[:, 2:-1:2] = vectors
    walled[:, 1::2] = 0.5 * (walled[:, :-1:2] + walled[:, 2::2])
    return walled[:, 1:-1]


def lowest_eigenvalues(diag, off, k, guesses=None, starts=None):
    """Lowest k eigenvalues of the symmetric tridiagonal matrix, how they were found
    ("refined" or "full"), and the refined levels' unit eigenvectors, a list of the
    iterations' last vectors (None if "full").

    With guesses, level n is refined from guesses[n], its iteration started from
    starts[n] (default: ones), and certified as in the module docstring ("refined").
    Without guesses, or on any miss, one LAPACK *stebz* call
    bisects over the index range 0..k-1 ("full"); most of its ~160 Sturm sweeps locate
    that index window inside the Gershgorin interval, ~1e6 wide on the solver grids.
    A non-finite matrix raises NonFiniteError naming the spectrum stage, and so does a
    full call that does not return k levels with info = 0.

    Cost on a 2003-row solver matrix (tau = 21, k = 4, 2 vCPUs), the fine matrix of
    `verify.numeric_spectrum`: full 2.7 ms; refined 0.8 ms from ones (7 solves) and
    0.5 ms from the coarse ladder's vectors (4 solves), each *gtsv* solve 0.05 ms (three
    Sturm sweeps) and the count 0.08 ms.  The first call in a process also loads the
    LAPACK extension: 24-35 ms, `import scipy` included.
    """
    if not 1 <= k <= len(diag) or len(diag) < 2:  # stebz's wrapper takes no 1-row matrix
        raise ValidationError(
            f"need 1 <= k <= matrix dimension >= 2, got k = {k} and dimension {len(diag)}")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise NonFiniteError("spectrum: the tridiagonal matrix is not finite")
    stebz = _stebz()
    if guesses is not None:
        with np.errstate(all="ignore"):  # an overflow leaves non-finite values: a miss
            found = _refined(stebz, diag, off, k, guesses, starts)
        if found is not None:
            return found[0], "refined", found[1]
    # RANGE = 'I' (2), indices 1..k, tolerance 0 (stebz's own, ~eps ||T||), ORDER = 'E':
    # the arguments of scipy's eigvalsh_tridiagonal(select="i", lapack_driver="stebz")
    count, w, _, _, info = stebz(diag, off, 2, 0.0, 1.0, 1, k, 0.0, "E")
    if info or count != k:
        raise NonFiniteError(
            f"spectrum: stebz returned info = {info} and {count} of {k} levels")
    return w[:k], "full", None


def _refined(stebz, diag, off, k, guesses, starts):
    """The k eigenvalues refined from their guesses and certified, with their vectors,
    or None."""
    guesses = np.asarray(guesses, dtype=float)
    if guesses.shape != (k,):
        return None
    gtsv = sys.modules["scipy.linalg._flapack"].dgtsv  # loaded by _stebz
    ulp_norm = np.finfo(float).eps * matrix_norm1(diag, off)
    values, radii, vectors = np.empty(k), np.empty(k), []
    for n, shift in enumerate(guesses):
        x = np.ones(len(diag)) if starts is None else np.array(starts[n], dtype=float)
        last = np.inf
        for _ in range(RQI_STEPS):
            *_, x, info = gtsv(off, diag - shift, off, x, overwrite_d=1, overwrite_b=1)
            if info:  # an exact zero pivot: T - shift I is singular
                return None
            x /= np.sqrt(x @ x)
            tx = diag * x
            tx[:-1] += off * x[1:]
            tx[1:] += off * x[:-1]
            shift = x @ tx
            tx -= shift * x
            residual = np.sqrt(tx @ tx)
            if residual <= 2 * ulp_norm or residual > last / 2:  # or at the rounding floor
                break
            last = residual
        values[n], radii[n] = shift, max(residual, 4 * ulp_norm)
        vectors.append(x)
    lo, hi = values - radii, values + radii
    if not (np.all(np.isfinite(hi - lo)) and np.all(hi[:-1] < lo[1:])):
        return None
    # RANGE = 'V' (1) counts in (vl, vu]; stebz clips vl = -inf to its Gershgorin bound
    count, _, _, _, info = stebz(diag, off, 1, -np.inf, hi[-1], 0, 0, np.inf, "E")
    if info or count != k:
        return None
    return values, vectors


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


def matrix_norm1(diag, off) -> float:
    """1-norm of the tridiagonal matrix; sets the eigensolver's roundoff scale."""
    col = np.abs(diag).copy()
    col[:-1] += np.abs(off)
    col[1:] += np.abs(off)
    return float(np.max(col))


def richardson(coarse, fine):
    """(4 fine - coarse)/3: cancels the h^2 error term of the h, h/2 pair."""
    return (4 * np.asarray(fine) - np.asarray(coarse)) / 3
