"""Finite-difference discretization of the effective radial problem.

The transformed eigenfunction u(rho) = rho^(tau/2) Phi(rho) satisfies
-u''/2 + V_eff u = E u with u -> 0 at both ends; grids and matrices are in trap units
(`model.trap_units`).  Second-order central differences on a uniform grid give a
symmetric tridiagonal matrix T; its lowest eigenvalues come from `lowest_eigenvalues`,
and Richardson extrapolation from grids h and h/2 upgrades them to effective fourth order.
The module owns the grid pair, seeds, warm starts and ladders of that spectrum
(`numeric_spectrum`, `_spectra`); `verify.isospectrality_check` holds its gates.

Boundary handling: a `RadialGrid` of radius R and n points has the nodes h, 2h, ..., n h,
h = R / (n + 1), with Dirichlet values at rho = 0 and rho = R.  The zero at the origin
is exact (u ~ rho^(tau/2) for tau > 2), so the 1/rho^2 singularity is never
discretized; tau <= 2 is rejected.

Refinement: each level starts from a seed s and runs shifted inverse
iteration with Rayleigh-quotient shifts: solve (T - s I) y = x by LAPACK
*gtsv*, x = y / |y|_2, s = x^T T x, until r = |T x - s x|_2 <= 4 eps ||T||_1 (the
certificate's floor below), r stops halving (its rounding floor: 3-7 eps ||T||_1 on the
tau < 4 grids) or RQI_STEPS steps, starting from x = ones or from given start vectors.
Certificate: for symmetric T and unit x some eigenvalue lies within r of
s, so the intervals s_n +- max(r_n, 4 eps ||T||) (the floor covers the
residual's own rounding) each hold one if they are finite, ordered and
disjoint, and they hold the lowest k, one each and in order, if one
count-only Sturm call (*stebz*, RANGE = 'V') finds exactly k eigenvalues up
to the top interval's end.  Any miss, a zero pivot in *gtsv* too, runs
*stebz* bisection over the index range instead ("full"), so seeds set the
cost, never which levels come back.

Seeds (`numeric_spectrum`): the analytic E_n for the coarse ladder and
coarse + 3/4 (E_n - coarse) for the fine one (the h^2 error shrinks 4x), for the
conventional and the extended matrices alike.  The fine ladder's iteration starts
from the coarse ladder's vectors, `_prolonged` to the fine grid; the coarse ladder,
and a fine one after a "full" coarse one, start from ones.
Over 2,016 `isospectrality_check` configs (N in {2, 3, 8, 16}, lambda in {0.6, 1, 1.55,
2.5}, r = 1 and N - 1, w in {0.05, 1, 20}, m in {0, 1, 3, 20}, k in {1, 4, 12}, extension
term scaled by 1 and 1.01) all 7,056 ladders solved were refined.  Solves per level:
coarse 2.04 at tau >= 4 and 2.07 below; fine 1.03 at tau >= 4 (1.39 from ones) and
1.05 below (1.88 from ones); 1.54 overall (1.73 from ones).  Of the 252 fine ladders
at tau < 4, 9 (all at tau = 3) take one solve more warm than from ones, 54 as many
and 189 fewer.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np

from .errors import NonFiniteError, ValidationError
from .model import (SIZE_BUDGET, ModelParams, _omega_scaled, energy_level, trap_units,
                    turning_point_g, v_eff_radial, v_new, wall_g)

__all__ = [
    "RadialGrid",
    "solver_grid",
    "hamiltonian_diagonals",
    "lowest_eigenvalues",
    "matrix_norm1",
    "richardson",
    "SpectrumRow",
    "SpectrumReport",
    "numeric_spectrum",
]

# Cap on the Rayleigh-quotient inverse-iteration steps per refined level.
RQI_STEPS = 6


@dataclass(frozen=True)
class RadialGrid:
    """Solver grid: nodes h, ..., n_points h, h = radius / (n_points + 1); u = 0 at 0, radius."""

    radius: float
    n_points: int

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValidationError(f"radius must be finite and > 0, got {self.radius!r}")
        if not isinstance(self.n_points, (int, np.integer)) or self.n_points < 3:
            raise ValidationError(f"n_points must be an integer >= 3, got {self.n_points!r}")

    @property
    def spacing(self) -> float:
        return self.radius / (self.n_points + 1)

    @property
    def nodes(self):
        return self.spacing * np.arange(1, self.n_points + 1)

    def refined(self) -> "RadialGrid":
        """The grid of half the spacing and the same radius: its odd nodes are this grid's."""
        return RadialGrid(self.radius, 2 * self.n_points + 1)


def solver_grid(p: ModelParams, k: int, n_points: int | None = None) -> RadialGrid:
    """Eigensolver grid for the lowest k levels, for `numeric_spectrum` and `_spectra`.
    Its outer Dirichlet radius R sits at R^2 = `model.wall_g`(k - 1), the
    wall of every default domain, except below tau = 4; n_points, unless given, follows from
    tau and k.  The constants were measured with `isospectrality_check` (Richardson pair on n
    and 2n+1 points):

    * tau >= 4: max(501, 250 k + 1) points.
      Bisection roundoff, not truncation, limits large grids: the
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
    * tau < 4: 20001 points, R^2 = `model.turning_point_g`(k - 1) + 30, the one margin not
      on the wall.  u ~ rho^(tau/2) is too rough at the origin for the pair to be fourth
      order: its error falls like h^(tau-1) (slope 1.2 at tau = 2.2, 1.5 at 2.5, 2 at 3).
      At tau = 3 (N=2, lambda=1, r=1, m=1..3) 2001 points give |E_ext - E_conv| = 15 to
      45 tol_iso; at tau = 4 they give <= 0.016 tol_iso.  The wall (margin 40 there) would
      stretch h enough to fail N=2, lambda=0.75, r=1, m=2 (tau = 2.5, k = 4): 0.79 -> 1.12
      of the gate.

    An explicit n_points keeps the wall rule of its tau regime.  Below max(3, k) points, or
    above SIZE_BUDGET rows x levels of the pair's fine matrix, it raises before any work.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    smooth = p.tau >= 4
    if n_points is None:
        n_points = max(501, 250 * k + 1) if smooth else 20001
    if n_points < max(3, k):
        raise ValidationError(f"--points {n_points} is below max(3, --levels) = {max(3, k)}")
    if k * (2 * n_points + 1) > SIZE_BUDGET:  # the pair's fine matrix
        raise ValidationError(f"{k} levels on {2 * n_points + 1} fine matrix rows exceed the size "
                              f"budget of {SIZE_BUDGET} rows x levels; lower --levels or --points")
    radius = np.sqrt(wall_g(k - 1, p) if smooth else turning_point_g(k - 1, p) + 30)
    return RadialGrid(float(radius), n_points)


def hamiltonian_diagonals(p: ModelParams, grid: RadialGrid, extended: bool):
    """Diagonal and off-diagonal of the discretized operator on the grid, in trap units, at
    tau > 2, where u vanishes at the origin fast enough for the grid's Dirichlet zero there."""
    return _tridiagonal(grid, _v_eff(p, grid) + (_extension(p, grid, 1.0) if extended else 0.0))


def _v_eff(p: ModelParams, grid: RadialGrid):
    """Conventional V_eff on the grid's nodes at tau > 2, or ValidationError."""
    if p.tau <= 2:
        raise ValidationError(
            f"tau = {p.tau} <= 2: origin boundary treatment invalid; increase coupling, degree, or n_particles")
    return v_eff_radial(grid.nodes, trap_units(p), extended=False)


def _extension(p: ModelParams, grid: RadialGrid, v_new_scale: float):
    """v_new_scale * v_new on the grid's nodes; a non-finite scale or value (Laguerre
    overflow) raises."""
    if not np.isfinite(v_new_scale):
        raise ValidationError(f"v_new_scale must be finite, got {v_new_scale!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        extra = v_new_scale * v_new(grid.nodes, trap_units(p))
    if not np.all(np.isfinite(extra)):
        raise NonFiniteError("spectrum: v_new is not finite (Laguerre overflow)")
    return extra


def _tridiagonal(grid: RadialGrid, pot):
    """(diag, off) of -u''/2 + pot u on the grid, with pot given at its nodes."""
    h = grid.spacing
    return 1.0 / h ** 2 + pot, np.full(grid.n_points - 1, -0.5 / h ** 2)


def _prolonged(vectors):
    """Rows given on a grid, carried to grid.refined(): the fine grid's odd nodes
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
    `numeric_spectrum`: full 2.7 ms; refined 0.8 ms from ones (7 solves) and
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
    floor = 4 * np.finfo(float).eps * matrix_norm1(diag, off)  # covers r's own rounding
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
            if residual <= floor or residual > last / 2:  # or r stopped halving
                break
            last = residual
        values[n], radii[n] = shift, max(residual, floor)
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


# ---------------------------------------------------------------------------
# numeric spectra: the Richardson pair of ladders

@dataclass(frozen=True)
class SpectrumRow:
    n: int
    e_analytic: float
    e_numeric: float

    @property
    def abs_err(self) -> float:
        return abs(self.e_numeric - self.e_analytic)

    @property
    def rel_err(self) -> float:
        return self.abs_err / abs(self.e_analytic)

    def to_json_dict(self):
        return {"n": self.n, "e_analytic": self.e_analytic, "e_numeric": self.e_numeric,
                "abs_err": self.abs_err, "rel_err": self.rel_err}


@dataclass(frozen=True)
class SpectrumReport:
    params: ModelParams
    extended: bool
    rows: tuple
    grid: RadialGrid
    raw_coarse: tuple
    raw_fine: tuple
    solves: tuple  # how the coarse and fine ladders were solved: refined, full or reused
    norm_fine: float  # 1-norm of the fine matrix (the solver's roundoff scale), not in JSON

    def to_json_dict(self):
        return {
            "params": self.params.to_json_dict(),
            "extended": self.extended,
            "extrapolation_order": 4,
            "grid": {"rho_min": self.grid.spacing, "rho_max": float(self.grid.nodes[-1]),
                     "n_points": self.grid.n_points},
            "levels": [row.to_json_dict() for row in self.rows],
            "raw_coarse": list(self.raw_coarse),
            "raw_fine": list(self.raw_fine),
            "solves": dict(zip(("coarse", "fine"), self.solves)),
        }


def numeric_spectrum(p: ModelParams, k: int, n_points: int | None = None,
                     extended: bool = False) -> SpectrumReport:
    """Lowest k eigenvalues, Richardson-extrapolated from grids h and h/2,
    paired with the analytic ladder.

    The coarse grid is `solver_grid`(p, k, n_points), so it ends at the wall that holds
    all k levels; the fine grid has 2 n_points + 1 nodes and the same wall.  The potential
    is evaluated once, on the fine nodes (`_ladder`).  Seeds and starts, which set only the
    cost, are those of the module docstring."""
    grid = solver_grid(p, k, n_points)
    fine = grid.refined()
    pot = _v_eff(p, fine) + (_extension(p, fine, 1.0) if extended else 0.0)
    return _ladder(p, k, grid, pot, extended)


def _ladder(p, k, grid, pot, extended) -> SpectrumReport:
    """The SpectrumReport of one ladder on the pair grid, grid.refined(), from the potential
    on the fine nodes: the coarse nodes are the fine grid's odd nodes, so the coarse matrix
    reads pot[1::2].  Its energies and norm_fine are `model._omega_scaled` from trap units.

    A refined coarse ladder's vectors, `_prolonged` to the fine grid, start the fine
    ladder's iteration (solves per level: module docstring); after a "full" coarse ladder,
    which returns no vectors, it starts from ones."""
    analytic = np.array([energy_level(n, trap_units(p)) for n in range(k)])
    coarse_matrix, fine_matrix = _tridiagonal(grid, pot[1::2]), _tridiagonal(grid.refined(), pot)
    coarse, how_coarse, vectors = lowest_eigenvalues(*coarse_matrix, k, analytic)
    starts = None if vectors is None else _prolonged(vectors)
    fine, how_fine, _ = lowest_eigenvalues(*fine_matrix, k, coarse + 0.75 * (analytic - coarse),
                                           starts)
    analytic, coarse, fine, extrap = _omega_scaled(
        p.omega, [analytic, coarse, fine, richardson(coarse, fine)], "spectrum: the ladder")
    norm_fine = _omega_scaled(p.omega, matrix_norm1(*fine_matrix), "spectrum: the fine matrix norm")
    rows = tuple(SpectrumRow(n, float(analytic[n]), float(extrap[n])) for n in range(k))
    return SpectrumReport(p, extended, rows, grid, tuple(map(float, coarse)),
                          tuple(map(float, fine)), (how_coarse, how_fine), float(norm_fine))


def _spectra(p, k, n_points, v_new_scale):
    """Conventional and extended SpectrumReports on one grid pair, as `numeric_spectrum`
    makes each: V_eff is evaluated once, on the fine nodes, and v_new once, for the
    extended ladder, which adds it to the same V_eff.  At m = 0 v_new is zero, so the
    extended matrices are the conventional ones bit for bit and their ladders are reused."""
    grid = solver_grid(p, k, n_points)
    fine = grid.refined()
    v_eff = _v_eff(p, fine)
    conv = _ladder(p, k, grid, v_eff, False)
    if p.ext_index == 0 and np.isfinite(v_new_scale):
        return conv, replace(conv, extended=True, solves=("reused", "reused"))
    return conv, _ladder(p, k, grid, v_eff + _extension(p, fine, v_new_scale), True)
