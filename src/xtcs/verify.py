"""Independent numerical verification of the analytic solution.

Nothing here trusts the closed forms it checks: eigenvalues come from the
finite-difference solver, eigenfunction correctness from pointwise
differential-equation residuals, orthogonality from quadrature.  The one
analytic input is the energy formula E_n = omega (2n + alpha + 1), which is
exactly what the spectrum checks are designed to confirm or refute.

Tolerance note: Sturm bisection resolves eigenvalues of the assembled
matrix no better than a few ulps of its norm, and the norm grows like
1/h^2 (plus the centrifugal factor), so isospectrality comparisons carry an
irreducible floor of order eps * ||T||.  `isospectrality_check` folds that
floor into its default tolerance instead of pretending to beat it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .laguerre import r_variant_residuals
from .model import (ModelParams, energy_level, ext_constants, turning_point_g, v_new,
                    v_new_x1_two_term)
from .solver import (RadialGrid, hamiltonian_diagonals, lowest_eigenpairs,
                     lowest_eigenvalues, matrix_norm1, richardson, solver_grid)
from .wavefunctions import _gram, default_quadrature, radial_eigenfunction

__all__ = [
    "CheckItem",
    "VerificationReport",
    "SpectrumRow",
    "SpectrumReport",
    "default_residual_grid",
    "ode_residual",
    "ode_residual_diagnosis",
    "numeric_spectrum",
    "isospectrality_check",
    "eigenvector_overlap",
    "spectrum_csv_rows",
    "orthogonality_matrix",
    "consistency_suite",
    "ConvergenceStudy",
    "convergence_orders",
]


def _fmt(x) -> str:
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class CheckItem:
    name: str
    value: float
    threshold: float
    passed: bool
    comparison: str = "<="
    detail: str = ""

    def to_json_dict(self):
        d = {"name": self.name, "value": self.value, "threshold": self.threshold,
             "comparison": self.comparison, "passed": self.passed}
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass
class VerificationReport:
    title: str
    params: ModelParams | None = None
    items: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def add(self, name, value, threshold, comparison="<=", detail=""):
        value = float(value)
        threshold = float(threshold)
        ok = value <= threshold if comparison == "<=" else value >= threshold
        self.items.append(CheckItem(name, value, threshold, bool(ok), comparison, detail))

    def to_json_dict(self):
        return {
            "title": self.title,
            "params": self.params.to_json_dict() if self.params is not None else None,
            "passed": self.passed,
            "items": [item.to_json_dict() for item in self.items],
            "metadata": self.metadata,
        }

    def to_text(self) -> str:
        lines = [self.title, "=" * len(self.title)]
        if self.params is not None:
            lines.append("params: " + " ".join(
                f"{k}={v}" for k, v in self.params.to_json_dict().items()))
        width = max((len(i.name) for i in self.items), default=0)
        for i in self.items:
            mark = "PASS" if i.passed else "FAIL"
            lines.append(f"[{mark}] {i.name.ljust(width)}  value={_fmt(i.value)} "
                         f"{i.comparison} {_fmt(i.threshold)}"
                         + (f"  ({i.detail})" if i.detail else ""))
        for k, v in self.metadata.items():
            if isinstance(v, (dict, list, tuple)):
                continue  # bulky payloads stay in the JSON form only
            lines.append(f"# {k}: {_fmt(v) if isinstance(v, float) else v}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# pointwise differential-equation residuals

def default_residual_grid(n, p: ModelParams) -> RadialGrid:
    """Fine uniform grid for fourth-order FD residuals (h ~ 1e-3/sqrt(omega))."""
    rho_max = float(np.sqrt(turning_point_g(n, p, 10) / p.omega))
    h = 1e-3 / np.sqrt(p.omega)
    n_points = int(np.ceil((rho_max - 0.05) / h)) + 1
    return RadialGrid(0.05, rho_max, n_points)


def ode_residual(n, p: ModelParams, grid: RadialGrid | None = None,
                 x1_denominator="g_plus_alpha") -> float:
    """Scaled max residual of Phi'' + (tau/rho) Phi' + 2(E - V_ext) Phi.

    Phi comes from `radial_eigenfunction`, E from the analytic formula, and
    V_ext = w^2 rho^2 / 2 + v_new.  Derivatives are fourth-order central
    differences; the result is normalized by max|Phi| times omega(2n+alpha+1).
    """
    if grid is None:
        grid = default_residual_grid(n, p)
    h = grid.spacing
    f = radial_eigenfunction(n, p, grid.nodes, x1_denominator=x1_denominator)
    f1 = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * h)
    f2 = (-f[4:] + 16 * f[3:-1] - 30 * f[2:-2] + 16 * f[1:-3] - f[:-4]) / (12 * h ** 2)
    rho = grid.nodes[2:-2]
    pot = 0.5 * p.omega ** 2 * rho ** 2 + v_new(rho, p)
    e_n = energy_level(n, p)
    resid = f2 + (p.tau / rho) * f1 + 2 * (e_n - pot) * f[2:-2]
    scale = np.max(np.abs(f)) * e_n
    return float(np.max(np.abs(resid)) / scale)


def ode_residual_diagnosis(n, p: ModelParams, grid: RadialGrid | None = None,
                           x1_denominator="g_plus_alpha"):
    """(residual, kind): kind is 'fd-limited' when halving h shrinks the
    residual by roughly the fourth-order factor (the value is then an upper
    bound set by the grid, not by the eigenfunction), else 'model-mismatch'."""
    if grid is None:
        grid = default_residual_grid(n, p)
    fine = RadialGrid(grid.rho_min, grid.rho_max, 2 * grid.n_points - 1)
    r_c = ode_residual(n, p, grid, x1_denominator)
    r_f = ode_residual(n, p, fine, x1_denominator)
    kind = "fd-limited" if r_c > 8 * r_f else "model-mismatch"
    return r_c, kind


# ---------------------------------------------------------------------------
# numeric spectra

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
    extrapolation_order: int = 4

    @property
    def eigenvalues(self):
        return np.array([row.e_numeric for row in self.rows])

    def to_json_dict(self):
        return {
            "params": self.params.to_json_dict(),
            "extended": self.extended,
            "extrapolation_order": self.extrapolation_order,
            "grid": {"rho_min": self.grid.rho_min, "rho_max": self.grid.rho_max,
                     "n_points": self.grid.n_points},
            "levels": [row.to_json_dict() for row in self.rows],
            "raw_coarse": list(self.raw_coarse),
            "raw_fine": list(self.raw_fine),
        }


def _spectrum(p, k, grid, extended, v_new_scale):
    """SpectrumReport on the pair (grid, grid.refined()), plus the 1-norm of
    the fine matrix, which sets the bisection roundoff floor."""
    radius = grid.rho_max + grid.spacing
    if p.omega * radius ** 2 < turning_point_g(k - 1, p, 30) * (1 - 1e-9):
        raise ValidationError(
            f"grid radius {radius:.3f} too small for k = {k}: need w^2 R^2/2 >= E_(k-1) + 15 w")
    coarse = lowest_eigenvalues(*hamiltonian_diagonals(p, grid, extended, v_new_scale), k)
    d_fine, e_fine = hamiltonian_diagonals(p, grid.refined(), extended, v_new_scale)
    fine = lowest_eigenvalues(d_fine, e_fine, k)
    extrap = richardson(coarse, fine)
    rows = tuple(SpectrumRow(n, energy_level(n, p), float(extrap[n])) for n in range(k))
    report = SpectrumReport(p, extended, rows, grid, tuple(map(float, coarse)),
                            tuple(map(float, fine)))
    return report, matrix_norm1(d_fine, e_fine)


def numeric_spectrum(p: ModelParams, k: int, grid: RadialGrid | None = None,
                     extended: bool = False, v_new_scale: float = 1.0) -> SpectrumReport:
    """Lowest k eigenvalues, Richardson-extrapolated from grids h and h/2,
    paired with the analytic ladder."""
    if grid is None:
        grid = solver_grid(p, k)
    return _spectrum(p, k, grid, extended, v_new_scale)[0]


def isospectrality_check(p: ModelParams, k: int = 4, grid: RadialGrid | None = None,
                         v_new_scale: float = 1.0) -> VerificationReport:
    """Extended vs conventional vs analytic spectra, as a structured report.

    Tolerances: 1e-6 E_n against the analytic ladder; tol_iso =
    max(1e-8 w, 25 eps ||T_fine||_1) between the two numeric spectra, the
    second term being the bisection roundoff floor of the fine extended
    matrix.  v_new_scale != 1 perturbs the extension term (negative
    control); failure is reported, not raised.  Each of the four matrices
    (conventional and extended, coarse and fine) is assembled once.
    """
    if grid is None:
        grid = solver_grid(p, k)
    conv, _ = _spectrum(p, k, grid, False, 1.0)
    ext, norm_fine = _spectrum(p, k, grid, True, v_new_scale)
    noise_floor = 25 * np.finfo(float).eps * norm_fine
    tol_iso = max(1e-8 * p.omega, noise_floor)
    radius = grid.rho_max + grid.spacing
    report = VerificationReport("isospectrality of the extended radial problem", p)
    report.metadata.update({
        "k": k, "grid_points": grid.n_points, "spacing": grid.spacing,
        "outer_radius": radius,
        "outer_margin_g": p.omega * radius ** 2 - turning_point_g(k - 1, p, 0),
        "tol_iso": tol_iso, "bisection_noise_floor": noise_floor,
        "v_new_scale": v_new_scale,
    })
    for n in range(k):
        ta = 1e-6 * energy_level(n, p)
        report.add(f"|E_conv({n}) - E_analytic({n})|",
                   conv.rows[n].abs_err, ta)
        report.add(f"|E_ext({n}) - E_analytic({n})|",
                   ext.rows[n].abs_err, ta)
        report.add(f"|E_ext({n}) - E_conv({n})|",
                   abs(ext.rows[n].e_numeric - conv.rows[n].e_numeric), tol_iso)
    report.metadata["conventional"] = conv.to_json_dict()
    report.metadata["extended"] = ext.to_json_dict()
    return report


def eigenvector_overlap(p: ModelParams, k: int = 4, grid: RadialGrid | None = None):
    """Normalized overlaps between numeric eigenvectors of the extended
    problem and analytic Phi_n.

    The numeric vector approximates u_n = rho^(tau/2) Phi_n on the grid, so
    the comparison needs no interpolation beyond the shared nodes.
    """
    if grid is None:
        grid = solver_grid(p, k, n_points=8001)
    d, e = hamiltonian_diagonals(p, grid, extended=True)
    _, vecs = lowest_eigenpairs(d, e, k)
    rho = grid.nodes
    overlaps = []
    for n in range(k):
        u_exact = rho ** (p.tau / 2) * radial_eigenfunction(n, p, rho)
        u_num = vecs[:, n]
        ov = abs(np.dot(u_num, u_exact)) / (np.linalg.norm(u_num) * np.linalg.norm(u_exact))
        overlaps.append(float(ov))
    return np.array(overlaps)


def spectrum_csv_rows(p: ModelParams, k: int = 4, grid: RadialGrid | None = None):
    """Rows (n, E_analytic, E_conv_numeric, E_ext_numeric, rel_err_conv,
    rel_err_ext) for the spectrum table."""
    if grid is None:
        grid = solver_grid(p, k)
    conv = numeric_spectrum(p, k, grid, extended=False)
    ext = numeric_spectrum(p, k, grid, extended=True)
    return [(n, conv.rows[n].e_analytic, conv.rows[n].e_numeric, ext.rows[n].e_numeric,
             conv.rows[n].rel_err, ext.rows[n].rel_err) for n in range(k)]


def orthogonality_matrix(p: ModelParams, k: int, quad=None):
    """k x k matrix of normalized inner products under rho^tau d rho.

    The domain must hold the heaviest integrand: the highest level's norm is
    tail-checked the same way `norm` is, and non-convergence is raised.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    gram, _ = _gram(range(k), p, default_quadrature(p, k - 1) if quad is None else quad)
    scale = np.sqrt(np.diag(gram))
    return gram / np.outer(scale, scale)


# ---------------------------------------------------------------------------
# formula cross-consistency

def consistency_suite(p: ModelParams) -> VerificationReport:
    """Pointwise agreement of independent expressions for the extension term,
    plus the diagnosis of the two R-coefficient variants.

    The m = 1 items are evaluated at m = 1 regardless of p.ext_index (they
    are statements about that family); the vanishing check uses m = 0.
    """
    rho = np.linspace(0.05, 10.0, 200)
    report = VerificationReport("closed-form cross-consistency", p)
    p1 = dataclasses.replace(p, ext_index=1)
    p0 = dataclasses.replace(p, ext_index=0)

    general = v_new(rho, p1)
    two_term = v_new_x1_two_term(rho, p1)
    constants = ext_constants(p1).evaluate(rho, p1.omega)
    scale = np.max(np.abs(two_term))
    report.add("m=1 extension: general form vs two-term form (max rel diff)",
               np.max(np.abs(general - two_term)) / scale, 1e-12)
    report.add("m=1 extension: constants form vs two-term form (max rel diff)",
               np.max(np.abs(constants - two_term)) / scale, 1e-12)
    report.add("m=0 extension vanishes (max |v_new|)",
               np.max(np.abs(v_new(rho, p0))), 1e-14)

    # R-coefficient diagnosis on the closed-form polynomials.
    a = p.alpha
    worst = r_variant_residuals(
        (n, m, a, g) for n in range(4) for m in (1, 2, 3) for g in (0.5, 2.0, a + 1.0, 11.3))
    resolved = min(worst, key=worst.get)
    rejected = "alpha" if resolved == "alpha-1" else "alpha-1"
    report.add(f"R coefficient, denominator parameter {resolved}: scaled residual",
               worst[resolved], 1e-9,
               detail="consistent variant")
    report.add(f"R coefficient, denominator parameter {rejected}: scaled residual",
               worst[rejected], 1e-3, comparison=">=",
               detail="inconsistent variant correctly rejected")
    report.metadata["r_denominator_resolved"] = resolved
    report.metadata["x1_r_denominators"] = {
        "consistent (m=1)": "g + alpha", "rejected (m=1)": "g + alpha + 1"}
    return report


# ---------------------------------------------------------------------------
# convergence study

@dataclass(frozen=True)
class ConvergenceStudy:
    spacings: tuple
    raw_errors: tuple
    extrapolated_errors: tuple
    raw_slope: float
    extrapolated_slope: float

    def to_json_dict(self):
        return {"spacings": list(self.spacings), "raw_errors": list(self.raw_errors),
                "extrapolated_errors": list(self.extrapolated_errors),
                "raw_slope": self.raw_slope, "extrapolated_slope": self.extrapolated_slope}


def convergence_orders(p: ModelParams, k: int = 3,
                       levels=(80, 160, 320, 640)) -> ConvergenceStudy:
    """Measured h-scaling of the extended problem's eigenvalue error on
    successively halved grids.

    levels are outer-node counts R/h; each must double the last so the
    extrapolated pairs share their fine grids.  Expected slopes: 2 raw,
    4 after Richardson.
    """
    if len(levels) < 3 or any(b != 2 * a for a, b in zip(levels[:-1], levels[1:])):
        raise ValidationError(f"levels must be >= 3 successive doublings, got {levels!r}")
    e_exact = np.array([energy_level(n, p) for n in range(k)])
    radius = float(np.sqrt(turning_point_g(k - 1, p, 30) / p.omega))
    spectra = []
    for lev in levels:
        h = radius / lev
        grid = RadialGrid(h, (lev - 1) * h, lev - 1)
        d, e = hamiltonian_diagonals(p, grid, extended=True)
        spectra.append(lowest_eigenvalues(d, e, k))
    hs = [radius / lev for lev in levels]
    raw = [float(np.max(np.abs(s - e_exact))) for s in spectra]
    extrap = [float(np.max(np.abs(richardson(spectra[i], spectra[i + 1]) - e_exact)))
              for i in range(len(levels) - 1)]
    raw_slope = float(np.polyfit(np.log(hs), np.log(raw), 1)[0])
    extrap_slope = float(np.polyfit(np.log(hs[:-1]), np.log(extrap), 1)[0])
    return ConvergenceStudy(tuple(hs), tuple(raw), tuple(extrap), raw_slope, extrap_slope)
