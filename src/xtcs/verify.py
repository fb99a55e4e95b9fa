"""Independent numerical verification of the analytic solution.

Nothing here trusts the closed forms it checks: eigenvalues come from the
finite-difference spectrum of `solver`, whose gates live here, eigenfunction correctness
from pointwise differential-equation residuals (Phi_n, Phi_n' and Phi_n'' from the closed
form run on a second-order jet, `laguerre.Jet`), orthogonality from quadrature.  The one
analytic input is the energy formula E_n = omega (2n + alpha + 1), which is
exactly what the spectrum checks are designed to confirm or refute.  The
E_n also seed the eigensolver, for cost only: a level it returns is
certified against the matrix, never taken from the seed.  Every radial check
runs in trap units (`model.trap_units`); only `solver._ladder` scales its energies back.

Tolerance note: the eigensolver resolves eigenvalues of the assembled
matrix no better than a few ulps of its norm, and the norm grows like
1/h^2 (plus the centrifugal factor), so isospectrality comparisons carry an
irreducible floor of order eps * ||T||.  `isospectrality_check` folds that
floor into its default tolerance instead of pretending to beat it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, ValidationError
from .laguerre import Jet, _check_index, r_variant_battery, r_variant_residuals
from .manybody import constancy_scan
from .model import (ModelParams, energy_level, ext_constants, trap_units, turning_point_g,
                    v_new, v_new_x1_two_term, wall_g)
from .solver import _spectra, numeric_spectrum
from .wavefunctions import _gram, _node_counts, _radial_rows, radial_eigenfunction

__all__ = [
    "CheckItem",
    "VerificationReport",
    "default_residual_grid",
    "ode_residual",
    "residual_suite",
    "isospectrality_check",
    "spectrum_csv_rows",
    "orthogonality_matrix",
    "ortho_suite",
    "consistency_suite",
    "local_energy_suite",
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

RESIDUAL_STEP = 0.05  # in trap lengths


def default_residual_grid(n, p: ModelParams):
    """Uniform nodes in trap lengths, at most RESIDUAL_STEP apart, from 0.05 to the wall of
    level n, `model.wall_g`(n).  A set of levels is checked on the nodes of its top level.
    The jet derivatives are exact to rounding, so the step only sets the sampling density.
    """
    s_max = float(np.sqrt(wall_g(n, p)))
    return np.linspace(0.05, s_max, int(np.ceil((s_max - 0.05) / RESIDUAL_STEP)) + 1)


def ode_residual(n, p: ModelParams, x1_denominator="g_plus_alpha") -> float:
    """Scaled max residual of Phi_n on `default_residual_grid`(n, p): `_scaled_residuals`
    on the one level n."""
    return _scaled_residuals([n], p, x1_denominator)[1][0]


def _scaled_residuals(levels, p: ModelParams, x1_denominator="g_plus_alpha"):
    """The nodes `default_residual_grid`(max(levels), p) and, for each n in levels (ascending),
    the scaled max residual of Phi'' + (tau/rho) Phi' + 2(E_n - V_ext) Phi on it.

    Phi_n, Phi_n' and Phi_n'' come from `wavefunctions._radial_rows` run on a `laguerre.Jet`
    in rho (the rows of `radial_eigenfunction`, sharing one envelope and denominator; the
    2g + alpha variant from `radial_eigenfunction` itself), E_n from the analytic formula,
    and V_ext = rho^2 / 2 + v_new, evaluated once for all levels.  Each residual is
    normalized by max|Phi_n| E_n.  A non-finite jet or v_new (Laguerre overflow) raises.
    """
    levels = [_check_index("n", n, 0) for n in levels]
    p = trap_units(p)
    rho = default_residual_grid(max(levels), p)
    jet = Jet(rho, np.ones_like(rho), np.zeros_like(rho))
    with np.errstate(over="ignore", invalid="ignore"):
        if x1_denominator == "g_plus_alpha":
            phi = list(_radial_rows(levels, p, jet))
        else:  # the inconsistent m = 1 variant, a negative control
            phi = [radial_eigenfunction(n, p, jet, x1_denominator) for n in levels]
        v = v_new(rho, p)
    for name, values in [(f"Phi_{n}", (f.f, f.d1, f.d2)) for n, f in zip(levels, phi)] + [
            ("v_new", v)]:
        if not np.all(np.isfinite(values)):
            raise NonFiniteError(f"residual: {name} is not finite (Laguerre overflow)")
    pot = 0.5 * rho ** 2 + v
    out = []
    for n, f in zip(levels, phi):
        e_n = energy_level(n, p)
        resid = f.d2 + (p.tau / rho) * f.d1 + 2 * (e_n - pot) * f.f
        out.append(float(np.max(np.abs(resid)) / (np.max(np.abs(f.f)) * e_n)))
    return rho, out


def residual_suite(p: ModelParams) -> VerificationReport:
    """Scaled residuals (`_scaled_residuals`) of levels 0-3, each <= 1e-8, and the control:
    level 0 of the m = 1 family with the 2g + alpha denominator must read >= 1e-2."""
    report = VerificationReport("eigen-equation residuals", p)
    rho, residuals = _scaled_residuals(range(4), p)
    for n, value in enumerate(residuals):
        report.add(f"scaled residual, level {n} (m={p.ext_index})", value, 1e-8)
    # the inconsistent m=1 denominator must fail; run it on the m=1 family
    p1 = dataclasses.replace(p, ext_index=1)
    report.add("scaled residual, level 0, m=1 denominator variant 2g+alpha",
               ode_residual(0, p1, x1_denominator="2g_plus_alpha"), 1e-2, comparison=">=",
               detail="variant rejected: only g+alpha solves the extended radial equation")
    report.metadata.update(spacing=(rho[-1] - rho[0]) / (len(rho) - 1), grid_points=len(rho))
    return report


# ---------------------------------------------------------------------------
# numeric spectra: the gates

def isospectrality_check(p: ModelParams, k: int = 4, n_points: int | None = None,
                         v_new_scale: float = 1.0) -> VerificationReport:
    """Extended vs conventional vs analytic spectra, as a structured report.

    Both ladders come from `solver._spectra`(p, k, n_points), which makes each as
    `solver.numeric_spectrum` does.  Tolerances: 1e-6 E_n against the analytic ladder;
    tol_iso = max(1e-8 w, 25 eps ||T_fine||_1) between the two numeric spectra, the second
    term being the eigensolver's roundoff floor on the fine extended matrix.
    v_new_scale != 1 perturbs the extension term (negative control); failure is reported,
    not raised.  Each ladder's metadata records how its coarse and fine levels were solved.
    """
    conv, ext = _spectra(p, k, n_points, v_new_scale)
    grid = conv.grid
    noise_floor = 25 * np.finfo(float).eps * ext.norm_fine
    tol_iso = max(1e-8 * p.omega, noise_floor)
    report = VerificationReport("isospectrality of the extended radial problem", p)
    report.metadata.update({
        "k": k, "grid_points": grid.n_points, "spacing": grid.spacing, "outer_radius": grid.radius,
        "outer_margin_g": grid.radius ** 2 - turning_point_g(k - 1, p),
        "tol_iso": tol_iso, "bisection_noise_floor": noise_floor,
        "v_new_scale": v_new_scale,
    })
    for n in range(k):
        ta = 1e-6 * energy_level(n, p)
        report.add(f"|E_conv({n}) - E_analytic({n})|", conv.rows[n].abs_err, ta)
        report.add(f"|E_ext({n}) - E_analytic({n})|", ext.rows[n].abs_err, ta)
        report.add(f"|E_ext({n}) - E_conv({n})|",
                   abs(ext.rows[n].e_numeric - conv.rows[n].e_numeric), tol_iso)
    report.metadata["conventional"] = conv.to_json_dict()
    report.metadata["extended"] = ext.to_json_dict()
    return report


def spectrum_csv_rows(p: ModelParams, k: int = 4, n_points: int | None = None):
    """Rows (n, E_analytic, E_conv_numeric, E_ext_numeric, rel_err_conv,
    rel_err_ext) for the spectrum table, from the ladders of `isospectrality_check`."""
    conv, ext = _spectra(p, k, n_points, 1.0)
    return [(n, conv.rows[n].e_analytic, conv.rows[n].e_numeric, ext.rows[n].e_numeric,
             conv.rows[n].rel_err, ext.rows[n].rel_err) for n in range(k)]


def orthogonality_matrix(p: ModelParams, k: int):
    """k x k matrix of normalized inner products under rho^tau d rho on the rule of
    `wavefunctions._gram`, which ends at `model.wall_g`(k - 1) and tail-checks the
    highest level's norm as `norm` does; non-convergence is raised."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    gram, _ = _gram(range(k), p)
    scale = np.sqrt(np.diag(gram))
    return gram / np.outer(scale, scale)


def ortho_suite(p: ModelParams, k: int) -> VerificationReport:
    """The worst off-diagonal of `orthogonality_matrix` over max(k, 5) levels, <= 1e-8, and
    the node count of each of levels 0-4 (`wavefunctions._node_counts`), off its level by 0."""
    report = VerificationReport("orthogonality and node structure", p)
    k = max(k, 5)
    gram = orthogonality_matrix(p, k)
    off = np.max(np.abs(gram - np.eye(k)))
    report.add(f"worst off-diagonal normalized inner product (k={k})", off, 1e-8)
    for n, count in enumerate(_node_counts(range(5), p)):
        report.add(f"node count, level {n} (expect {n})", abs(count - n), 0)
    return report


# ---------------------------------------------------------------------------
# formula cross-consistency; the many-body local energy

def consistency_suite(p: ModelParams) -> VerificationReport:
    """Pointwise agreement of independent expressions for the extension term,
    plus the diagnosis of the two R-coefficient variants.

    The m = 1 items are evaluated at m = 1 regardless of p.ext_index (they
    are statements about that family); the vanishing check uses m = 0.  They run in trap
    units on s in [0.05, 10], and the three m = 1 forms also at p.omega, where rho =
    s / sqrt(omega) must give omega times their trap-unit values.  The R
    convention and the rejected-variant control come from `laguerre.r_variant_battery`
    (at this config's alpha the rejected residual falls like alpha^-2, 1.0e-3 at 128);
    the consistent variant is probed here too.
    """
    rho = np.linspace(0.05, 10.0, 200)
    report = VerificationReport("closed-form cross-consistency", p)
    p1 = dataclasses.replace(trap_units(p), ext_index=1)
    p0 = dataclasses.replace(p1, ext_index=0)
    general, two_term = v_new(rho, p1), v_new_x1_two_term(rho, p1)
    constants, zero = ext_constants(p1).evaluate(rho, p1.omega), v_new(rho, p0)
    scale = np.max(np.abs(two_term))
    report.add("m=1 extension: general form vs two-term form (max rel diff)",
               np.max(np.abs(general - two_term)) / scale, 1e-12)
    report.add("m=1 extension: constants form vs two-term form (max rel diff)",
               np.max(np.abs(constants - two_term)) / scale, 1e-12)
    report.add("m=0 extension vanishes (max |v_new|)", np.max(np.abs(zero)), 1e-14)
    pw, rho_w = dataclasses.replace(p, ext_index=1), rho / np.sqrt(p.omega)
    with np.errstate(over="ignore", invalid="ignore"):  # rho_w^2 or omega x a form overflows
        at_omega = (v_new(rho_w, pw), v_new_x1_two_term(rho_w, pw),
                    ext_constants(pw).evaluate(rho_w, pw.omega))
    if not np.all(np.isfinite(at_omega)):
        raise NonFiniteError(f"consistency: an m=1 form at omega = {p.omega:.17g} is not finite")
    report.add("m=1 extension: each form at omega vs omega x its trap-unit value (max rel diff)",
               max(np.max(np.abs(v / p.omega - u)) for v, u in
                   zip(at_omega, (general, two_term, constants))) / scale, 1e-12)

    # R-coefficient diagnosis on the closed-form polynomials.
    battery = r_variant_battery()
    resolved = min(battery, key=battery.get)
    rejected = "alpha" if resolved == "alpha-1" else "alpha-1"
    worst = r_variant_residuals(range(4), (1, 2, 3), (p.alpha,), (0.5, 2.0, p.alpha + 1.0, 11.3))
    report.add(f"R coefficient, denominator parameter {resolved}: scaled residual",
               worst[resolved], 1e-9, detail="consistent variant")
    report.add(f"R coefficient, denominator parameter {rejected}: scaled residual",
               battery[rejected], 1e-3, comparison=">=",
               detail="inconsistent variant correctly rejected")
    report.metadata["r_denominator_resolved"] = resolved
    report.metadata["x1_r_denominators"] = {
        "consistent (m=1)": "g + alpha", "rejected (m=1)": "g + alpha + 1"}
    return report


def local_energy_suite(p: ModelParams, n_samples: int, seed: int,
                       v_new_scale: float) -> VerificationReport:
    """`manybody.constancy_scan`(p, n_samples, seed, v_new_scale): its relative spread and
    relative mean error against E_0, each <= 1e-5, with the scan in the metadata."""
    report = VerificationReport("many-body local-energy constancy", p)
    stats = constancy_scan(p, n_samples, seed, v_new_scale=v_new_scale)
    report.add("stddev / |mean|", stats.relative_spread, 1e-5)
    report.add("|mean - E_0| / E_0", stats.relative_mean_error, 1e-5)
    report.metadata["scan"] = stats.to_json_dict()
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


def convergence_orders(p: ModelParams, k: int = 3) -> ConvergenceStudy:
    """Measured h-scaling of the extended problem's eigenvalue error on
    successively halved grids.

    `numeric_spectrum` pairs on 79, 159 and 319 points: each pair's fine grid (2n + 1
    points) is the next pair's coarse grid, so R/h = 80 ... 640 at the solver grid's
    wall.  Expected slopes: 2 raw, 4 after Richardson.
    """
    reports = [numeric_spectrum(p, k, n, extended=True) for n in (79, 159, 319)]
    e_exact = np.array([row.e_analytic for row in reports[0].rows])
    hs = [rep.grid.spacing for rep in reports] + [reports[-1].grid.spacing / 2]
    ladders = [rep.raw_coarse for rep in reports] + [reports[-1].raw_fine]
    raw = [float(np.max(np.abs(np.array(ladder) - e_exact))) for ladder in ladders]
    extrap = [max(row.abs_err for row in rep.rows) for rep in reports]
    raw_slope = float(np.polyfit(np.log(hs), np.log(raw), 1)[0])
    extrap_slope = float(np.polyfit(np.log(hs[:-1]), np.log(extrap), 1)[0])
    return ConvergenceStudy(tuple(hs), tuple(raw), tuple(extrap), raw_slope, extrap_slope)
