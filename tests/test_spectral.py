"""Finite-difference eigensolver and the verification reports built on it."""

import numpy as np
import pytest

from xtcs import (ModelParams, ValidationError, consistency_suite, convergence_orders,
                  eigenvector_overlap, energy_level, isospectrality_check,
                  numeric_spectrum, ode_residual, ode_residual_diagnosis,
                  orthogonality_matrix, solver_grid, spectrum_csv_rows)
from xtcs.solver import RadialGrid, hamiltonian_diagonals, lowest_eigenvalues, richardson
from xtcs.verify import default_residual_grid

from conftest import BATTERY_BASE, make_params

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FAST_POINTS = 6001  # sufficient for unit-level tolerances; acceptance uses the default


def test_grid_refinement_halves_spacing():
    g = solver_grid(ModelParams(2, 1.0, 1, 1.0), 3, n_points=500)
    f = g.refined()
    assert f.n_points == 2 * g.n_points + 1
    assert f.spacing == pytest.approx(g.spacing / 2, rel=1e-12)
    # same outer Dirichlet radius
    assert f.rho_max + f.spacing == pytest.approx(g.rho_max + g.spacing, rel=1e-12)


def _wkb_margin(g_t):
    # margin at which the harmonic WKB decay margin^(3/2) / (3 sqrt(g_t)) reaches 19.3 nats
    return max(40.0, (3 * 19.3 * np.sqrt(g_t)) ** (2 / 3))


@pytest.mark.parametrize("p, k, n_points, margin", [
    (ModelParams(2, 1.0, 1, 1.0, ext_index=2), 4, 20001, 30),  # tau = 3: grid as before
    (ModelParams(2, 0.75, 1, 1.0, ext_index=2), 20, 20001, 30),  # tau = 2.5
    (ModelParams(2, 1.5, 1, 1.0, ext_index=2), 4, 1001, 40),  # tau = 4, g_t = 17
    pytest.param(ModelParams(8, 1.0, 1, 1.0, ext_index=1), 20, 5001, _wkb_margin(98),
                 id="p3-20-5001-wkb69"),  # tau = 21, g_t = 98
    (ModelParams(2, 1.5, 1, 1.0, ext_index=2), 1, 501, 40),  # tau = 4: 501-point floor
])
def test_solver_grid_sized_from_tau_and_k(p, k, n_points, margin):
    grid = solver_grid(p, k)
    radius = float(np.sqrt((2 * (2 * (k - 1) + p.alpha + 1) + margin) / p.omega))
    assert grid.n_points == n_points
    assert grid.rho_max == pytest.approx(radius * n_points / (n_points + 1), rel=1e-14)
    assert grid.rho_max + grid.spacing == pytest.approx(radius, rel=1e-14)
    explicit = solver_grid(p, k, n_points=3001)
    assert explicit.n_points == 3001
    assert explicit.rho_max + explicit.spacing == pytest.approx(radius, rel=1e-14)


def test_low_tau_rejected():
    # N=2, lambda=0.4, r=1, s=0: tau = 1 + 0.8 < 2
    p = ModelParams(2, 0.4, 1, 1.0)
    grid = solver_grid(p, 2, n_points=200)
    with pytest.raises(ValidationError, match="tau"):
        hamiltonian_diagonals(p, grid, extended=False)


def test_conventional_spectrum_reference_case():
    p = ModelParams(2, 1.0, 1, 1.0)  # alpha = 1: E = 2, 4, 6
    rep = numeric_spectrum(p, 3, solver_grid(p, 3, FAST_POINTS))
    assert np.allclose(rep.eigenvalues, [2.0, 4.0, 6.0], rtol=1e-6)
    for row in rep.rows:
        assert row.rel_err <= 1e-6


def test_extended_spectrum_mixed_case():
    # alpha = 4, omega = 2: E = 10, 14
    p = make_params((4, 0.5, 3, 0, 2.0), 2)
    rep = numeric_spectrum(p, 2, solver_grid(p, 2, FAST_POINTS), extended=True)
    assert np.allclose(rep.eigenvalues, [10.0, 14.0], rtol=1e-6)


def test_m0_extended_is_bitwise_conventional():
    p = make_params((3, 1.0, 1, 0, 1.0), 0)
    grid = solver_grid(p, 3, FAST_POINTS)
    conv = numeric_spectrum(p, 3, grid, extended=False)
    ext = numeric_spectrum(p, 3, grid, extended=True)
    assert conv.raw_coarse == ext.raw_coarse
    assert conv.raw_fine == ext.raw_fine
    assert tuple(conv.eigenvalues) == tuple(ext.eigenvalues)


def test_isospectrality_battery_case():
    p = make_params((3, 1.5, 2, 0, 1.0), 3)
    report = isospectrality_check(p, 4)
    assert report.passed, report.to_text()
    for row_name in ("|E_ext(0) - E_conv(0)|", "|E_ext(3) - E_conv(3)|"):
        assert any(item.name == row_name for item in report.items)


def test_isospectrality_negative_control():
    # scaling the extension by 1.01 must break the degeneracy detectably
    p = make_params((3, 1.5, 2, 0, 1.0), 2)
    good = isospectrality_check(p, 3, grid=solver_grid(p, 3, FAST_POINTS))
    bad = isospectrality_check(p, 3, grid=solver_grid(p, 3, FAST_POINTS), v_new_scale=1.01)
    assert good.passed
    assert not bad.passed
    tol_iso = bad.metadata["tol_iso"]
    worst = max(item.value for item in bad.items if "E_conv" in item.name and "E_ext" in item.name)
    assert worst > 10 * tol_iso


@pytest.mark.parametrize("k", [1, 32])
def test_top_level_clears_the_outer_wall_on_the_default_grid(k):
    # tau = 6, m = 60: at k = 32 a wall at margin 40 shifts the top level by 0.86 tol_iso
    report = isospectrality_check(ModelParams(3, 1.0, 1, 1.0, ext_index=60), k)
    tol_iso = report.metadata["tol_iso"]
    iso = [item.value for item in report.items
           if item.name.startswith("|E_ext") and "E_conv" in item.name]
    assert len(iso) == k
    assert max(iso) <= 0.25 * tol_iso, report.to_text()
    assert report.passed


def test_spectrum_report_records_its_wall():
    p = make_params((3, 1.5, 2, 0, 1.0), 2)
    grid = solver_grid(p, 4)
    meta = isospectrality_check(p, 4).metadata
    radius = grid.rho_max + grid.spacing
    assert meta["spacing"] == grid.spacing
    assert meta["outer_radius"] == radius
    assert meta["outer_margin_g"] == pytest.approx(_wkb_margin(24), rel=1e-12)  # tau = 11


def test_eigenvalue_count_below_mid_gap_matches_analytic_ladder():
    for base in BATTERY_BASE[:3]:
        p = make_params(base, 2)
        grid = solver_grid(p, 8)
        for ext in (False, True):
            levels = lowest_eigenvalues(*hamiltonian_diagonals(p, grid, extended=ext), 8)
            for probe_level in (1, 3, 5):
                energy = energy_level(probe_level, p) - p.omega  # between levels
                analytic = sum(1 for n in range(8) if energy_level(n, p) < energy)
                assert np.count_nonzero(levels < energy) == analytic


def test_eigenvector_overlap_with_analytic():
    p = make_params((3, 1.5, 2, 0, 1.0), 2)
    overlaps = eigenvector_overlap(p, 4)
    assert np.all(overlaps >= 1 - 1e-6)


def test_richardson_combination():
    assert richardson(1.0, 2.0) == pytest.approx((4 * 2.0 - 1.0) / 3)


def test_convergence_orders():
    p = make_params((3, 2.0, 1, 1, 1.0), 1)  # tau = 12: smooth origin behavior
    study = convergence_orders(p, k=3)
    assert abs(study.raw_slope - 2.0) <= 0.3
    assert abs(study.extrapolated_slope - 4.0) <= 0.3


def test_convergence_levels_validated():
    with pytest.raises(ValidationError):
        convergence_orders(ModelParams(2, 1.0, 1, 1.0), levels=(100, 150, 200))


# -- residuals -----------------------------------------------------------------

def test_residual_conventional_ground_state():
    assert ode_residual(0, ModelParams(2, 1.0, 1, 1.0)) <= 1e-8


def test_residual_extended_corrected_denominator():
    p = ModelParams(2, 1.0, 1, 1.0, ext_index=1)
    assert ode_residual(0, p) <= 1e-8


def test_residual_broken_denominator_fails():
    p = ModelParams(2, 1.0, 1, 1.0, ext_index=1)
    bad = ode_residual(0, p, x1_denominator="2g_plus_alpha")
    assert bad > 1e-2
    value, kind = ode_residual_diagnosis(0, p, x1_denominator="2g_plus_alpha")
    assert kind == "model-mismatch"


def test_residual_diagnosis_fd_limited():
    p = ModelParams(2, 1.0, 1, 1.0, ext_index=1)
    coarse = default_residual_grid(0, p)
    coarse = RadialGrid(coarse.rho_min, coarse.rho_max, coarse.n_points // 4)
    value, kind = ode_residual_diagnosis(0, p, coarse)
    assert kind == "fd-limited"


# -- quadrature-based orthogonality ---------------------------------------------

def test_orthogonality_matrix_structure():
    p = make_params((3, 1.0, 1, 0, 1.0), 2)
    gram = orthogonality_matrix(p, 5)
    assert gram.shape == (5, 5)
    assert np.allclose(np.diag(gram), 1.0, atol=1e-14)
    off = gram - np.eye(5)
    assert np.max(np.abs(off)) <= 1e-8


def test_orthogonality_matrix_reports_nonconvergence():
    from xtcs import QuadratureError
    from xtcs.quadrature import QuadratureSpec

    p = make_params((3, 2.0, 1, 1, 1.0), 2)  # tau = 12: heavy measure
    g_min = 2 * (2 * 4 + p.alpha + 1) + 20  # precondition minimum, tail too fat
    quad = QuadratureSpec(rho_max=float(np.sqrt(g_min / p.omega)), omega=p.omega,
                          n_panels=13)
    with pytest.raises(QuadratureError):
        orthogonality_matrix(p, 5, quad)


# -- consistency report ----------------------------------------------------------

def test_consistency_suite_passes_and_diagnoses():
    p = make_params((3, 1.5, 2, 0, 1.0), 1)
    report = consistency_suite(p)
    assert report.passed, report.to_text()
    assert report.metadata["r_denominator_resolved"] == "alpha-1"


def test_consistency_suite_any_m():
    report = consistency_suite(make_params((4, 0.5, 3, 0, 2.0), 3))
    assert report.passed


# -- csv rows ---------------------------------------------------------------------

def test_spectrum_csv_rows_schema():
    p = make_params((2, 1.0, 1, 0, 1.0), 1)
    rows = spectrum_csv_rows(p, 3, solver_grid(p, 3, FAST_POINTS))
    assert len(rows) == 3
    n, ea, ec, ee, rc, re = rows[0]
    assert n == 0 and ea == pytest.approx(2.0)
    assert rc <= 1e-6 and re <= 1e-6
