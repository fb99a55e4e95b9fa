"""Finite-difference eigensolver and the verification reports built on it."""

import sys

import numpy as np
import pytest

from xtcs import (ModelParams, NonFiniteError, ValidationError, cli, consistency_suite,
                  convergence_orders, energy_level, isospectrality_check, numeric_spectrum,
                  ode_residual, orthogonality_matrix, residual_suite, solver, solver_grid,
                  spectrum_csv_rows, verify, wavefunctions)
from xtcs.model import turning_point_g, v_eff_radial, wall_g
from xtcs.quadrature import panel_nodes
from xtcs.laguerre import r_variant_battery
from xtcs.solver import (RadialGrid, hamiltonian_diagonals, lowest_eigenvalues, matrix_norm1,
                         richardson)

from conftest import BATTERY_BASE, battery, make_params

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FAST_POINTS = 6001  # sufficient for unit-level tolerances; acceptance uses the default


def test_grid_refinement_halves_spacing():
    # the Dirichlet pair: same outer radius, half the spacing, and the fine grid's odd nodes
    # are the coarse nodes, which the coarse matrix reads from the fine potential
    for p, k, n_points in ((ModelParams(2, 1.0, 1, 1.0), 3, 500),  # tau = 3
                           (ModelParams(8, 1.0, 1, 1.0, ext_index=1), 4, None),  # tau = 21
                           (ModelParams(3, 1.0, 1, 1e-12, ext_index=3), 12, 3001)):
        g = solver_grid(p, k, n_points)
        f = g.refined()
        assert f.radius == g.radius
        assert f.n_points == 2 * g.n_points + 1
        assert f.spacing == pytest.approx(g.spacing / 2, rel=1e-12)
        assert g.nodes[0] == g.spacing and g.nodes[-1] == pytest.approx(g.radius - g.spacing)
        assert np.max(np.abs(f.nodes[1::2] - g.nodes)) <= 4 * np.spacing(g.radius)


def test_hamiltonian_accepts_any_radial_grid():
    # the grid type guarantees the Dirichlet zero one spacing below its first node
    p = ModelParams(3, 1.0, 1, 1.0, ext_index=1)  # tau = 6
    grid = RadialGrid(2.5, 7)
    diag, off = hamiltonian_diagonals(p, grid, extended=True)
    h = 2.5 / 8
    nodes = h * np.arange(1, 8)
    np.testing.assert_allclose(diag, 1 / h ** 2 + v_eff_radial(nodes, p, extended=True),
                               rtol=1e-14)
    assert np.array_equal(off, np.full(6, -0.5 / h ** 2))


@pytest.mark.parametrize("radius, n_points", [(0.0, 5), (np.inf, 5), (1.0, 2), (1.0, 5.0)])
def test_radial_grid_rejects_a_bad_radius_or_size(radius, n_points):
    with pytest.raises(ValidationError, match="radius|n_points"):
        RadialGrid(radius, n_points)


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
    assert grid.nodes[-1] == pytest.approx(radius * n_points / (n_points + 1), rel=1e-14)
    assert grid.radius == pytest.approx(radius, rel=1e-14)
    explicit = solver_grid(p, k, n_points=3001)
    assert explicit.n_points == 3001
    assert explicit.radius == pytest.approx(radius, rel=1e-14)


def test_every_default_domain_ends_at_the_wall(monkeypatch, tmp_path, capsys):
    # tau = 21, k = 4 (the residual suite's levels): g_t = 34, where the WKB margin (48.5)
    # and the margins 10, 30 and 40 differ
    p = ModelParams(8, 1.0, 1, 1.0, ext_index=1)
    k = 4
    g_wall = wall_g(k - 1, p)
    assert g_wall == pytest.approx(34 + _wkb_margin(34), rel=1e-15)
    rules, grids = [], []
    monkeypatch.setattr(wavefunctions, "panel_nodes",
                        lambda edges: rules.append(edges) or panel_nodes(edges))
    residual_grid = verify.default_residual_grid
    monkeypatch.setattr(verify, "default_residual_grid",
                        lambda n, p: grids.append(residual_grid(n, p)) or grids[-1])
    orthogonality_matrix(p, k)
    tail_start = rules[-1][0]  # the tail rule starts at the wall of the quadrature
    grid = solver_grid(p, k)
    study = convergence_orders(p, k)
    residual_suite(p)
    suite_grid = grids[0]  # levels 0..3; the 2g+alpha control runs level 0 of m = 1
    ode_residual(k - 1, p)
    path = tmp_path / "cfg.json"
    path.write_text('{"N": 8, "lambda": 1, "r": 1, "omega": 1, "s": 0, "m": 1}')
    assert cli.main(["table", "--what", "potential", "--level", str(k - 1),
                     "--config", str(path)]) == 0
    table_rho_max = float(capsys.readouterr().out.splitlines()[-1].split(",")[0])
    for radius in (tail_start, grid.radius, study.spacings[0] * 80,
                   suite_grid[-1], grids[-1][-1], table_rho_max):
        assert p.omega * radius ** 2 == pytest.approx(g_wall, rel=1e-14)


def test_low_tau_rejected():
    # N=2, lambda=0.4, r=1, s=0: tau = 1 + 0.8 < 2
    p = ModelParams(2, 0.4, 1, 1.0)
    grid = solver_grid(p, 2, n_points=200)
    with pytest.raises(ValidationError, match="tau"):
        hamiltonian_diagonals(p, grid, extended=False)


def test_conventional_spectrum_reference_case():
    p = ModelParams(2, 1.0, 1, 1.0)  # alpha = 1: E = 2, 4, 6
    rep = numeric_spectrum(p, 3, FAST_POINTS)
    assert np.allclose([row.e_numeric for row in rep.rows], [2.0, 4.0, 6.0], rtol=1e-6)
    for row in rep.rows:
        assert row.rel_err <= 1e-6


def test_extended_spectrum_mixed_case():
    # alpha = 4, omega = 2: E = 10, 14
    p = make_params((4, 0.5, 3, 0, 2.0), 2)
    rep = numeric_spectrum(p, 2, FAST_POINTS, extended=True)
    assert np.allclose([row.e_numeric for row in rep.rows], [10.0, 14.0], rtol=1e-6)


def test_m0_extended_is_bitwise_conventional():
    p = make_params((3, 1.0, 1, 0, 1.0), 0)
    conv = numeric_spectrum(p, 3, FAST_POINTS, extended=False)
    ext = numeric_spectrum(p, 3, FAST_POINTS, extended=True)
    assert conv.raw_coarse == ext.raw_coarse
    assert conv.raw_fine == ext.raw_fine
    assert conv.rows == ext.rows


def test_isospectrality_battery_case():
    p = make_params((3, 1.5, 2, 0, 1.0), 3)
    report = isospectrality_check(p, 4)
    assert report.passed, report.to_text()
    for row_name in ("|E_ext(0) - E_conv(0)|", "|E_ext(3) - E_conv(3)|"):
        assert any(item.name == row_name for item in report.items)


def test_isospectrality_negative_control():
    # scaling the extension by 1.01 must break the degeneracy detectably
    p = make_params((3, 1.5, 2, 0, 1.0), 2)
    good = isospectrality_check(p, 3, FAST_POINTS)
    bad = isospectrality_check(p, 3, FAST_POINTS, v_new_scale=1.01)
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
    assert meta["spacing"] == grid.spacing
    assert meta["outer_radius"] == grid.radius
    assert meta["outer_margin_g"] == pytest.approx(_wkb_margin(24), rel=1e-12)  # tau = 11


def test_eigenvalue_count_below_mid_gap_matches_analytic_ladder():
    for base in BATTERY_BASE[:3]:
        p = make_params(base, 2)
        grid = solver_grid(p, 8)
        for ext in (False, True):
            levels, _, _ = lowest_eigenvalues(*hamiltonian_diagonals(p, grid, extended=ext), 8)
            for probe_level in (1, 3, 5):
                energy = energy_level(probe_level, p) - p.omega  # between levels
                analytic = sum(1 for n in range(8) if energy_level(n, p) < energy)
                assert np.count_nonzero(levels < energy) == analytic


# -- refined ladders ---------------------------------------------------------------

EPS = np.finfo(float).eps


def _four_matrices(p, k):
    grid = solver_grid(p, k)
    grids = (grid, grid.refined())
    return (tuple(hamiltonian_diagonals(p, g, False) for g in grids),
            tuple(hamiltonian_diagonals(p, g, True) for g in grids))


def test_refined_ladders_match_the_full_range_call_on_the_battery():
    for p in battery():
        grid = solver_grid(p, 4)
        for extended in (False, True):
            report = numeric_spectrum(p, 4, extended=extended)
            assert report.grid == grid
            assert report.solves == ("refined", "refined"), (p, extended)
            for g, values in zip((grid, grid.refined()), (report.raw_coarse, report.raw_fine)):
                # the matrix is in trap units: omega times its levels are the raw ladder
                matrix = hamiltonian_diagonals(p, g, extended)
                full, how, _ = lowest_eigenvalues(*matrix, 4)
                assert how == "full"
                assert (np.max(np.abs(np.array(values) - p.omega * full))
                        <= EPS * p.omega * matrix_norm1(*matrix)), p


def _fine_matrix_and_levels():
    p = ModelParams(3, 1.5, 2, 1.0)
    d, e = hamiltonian_diagonals(p, solver_grid(p, 4).refined(), False)
    return d, e, lowest_eigenvalues(d, e, 5)[0]


@pytest.mark.parametrize("case", ["right", "shifted up one level", "one level twice",
                                  "nan guess", "midway between levels", "wrong shape",
                                  "zero pivot"])
def test_refined_call_certifies_its_guesses_or_falls_back(case):
    d, e, levels = _fine_matrix_and_levels()
    guesses = levels[:4] + 1e-4 * np.min(np.diff(levels))
    if case == "shifted up one level":
        guesses = levels[1:5]  # every guess converges to a level, but the lowest is left out
    elif case == "one level twice":
        guesses[2] = guesses[1]
    elif case == "nan guess":
        guesses[1] = np.nan
    elif case == "midway between levels":
        guesses = (levels[:4] + levels[1:5]) / 2
    elif case == "wrong shape":
        guesses = guesses[:3]
    elif case == "zero pivot":  # dgtsv meets an exact zero pivot and reports info > 0
        d, e = np.arange(1.0, 7.0), np.zeros(5)
        guesses = d[:4].copy()
    full = lowest_eigenvalues(d, e, 4)[0]
    values, how, _ = lowest_eigenvalues(d, e, 4, guesses)
    if case == "right":
        assert how == "refined"
        assert np.max(np.abs(values - full)) <= EPS * matrix_norm1(d, e)
    else:
        assert how == "full"
        assert np.array_equal(values, full)


def test_refined_call_rejects_a_non_finite_matrix_like_the_full_call():
    d, e, levels = _fine_matrix_and_levels()
    d[7] = np.nan
    with pytest.raises(NonFiniteError, match="spectrum: the tridiagonal matrix is not finite"):
        lowest_eigenvalues(d, e, 4, levels[:4])
    with pytest.raises(NonFiniteError, match="spectrum: the tridiagonal matrix is not finite"):
        lowest_eigenvalues(d, e, 4)


@pytest.mark.parametrize("rows, k", [(5, 0), (5, 6), (1, 1)])
def test_eigenvalue_count_and_matrix_size_validated(rows, k):
    with pytest.raises(ValidationError, match=f"got k = {k} and dimension {rows}"):
        lowest_eigenvalues(np.ones(rows), np.zeros(rows - 1), k)


def test_full_call_rejects_a_stebz_failure():
    # finite, but the Gershgorin bounds overflow: stebz reports info = 4 and no levels
    d = np.array([1e308, -1e308, 1e308, -1e308, 1e308])
    with pytest.raises(NonFiniteError, match=r"spectrum: stebz returned info = 4 and 0 of 3"):
        lowest_eigenvalues(d, np.full(4, 1e308), 3, np.arange(3.0))


def test_full_call_is_bit_identical_to_scipy_on_the_battery():
    import scipy.linalg  # the reference; the solver loads only its _flapack extension

    for p in battery():
        for d, e in sum(_four_matrices(p, 4), ()):
            reference = scipy.linalg.eigvalsh_tridiagonal(
                d, e, select="i", select_range=(0, 3), lapack_driver="stebz")
            assert np.array_equal(lowest_eigenvalues(d, e, 4)[0], reference), p
    assert scipy.linalg.lapack.dstebz is solver._stebz()  # one extension, loaded once


def test_missing_lapack_extension_names_the_file(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(solver, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError, match=r"looked for \S+/linalg/_flapack\.missing$"):
        solver._stebz()


def test_m0_isospectrality_items_are_exactly_zero():
    for base in BATTERY_BASE:
        report = isospectrality_check(make_params(base, 0), 4)
        iso = [item.value for item in report.items if item.name.startswith("|E_ext")
               and "E_conv" in item.name]
        assert iso == [0.0] * 4
        assert report.metadata["extended"]["solves"] == {"coarse": "reused", "fine": "reused"}


@pytest.mark.parametrize("scale", [1.0, 1.01])  # 1.01: the control moves every level
def test_spectrum_report_records_how_each_ladder_was_solved(scale):
    p = ModelParams(8, 1.0, 1, 1.0, ext_index=1)  # tau = 21
    meta = isospectrality_check(p, 4, v_new_scale=scale).metadata
    assert meta["conventional"]["solves"] == {"coarse": "refined", "fine": "refined"}
    assert meta["extended"]["solves"] == {"coarse": "refined", "fine": "refined"}


# -- warm-started fine ladders -----------------------------------------------------

def _fine_ladder_solves(monkeypatch, p, k):
    """LAPACK dgtsv solves taken by the fine ladder of numeric_spectrum(p, k, extended=True)."""
    solver._stebz()
    flapack = sys.modules["scipy.linalg._flapack"]
    gtsv, solves, per_ladder = flapack.dgtsv, [0], []

    def counted(*args, **kwargs):
        solves[0] += 1
        return gtsv(*args, **kwargs)

    def ladder(*args):
        before = solves[0]
        found = lowest_eigenvalues(*args)
        per_ladder.append(solves[0] - before)
        return found

    with monkeypatch.context() as mp:
        mp.setattr(flapack, "dgtsv", counted)
        mp.setattr(solver, "lowest_eigenvalues", ladder)
        assert numeric_spectrum(p, k, extended=True).solves == ("refined", "refined")
    coarse, fine = per_ladder
    return fine


@pytest.mark.parametrize("m", [0, 1, 3])
def test_warm_fine_ladder_takes_at_most_one_solve_per_level_and_one_more(monkeypatch, m):
    # tau = 6, where a cold start takes 7 solves, and tau = 3, where stopping at 2 eps ||T||
    # instead of the certificate's 4 eps floor took 7-8
    for base in ((3, 1.0, 1, 0, 1.0), (2, 1.0, 1, 0, 1.0)):
        assert _fine_ladder_solves(monkeypatch, make_params(base, m), 4) <= 4 + 1, base


def test_warm_and_cold_fine_ladders_agree_on_the_battery(monkeypatch):
    for base in BATTERY_BASE:
        for m in (0, 1, 3, 20):
            p = make_params(base, m)
            warm = isospectrality_check(p, 4).metadata
            with monkeypatch.context() as mp:  # every fine ladder starts from ones
                mp.setattr(solver, "_prolonged", lambda vectors: None)
                cold = isospectrality_check(p, 4).metadata
            assert warm["tol_iso"] == cold["tol_iso"]
            for ladder in ("conventional", "extended"):
                shift = np.abs(np.subtract(warm[ladder]["raw_fine"], cold[ladder]["raw_fine"]))
                assert np.max(shift) <= 1e-3 * warm["tol_iso"], (p, ladder)


def test_fine_ladder_after_a_full_coarse_ladder_starts_cold_and_is_refined(monkeypatch):
    p = ModelParams(8, 1.0, 1, 1.0, ext_index=1)  # tau = 21
    reference = numeric_spectrum(p, 4, extended=True)
    calls = []

    def coarse_full(diag, off, k, guesses, *starts):  # the coarse call gets no guesses
        calls.append(starts)
        return lowest_eigenvalues(diag, off, k, guesses if len(calls) > 1 else None, *starts)

    monkeypatch.setattr(solver, "lowest_eigenvalues", coarse_full)
    report = numeric_spectrum(p, 4, extended=True)
    assert report.solves == ("full", "refined") and calls == [(), (None,)]
    tol = EPS * report.norm_fine
    assert np.max(np.abs(np.subtract(report.raw_fine, reference.raw_fine))) <= 4 * tol


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
def test_isospectrality_rejects_a_non_finite_scale(scale):
    for m in (0, 1):  # the m = 0 reuse of the conventional ladders must not skip the check
        with pytest.raises(ValidationError, match="v_new_scale must be finite"):
            isospectrality_check(ModelParams(3, 1.0, 1, 1.0, ext_index=m), 2, v_new_scale=scale)


def test_richardson_combination():
    assert richardson(1.0, 2.0) == pytest.approx((4 * 2.0 - 1.0) / 3)


def test_convergence_orders():
    p = make_params((3, 2.0, 1, 1, 1.0), 1)  # tau = 12: smooth origin behavior
    study = convergence_orders(p, k=3)
    assert abs(study.raw_slope - 2.0) <= 0.3
    assert abs(study.extrapolated_slope - 4.0) <= 0.3


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


def test_residual_is_at_rounding_level_on_any_grid(monkeypatch):
    # The jet derivatives carry no truncation error, so the residual does not depend on the
    # step: it sits at rounding level from h = 0.5 to 1e-3 (an FD stencil read 1.9e-11 at
    # h = 0.05 here, falling like h^8).
    for p in (ModelParams(3, 1.0, 1, 1.0), ModelParams(3, 1.0, 1, 1.0, ext_index=3)):
        for h in (0.5, 0.05, 1e-3):
            grid = np.linspace(1.0, 4.0, round(3.0 / h) + 1)
            monkeypatch.setattr(verify, "default_residual_grid", lambda n, p: grid)
            assert ode_residual(0, p) <= 1e-14, (p, h)


@pytest.mark.parametrize("omega", (1e-12, 1e-5, 1e-3, 1e4, 1e12))
def test_residual_grid_follows_the_trap_length(omega):
    # The grid is in trap lengths s = sqrt(omega) rho, one grid for every omega: it runs
    # from 0.05 in steps of 0.05 to the wall (40 past the turning point here), and the
    # residual, which is dimensionless, is the one of omega = 1 bit for bit.
    p = ModelParams(3, 1.0, 2, omega, ext_index=2)
    unit = ModelParams(3, 1.0, 2, 1.0, ext_index=2)
    grid = verify.default_residual_grid(0, p)
    assert np.array_equal(grid, verify.default_residual_grid(0, unit))
    step = (grid[-1] - grid[0]) / (len(grid) - 1)
    assert grid[0] == 0.05 and 0.049 < step <= 0.05
    np.testing.assert_allclose(np.diff(grid), step, rtol=1e-12)
    assert grid[-1] == pytest.approx(np.sqrt(turning_point_g(0, p) + 40), rel=1e-15)
    assert ode_residual(0, p) == ode_residual(0, unit) <= 1e-8


def test_suite_residuals_give_the_standalone_verdicts():
    # levels 0-3 on the grid of level 3, as the residual suite evaluates them, against
    # ode_residual on each level's own grid; every one passes, the tau < 4 configs at
    # m = 60 included (<= 4.9e-11)
    cases = battery() + [make_params(base, m) for base in BATTERY_BASE for m in (20, 60)]
    cases += [ModelParams(2, 0.6, 1, 0.05, ext_index=m) for m in (20, 60)]
    cases += [ModelParams(30, 2.0, 29, 1.0, ext_index=1)]
    for p in cases:
        grid, suite = verify._scaled_residuals(range(4), p)
        assert np.array_equal(grid, verify.default_residual_grid(3, p))
        standalone = [ode_residual(n, p) for n in range(4)]
        assert max(suite + standalone) <= 1e-8, p
        assert suite[3] == standalone[3]  # same grid, same code


# -- quadrature-based orthogonality ---------------------------------------------

def test_orthogonality_matrix_structure():
    p = make_params((3, 1.0, 1, 0, 1.0), 2)
    gram = orthogonality_matrix(p, 5)
    assert gram.shape == (5, 5)
    assert np.allclose(np.diag(gram), 1.0, atol=1e-14)
    off = gram - np.eye(5)
    assert np.max(np.abs(off)) <= 1e-8


def test_orthogonality_matrix_reports_nonconvergence(monkeypatch):
    from xtcs import QuadratureError

    # a wall 20 past the top turning point (13 panels at tau = 12) leaves too fat a tail
    monkeypatch.setattr(wavefunctions, "wall_g", lambda n, p: turning_point_g(n, p) + 20)
    p = make_params((3, 2.0, 1, 1, 1.0), 2)  # tau = 12: heavy measure
    with pytest.raises(QuadratureError, match="norm tail estimate"):
        orthogonality_matrix(p, 5)


# -- consistency report ----------------------------------------------------------

def test_consistency_suite_passes_and_diagnoses():
    p = make_params((3, 1.5, 2, 0, 1.0), 1)
    report = consistency_suite(p)
    assert report.passed, report.to_text()
    assert report.metadata["r_denominator_resolved"] == "alpha-1"


def test_consistency_suite_rejects_the_r_variant_on_the_probe_battery():
    # tau = 407, alpha = 203: at this alpha the rejected variant reads 4.2e-4, under its gate
    report = consistency_suite(ModelParams(12, 3.0, 11, 1.0, ext_index=1))
    assert report.passed, report.to_text()
    assert report.metadata["r_denominator_resolved"] == "alpha-1"
    rejected = next(item for item in report.items if item.comparison == ">=")
    assert rejected.value == r_variant_battery()["alpha"] > 0.4


def test_consistency_suite_any_m():
    report = consistency_suite(make_params((4, 0.5, 3, 0, 2.0), 3))
    assert report.passed


# -- csv rows ---------------------------------------------------------------------

def test_spectrum_csv_rows_schema():
    p = make_params((2, 1.0, 1, 0, 1.0), 1)
    rows = spectrum_csv_rows(p, 3, FAST_POINTS)
    assert len(rows) == 3
    n, ea, ec, ee, rc, re = rows[0]
    assert n == 0 and ea == pytest.approx(2.0)
    assert rc <= 1e-6 and re <= 1e-6
