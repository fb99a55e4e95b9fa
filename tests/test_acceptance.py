"""Acceptance battery: one test per criterion, one printed line per criterion.

Battery B: (N, lambda, r, s, omega) in {(2,1,1,0,1), (3,1,1,0,1), (3,1.5,2,0,1),
(4,0.5,3,0,2), (3,2,1,1,1)} crossed with m in {0,1,2,3}.

Run with `pytest -s tests/test_acceptance.py` to see the pass/fail lines.
"""

import dataclasses
import time

import numpy as np

from xtcs import (consistency_suite, constancy_scan, convergence_orders, count_nodes,
                  energy_level, laguerre, numeric_spectrum, ode_residual,
                  orthogonality_matrix, v_new, x1_laguerre,
                  xm_denominator, xm_laguerre)

from conftest import BATTERY_BASE, M_VALUES, battery, make_params


def _line(num, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}{'  ' + extra if extra else ''}")
    assert ok, f"criterion {num} ({name}) failed {extra}"


def test_criterion_1_isospectrality():
    t0 = time.time()
    worst_rel = 0.0
    worst_iso_rel = 0.0
    for p in battery():
        assert p.tau > 2
        conv = numeric_spectrum(p, 4, extended=False)
        ext = numeric_spectrum(p, 4, extended=True)
        for n in range(4):
            e_ref = energy_level(n, p)
            worst_rel = max(worst_rel, conv.rows[n].rel_err, ext.rows[n].rel_err)
            worst_iso_rel = max(worst_iso_rel, abs(
                ext.rows[n].e_numeric - conv.rows[n].e_numeric) / e_ref)
    elapsed = time.time() - t0
    ok = worst_rel <= 1e-6 and worst_iso_rel <= 1e-6
    _line(1, "isospectrality", ok,
          f"worst rel err {worst_rel:.2e}, worst ext-conv rel diff {worst_iso_rel:.2e}, "
          f"{elapsed:.1f}s")


def test_criterion_2_eigenfunction_residuals():
    worst = 0.0
    for p in battery():
        for n in range(4):
            worst = max(worst, ode_residual(n, p))
    # the inviting m=1 denominator variant must fail for every base family
    worst_broken = np.inf
    for base in BATTERY_BASE:
        p1 = make_params(base, 1)
        worst_broken = min(worst_broken, ode_residual(0, p1, x1_denominator="2g_plus_alpha"))
    ok = worst <= 1e-8 and worst_broken > 1e-2
    _line(2, "closed-form residuals", ok,
          f"worst corrected {worst:.2e} (<=1e-8), worst broken-denominator {worst_broken:.2e} (>1e-2)")


def test_criterion_3_formula_cross_consistency():
    ok = True
    detail = []
    for base in BATTERY_BASE:
        p = make_params(base, 1)
        report = consistency_suite(p)
        items = {i.name: i for i in report.items}
        general = items["m=1 extension: general form vs two-term form (max rel diff)"]
        consts = items["m=1 extension: constants form vs two-term form (max rel diff)"]
        vanish = items["m=0 extension vanishes (max |v_new|)"]
        ok &= general.passed and consts.passed and vanish.passed
        detail.append(max(general.value, consts.value))
    _line(3, "formula cross-consistency", ok, f"worst rel diff {max(detail):.2e} (<=1e-12)")


def test_criterion_4_polynomial_identities():
    g = np.linspace(0.0, 30.0, 301)
    worst = 0.0
    for alpha in (0.5, 1.0, 2.5, 4.0, 5.5):
        for n in range(7):
            classical = laguerre(n, alpha, g)
            scale = max(1.0, np.max(np.abs(classical)))
            worst = max(worst, np.max(np.abs(xm_laguerre(n, 0, alpha, g) - classical)) / scale)
            x1 = -x1_laguerre(n + 1, alpha, g)
            scale1 = max(1.0, np.max(np.abs(x1)))
            worst = max(worst, np.max(np.abs(xm_laguerre(n, 1, alpha, g) - x1)) / scale1)
    positive = all(
        np.all(np.atleast_1d(xm_denominator(m, alpha, np.linspace(0, 50, 501))) > 0)
        for m in range(7) for alpha in (0.5, 1.0, 2.5, 7.0))
    ok = worst <= 1e-12 and positive
    _line(4, "polynomial identities", ok,
          f"worst identity deviation {worst:.2e} (<=1e-12), denominators positive: {positive}")


def test_criterion_5_orthogonality():
    worst = 0.0
    for p in battery():
        gram = orthogonality_matrix(p, 5)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(5)))))
    ok = worst <= 1e-8
    _line(5, "orthogonality", ok, f"worst off-diagonal {worst:.2e} (<=1e-8)")


def test_criterion_6_node_counts():
    ok = True
    for p in battery():
        for n in range(5):
            if count_nodes(n, p) != n:
                ok = False
    _line(6, "node counts", ok)


def test_criterion_7_local_energy():
    t0 = time.time()
    worst_spread = 0.0
    worst_mean = 0.0
    for base in BATTERY_BASE:
        if base[3] != 0:
            continue  # s = 0 sector only
        for m in M_VALUES:
            p = make_params(base, m)
            stats = constancy_scan(p, n_samples=200, seed=1)
            worst_spread = max(worst_spread, stats.relative_spread)
            worst_mean = max(worst_mean, stats.relative_mean_error)
    # negative controls on a representative case
    p = make_params((3, 1.0, 1, 0, 1.0), 2)
    wrong_psi = constancy_scan(p, n_samples=60, seed=1,
                               wavefunction_params=dataclasses.replace(p, coupling=1.1))
    wrong_pot = constancy_scan(p, n_samples=60, seed=1, v_new_scale=1.01)
    elapsed = time.time() - t0
    ok = (worst_spread <= 1e-5 and worst_mean <= 1e-5
          and not wrong_psi.passed() and not wrong_pot.passed())
    _line(7, "many-body local energy", ok,
          f"worst spread {worst_spread:.2e}, worst mean err {worst_mean:.2e}, "
          f"controls fail: {not wrong_psi.passed()}/{not wrong_pot.passed()}, {elapsed:.1f}s")


def test_criterion_8_limit_reductions():
    ok = True
    # pair-count identities at the two limits
    for base in BATTERY_BASE:
        n, lam, r, s, w = base
        p = make_params(base, 0)
        if r == 1:
            ok &= p.pair_count == n - 1
        if r == n - 1:
            ok &= p.pair_count == n * (n - 1) // 2
    # the battery must actually contain both limits (criteria 1-7 then cover them)
    ok &= any(b[2] == 1 for b in BATTERY_BASE)
    ok &= any(b[2] == b[0] - 1 for b in BATTERY_BASE)
    # m = 0 path bit-identical to the conventional one
    for base in BATTERY_BASE[:3]:
        p = make_params(base, 0)
        conv = numeric_spectrum(p, 3, 4001, extended=False)
        ext = numeric_spectrum(p, 3, 4001, extended=True)
        ok &= conv.raw_coarse == ext.raw_coarse and conv.raw_fine == ext.raw_fine
        rho = np.linspace(0.0, 5.0, 51)
        ok &= bool(np.all(v_new(rho, p) == 0.0))
    _line(8, "limit reductions", ok)


def test_criterion_9_convergence_orders():
    p = make_params((3, 2.0, 1, 1, 1.0), 1)  # tau = 12: smooth near the origin
    study = convergence_orders(p, k=3)
    ok = abs(study.raw_slope - 2.0) <= 0.3 and abs(study.extrapolated_slope - 4.0) <= 0.3
    _line(9, "convergence orders", ok,
          f"raw slope {study.raw_slope:.3f} (2±0.3), "
          f"extrapolated slope {study.extrapolated_slope:.3f} (4±0.3)")
