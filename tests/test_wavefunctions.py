"""Eigenfunctions, pair product, norms under the rho^tau measure, node counts."""

import dataclasses
import math

import numpy as np
import pytest

from xtcs import (Configuration, ModelParams, QuadratureError, ResolutionError,
                  ValidationError, count_nodes, jastrow, laguerre, manybody_groundstate, norm,
                  orthogonality_matrix, radial_eigenfunction, wavefunctions, xm_laguerre)
from xtcs.model import turning_point_g
from xtcs.quadrature import panel_nodes
from xtcs.solver import RadialGrid, wall_g

from conftest import BATTERY_BASE, M_VALUES, battery, make_params


def high_precision_phi(n, m, alpha, omega, rho):
    """50-digit recomputation of the extended radial eigenfunction."""
    from mpmath import binomial, exp, factorial, mp, mpf

    mp.dps = 50

    def lag(k, a, x):
        if k < 0:
            return mpf(0)
        return sum((-1) ** j * binomial(k + a, k - j) * x ** j / factorial(j)
                   for j in range(k + 1))

    a, w, r = mpf(str(alpha)), mpf(str(omega)), mpf(str(rho))
    g = w * r ** 2
    poly = lag(m, a, -g) * lag(n, a - 1, g) + lag(m, a - 1, -g) * lag(n - 1, a, g)
    return float(exp(-g / 2) * poly / lag(m, a - 1, -g))


def test_ground_state_conventional():
    p = ModelParams(2, 1.0, 1, 1.0)
    for rho in (0.0, 0.7, 2.0):
        assert radial_eigenfunction(0, p, rho) == pytest.approx(
            math.exp(-rho ** 2 / 2), rel=1e-15)


def test_m0_path_is_the_classical_expression():
    p = make_params((3, 1.5, 2, 0, 1.0), 0)
    rho = np.linspace(0.0, 6.0, 61)
    g = p.omega * rho ** 2
    for n in range(4):
        assert np.all(radial_eigenfunction(n, p, rho) == np.exp(-g / 2) * laguerre(n, p.alpha, g))


def test_x1_ground_state_value():
    # n = 0, m = 1, alpha = 1, omega = 1, rho = 1: |Phi| = e^{-1/2} (g+a+1)/(g+a)
    p = ModelParams(2, 1.0, 1, 1.0, ext_index=1)
    got = radial_eigenfunction(0, p, 1.0)
    assert abs(got) == pytest.approx(math.exp(-0.5) * 1.5, rel=1e-14)


def test_extended_value_against_high_precision():
    # n = 1, m = 2, alpha = 4, omega = 1, rho = 1.3
    p = ModelParams(4, 0.5, 3, 1.0, ext_index=2)
    want = high_precision_phi(1, 2, 4.0, 1.0, 1.3)
    assert want == pytest.approx(1.7557879576192834, rel=1e-15)
    assert radial_eigenfunction(1, p, 1.3) == pytest.approx(want, rel=1e-13)


def test_broken_denominator_variant_guarded():
    p = ModelParams(2, 1.0, 1, 1.0, ext_index=2)
    with pytest.raises(ValidationError):
        radial_eigenfunction(0, p, 1.0, x1_denominator="2g_plus_alpha")
    with pytest.raises(ValidationError):
        radial_eigenfunction(0, p, 1.0, x1_denominator="bogus")


def test_exponential_tail_decay():
    # |Phi_n| e^{+g/4} decreasing beyond the classical turning point
    for base in BATTERY_BASE:
        for m in (0, 2):
            p = make_params(base, m)
            for n in (0, 3):
                g_turn = 2 * n + p.alpha + 1
                rho = np.sqrt(np.linspace(2 * g_turn + 4, 4 * g_turn + 30, 80) / p.omega)
                damped = np.abs(radial_eigenfunction(n, p, rho)) * np.exp(p.omega * rho ** 2 / 4)
                assert np.all(np.diff(damped) < 0)


# -- pair product and composite ground state ----------------------------------

def test_jastrow_examples():
    assert jastrow(Configuration((0.0, 1.0)), ModelParams(2, 2.0, 1, 1.0)) == 1.0
    c = Configuration((-1.0, 0.0, 2.0))
    assert jastrow(c, ModelParams(3, 1.0, 1, 1.0)) == pytest.approx(2.0, rel=1e-15)
    assert jastrow(c, ModelParams(3, 1.0, 2, 1.0)) == pytest.approx(6.0, rel=1e-15)


def test_groundstate_composition():
    p = ModelParams(2, 1.0, 1, 1.0)
    c = Configuration((-0.5, 0.5))
    assert manybody_groundstate(c, p) == pytest.approx(math.exp(-0.25), rel=1e-14)


def test_groundstate_m_dependence_is_radial_only():
    c = Configuration((-0.6, 0.1, 0.9))
    p0 = ModelParams(3, 1.5, 2, 1.0, ext_index=0)
    p2 = dataclasses.replace(p0, ext_index=2)
    ratio = manybody_groundstate(c, p2) / manybody_groundstate(c, p0)
    want = radial_eigenfunction(0, p2, c.hyperradius) / radial_eigenfunction(0, p0, c.hyperradius)
    assert ratio == pytest.approx(want, rel=1e-14)


def test_groundstate_not_translation_invariant():
    p = ModelParams(2, 1.0, 1, 1.0)
    a = manybody_groundstate(Configuration((-0.5, 0.5)), p)
    b = manybody_groundstate(Configuration((0.5, 1.5)), p)
    assert a != b


def test_groundstate_requires_s0():
    p = make_params((3, 2.0, 1, 1, 1.0), 0)
    with pytest.raises(ValidationError):
        manybody_groundstate(Configuration((-1.0, 0.0, 1.0)), p)


# -- norms --------------------------------------------------------------------

def test_norm_closed_form():
    # m = 0, n = 0: Gamma(alpha+1) / (2 omega^(alpha+1))
    for base in BATTERY_BASE:
        p = make_params(base, 0)
        want = math.gamma(p.alpha + 1) / (2 * p.omega ** (p.alpha + 1))
        assert norm(0, p) == pytest.approx(want, rel=1e-13)


def split_panels(edges):
    """The same panels, each split in two at its midpoint in g = omega rho^2."""
    edges = np.asarray(edges, dtype=float)
    halves = np.empty(2 * len(edges) - 1)
    halves[::2] = edges
    halves[1::2] = np.sqrt((edges[:-1] ** 2 + edges[1:] ** 2) / 2)
    return halves


def test_norm_positive_and_panel_converged(monkeypatch):
    split = []

    def split_nodes(edges):
        split.append(len(edges))
        return panel_nodes(split_panels(edges))

    for base in BATTERY_BASE[:3]:
        for m in M_VALUES:
            p = make_params(base, m)
            val = norm(2, p)
            assert val > 0
            with monkeypatch.context() as patch:
                patch.setattr(wavefunctions, "panel_nodes", split_nodes)
                doubled = norm(2, p)
            assert abs(doubled - val) <= 1e-10 * val
    assert len(split) == 2 * 3 * len(M_VALUES)  # the Gram rule and the tail rule


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_norm_overflow_reported_as_non_positive():
    # tau = 1769: the norm is ~e^5141, which no float64 holds; the overflow is raised with
    # its log norm, not warned and not returned as inf or NaN
    p = ModelParams(30, 2.0, 29, 1.0, ext_index=1)
    with pytest.raises(QuadratureError, match=r"norm overflows float64: log \|norm\| = 5141\.0"):
        norm(4, p)
    # m = 0, n = 0, omega = 1: the log norm is log Gamma(alpha + 1) - log 2
    with pytest.raises(QuadratureError) as err:
        norm(0, dataclasses.replace(p, ext_index=0))
    log_norm = float(str(err.value).rsplit("= ", 1)[1])
    assert log_norm == pytest.approx(math.lgamma(p.alpha + 1) - math.log(2), rel=1e-13)


def test_norm_tail_error_reported(monkeypatch):
    # a wall only 20 past the turning point leaves too fat a tail at tau = 12
    monkeypatch.setattr(wavefunctions, "wall_g", lambda n, p: turning_point_g(n, p, 20))
    p = ModelParams(3, 2.0, 1, 1.0, degree=1)  # tau = 12: heavy measure growth
    with pytest.raises(QuadratureError, match="norm tail estimate"):
        norm(0, p)


def test_orthogonality_m0_classical():
    p = make_params((3, 1.0, 1, 0, 1.0), 0)
    gram = orthogonality_matrix(p, 5)
    assert np.max(np.abs(gram - np.eye(5))) <= 1e-8


# -- node counts ----------------------------------------------------------------

def test_ground_state_nodeless():
    assert count_nodes(0, ModelParams(2, 1.0, 1, 1.0)) == 0


def test_node_counts_match_level():
    for base in BATTERY_BASE:
        for m in M_VALUES:
            p = make_params(base, m)
            for n in range(5):
                assert count_nodes(n, p) == n


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m", (0, 2))
def test_node_counts_hold_at_large_alpha(m):
    # alpha ~ 2359: exp(-g/2) underflows over the whole oscillation region
    p = ModelParams(40, 3.0, 39, 1.0, ext_index=m)
    assert [count_nodes(n, p) for n in range(5)] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("grid, message", [
    (RadialGrid(0.5, 5.0, 10), "two sign changes within adjacent cells"),
    (RadialGrid(0.75, 5.0, 4), "sign changes on the grid but"),
])
def test_node_count_rejects_an_unresolved_grid(monkeypatch, grid, message):
    monkeypatch.setattr(wavefunctions, "default_node_grid", lambda n, p: grid)
    with pytest.raises(ResolutionError, match=message):
        count_nodes(4, ModelParams(2, 1.0, 1, 1.0))


def old_node_grid(n, p):
    """The node grid before it was sized from sqrt(omega) rho: >= 220 points per unit g."""
    g_max = 2 * (2 * n + p.alpha + 1) + 10
    n_points = max(2001, math.ceil(220 * g_max))
    return RadialGrid(math.sqrt(g_max / p.omega) / n_points, math.sqrt(g_max / p.omega), n_points)


def test_node_counts_match_the_old_dense_grid(monkeypatch):
    cases = [(n, dataclasses.replace(make_params(base, m), omega=omega))
             for base in BATTERY_BASE for m in (0, 1, 2, 3, 20, 60)
             for omega in (0.05, 1.0, 20.0) for n in range(5)]
    counts = [count_nodes(n, p) for n, p in cases]
    monkeypatch.setattr(wavefunctions, "default_node_grid", old_node_grid)
    assert counts == [count_nodes(n, p) for n, p in cases] == [n for n, _ in cases]


def test_suite_node_counts_match_the_per_level_counts():
    # levels 0-4 counted on the top level's grid, as the ortho suite does
    cases = [dataclasses.replace(make_params(base, m), omega=omega)
             for base in BATTERY_BASE for m in (0, 1, 2, 3, 20, 60)
             for omega in (0.05, 1.0, 20.0)]
    cases += [ModelParams(40, 3.0, 39, 1.0, ext_index=m) for m in (0, 2, 20)]
    for p in cases:
        assert wavefunctions._node_counts(range(5), p) == [count_nodes(n, p)
                                                            for n in range(5)]
        assert wavefunctions._node_counts([3], p) == [count_nodes(3, p)] == [3]


# -- log-domain Gram matrix -------------------------------------------------------

def full_panel_overlaps(p, k):
    """Normalized Gram matrix on an independent rule, all max(8, ceil(g_wall / 4)) panels of
    equal width in g on [0, g_wall = wall_g(k - 1)], rows built in the log domain and shifted
    by their peaks."""
    g_wall = wall_g(k - 1, p)
    rho, w = panel_nodes(np.sqrt(np.linspace(0.0, g_wall, max(8, math.ceil(g_wall / 4)) + 1)
                                 / p.omega))
    g = p.omega * rho ** 2
    log_den = np.log(laguerre(p.ext_index, p.alpha - 1, -g))
    rows = []
    for n in range(k):
        poly = xm_laguerre(n, p.ext_index, p.alpha, g)
        with np.errstate(divide="ignore"):
            log = np.log(np.abs(poly)) - g / 2 - log_den + 0.5 * p.tau * np.log(rho)
        rows.append(np.sign(poly) * np.exp(log - np.max(log) + 0.5 * np.log(w)))
    gram = np.array(rows) @ np.array(rows).T
    scale = np.sqrt(np.diag(gram))
    return gram / np.outer(scale, scale)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gram_matches_every_g_panel_reference():
    for p in battery() + [ModelParams(30, 2.0, 29, 1.0, ext_index=1)]:
        got = orthogonality_matrix(p, 5)
        assert np.max(np.abs(got - full_panel_overlaps(p, 5))) <= 1e-13


def test_gram_rule_is_equal_panels_in_trap_lengths(monkeypatch):
    # tau = 1769, omega = 0.05: 23 panels 2 trap lengths wide; the rule of panels 4 wide in g
    # integrated a hull of 273 of its 492 (17,472 nodes) after an edge pass over all of them
    p = ModelParams(30, 2.0, 29, 0.05, ext_index=1)
    rules = []
    monkeypatch.setattr(wavefunctions, "panel_nodes",
                        lambda edges: rules.append(np.asarray(edges)) or panel_nodes(edges))
    orthogonality_matrix(p, 5)
    s_wall = math.sqrt(wall_g(4, p))
    budget = 64 * max(8, math.ceil(s_wall / wavefunctions.PANEL_WIDTH)) + 128
    assert sum(64 * (len(edges) - 1) for edges in rules) <= budget
    rule, tail = (math.sqrt(p.omega) * edges for edges in rules)
    assert rule[0] == 0 and rule[-1] == pytest.approx(s_wall, rel=1e-14)
    assert np.allclose(np.diff(rule), rule[1], rtol=1e-12)
    assert tail ** 2 == pytest.approx(s_wall ** 2 * np.array([1.0, 1.25, 1.5]), rel=1e-14)
