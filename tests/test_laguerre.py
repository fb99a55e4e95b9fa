"""Polynomial layer: recurrence vs an independent series oracle, derivative
identities, exceptional-family identities, and the ODE-coefficient diagnosis."""

import numpy as np
import pytest

from xtcs import (ValidationError, laguerre, laguerre_derivative, ode_coefficients,
                  resolve_r_denominator, x1_laguerre, xm_denominator, xm_laguerre,
                  xm_ode_residual)
from xtcs.laguerre import Jet, _lag, _lag_pair, _lag_rows, _xm_rows, r_variant_residuals

from conftest import battery


def series_laguerre(n, alpha, x):
    """Independent oracle: the explicit series in 50-digit arithmetic.

    L_n^(a)(x) = sum_k (-1)^k C(n+a, n-k) x^k / k!
    """
    from mpmath import binomial, factorial, mp, mpf

    mp.dps = 50
    if n < 0:
        return 0.0
    a, xx = mpf(str(alpha)), mpf(repr(x))
    total = sum((-1) ** k * binomial(n + a, n - k) * xx ** k / factorial(k)
                for k in range(n + 1))
    return float(total)


# -- classical polynomials ---------------------------------------------------

def loop_laguerre(n, alpha, x):
    """Reference: the upward recurrence as a plain loop, one degree per call."""
    x = np.asarray(x, dtype=float)
    if n < 1:
        return np.full_like(x, float(n == 0))
    prev, cur = 1.0, 1 + alpha - x
    for k in range(1, n):
        cur, prev = ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1), cur
    return cur


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5, 884.0])
def test_rows_form_is_the_recurrence_bit_for_bit(alpha):
    x = np.concatenate((-np.geomspace(1e-3, 3e3, 40), [0.0], np.geomspace(1e-3, 3e3, 40)))
    rows = list(_lag_rows(40, alpha, x))
    assert len(rows) == 41
    for j, row in enumerate(rows):
        assert np.array_equal(row, loop_laguerre(j, alpha, x), equal_nan=True)
        assert np.array_equal(row, _lag(j, alpha, x), equal_nan=True)
        below, last = _lag_pair(j, alpha, x)  # L_0 may come back as the scalar 1.0
        assert np.array_equal(np.broadcast_to(below, x.shape), rows[j - 1] if j else 0 * x)
        assert np.array_equal(last, row)
    assert list(_lag_rows(-1, alpha, x)) == []
    assert np.array_equal(_lag(-1, alpha, x), np.zeros_like(x))


@pytest.mark.parametrize("m", [0, 1, 3, 20])
def test_xm_rows_are_xm_laguerre_bit_for_bit(m):
    g = np.linspace(0.0, 60.0, 301)
    den, rows = _xm_rows([0, 2, 3, 7], m, 2.5, g)
    assert np.array_equal(den, xm_denominator(m, 2.5, g))
    for n, row in zip([0, 2, 3, 7], rows):
        assert np.array_equal(row, xm_laguerre(n, m, 2.5, g))



def test_degree_zero_is_one():
    assert laguerre(0, 3.7, 5.2) == 1.0


def test_degree_one_explicit():
    # L_1^(a)(x) = 1 + a - x
    assert laguerre(1, 2.0, 1.0) == pytest.approx(2.0, rel=1e-15)
    assert laguerre(1, 0.0, -1.0) == pytest.approx(2.0, rel=1e-15)


def test_degree_two_value():
    # 1 - 2x + x^2/2 at x = 2
    assert laguerre(2, 0.0, 2.0) == pytest.approx(-1.0, rel=1e-15)


def test_degree_minus_one_is_zero():
    assert laguerre(-1, 1.0, 0.3) == 0.0
    with pytest.raises(ValidationError):
        laguerre(-2, 1.0, 0.3)


def test_recurrence_matches_series():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        n = int(rng.integers(0, 9))
        alpha = float(rng.uniform(-0.9, 6.0))
        x = float(rng.uniform(-10.0, 10.0))
        got = laguerre(n, alpha, x)
        want = series_laguerre(n, alpha, x)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_vectorized_matches_scalar():
    xs = np.linspace(-5, 5, 11)
    vec = laguerre(4, 1.5, xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert laguerre(4, 1.5, float(x)) == v


def test_nonfinite_argument_rejected():
    with pytest.raises(ValidationError):
        laguerre(2, 1.0, np.nan)
    with pytest.raises(ValidationError):
        laguerre(2, 1.0, np.inf)


def test_derivative_trivial_and_linear():
    assert laguerre_derivative(0, 2.3, 1.7) == 0.0
    assert laguerre_derivative(1, 2.0, 1.0) == pytest.approx(-1.0, rel=1e-15)
    # d/dx (1 - 2x + x^2/2) = -2 + x, zero at x = 2
    assert laguerre_derivative(2, 0.0, 2.0) == pytest.approx(0.0, abs=1e-15)


def test_derivative_matches_central_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(60):
        n = int(rng.integers(1, 8))
        alpha = float(rng.uniform(-0.5, 5.0))
        x = float(rng.uniform(-8.0, 8.0))
        fd = (laguerre(n, alpha, x + h) - laguerre(n, alpha, x - h)) / (2 * h)
        exact = laguerre_derivative(n, alpha, x)
        assert exact == pytest.approx(fd, rel=1e-6, abs=1e-8)


# -- second-order jets -------------------------------------------------------

def unit_jet(x):
    """The jet of the variable itself: (x, 1, 0)."""
    return Jet(x, np.ones_like(x), np.zeros_like(x))


def assert_close_to_scale(got, want, rtol=1e-13):
    """|got - want| <= rtol max|want|: pointwise relative error is meaningless at a zero."""
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("a", [0.3, 1.0, 4.0, 885.0])
def test_jet_derivatives_of_the_recurrence_match_the_derivative_identity(a):
    # the recurrence run on a jet against d/dx L_n^(a) = -L_{n-1}^(a+1), applied once and
    # twice; its value part is the float recurrence bit for bit
    x = np.concatenate((-np.geomspace(1e-2, 50.0, 25), np.geomspace(1e-2, 50.0, 25)))
    for n in range(1, 11):
        jet = _lag(n, a, unit_jet(x))
        assert np.array_equal(jet.f, _lag(n, a, x))
        assert_close_to_scale(jet.d1, laguerre_derivative(n, a, x))
        assert_close_to_scale(jet.d2, -laguerre_derivative(n - 1, a + 1, x))


def classical_jet(n, a, x):
    """L_n^(a)(x) and its first two derivatives in x from the public value and derivative,
    d^2/dx^2 L_n^(a) = -d/dx L_{n-1}^(a+1); zero below degree 0."""
    if n < 0:
        return 0 * x, 0 * x, 0 * x
    return laguerre(n, a, x), laguerre_derivative(n, a, x), -laguerre_derivative(n - 1, a + 1, x)


@pytest.mark.parametrize("a", [0.3, 1.0, 4.0, 885.0])
def test_jet_derivatives_of_xm_rows_match_the_product_rule(a):
    # the Xm rows run on a jet against the product rule on the classical representation
    # L_m^(a)(-g) L_n^(a-1)(g) + L_m^(a-1)(-g) L_{n-1}^(a)(g); the chain rule flips the sign
    # of each first derivative at -g
    g = np.geomspace(1e-2, 50.0, 30)
    for m in (1, 2, 5):
        (A, dA, d2A), (C, dC, d2C) = classical_jet(m, a, -g), classical_jet(m, a - 1, -g)
        for n, row in enumerate(_xm_rows(list(range(11)), m, a, unit_jet(g))[1]):
            (B, dB, d2B), (D, dD, d2D) = classical_jet(n, a - 1, g), classical_jet(n - 1, a, g)
            assert np.array_equal(row.f, xm_laguerre(n, m, a, g))
            assert_close_to_scale(row.d1, -dA * B + A * dB - dC * D + C * dD)
            assert_close_to_scale(row.d2, d2A * B - 2 * dA * dB + A * d2B
                                  + d2C * D - 2 * dC * dD + C * d2D)


def test_jet_rules():
    # exp, log, powers, quotients and numpy operands on the left, against closed forms
    x = np.linspace(0.5, 3.0, 7)
    j = unit_jet(x)
    for got, want in ((np.exp(-j / 2), (np.exp(-x / 2), -np.exp(-x / 2) / 2, np.exp(-x / 2) / 4)),
                      (np.log(j * j), (np.log(x * x), 2 / x, -2 / x ** 2)),
                      (j ** 3 / (1 + j), (x ** 3 / (1 + x), (2 * x ** 3 + 3 * x ** 2) / (1 + x) ** 2,
                                          (2 * x ** 3 + 6 * x ** 2 + 6 * x) / (1 + x) ** 3)),
                      (np.float64(2.0) - x * j, (2 - x * x, -x, 0 * x))):
        for part, ref in zip((got.f, got.d1, got.d2), want):
            np.testing.assert_allclose(part, ref, rtol=1e-14, atol=0)


# -- X1 family ---------------------------------------------------------------

def test_x1_lowest_degree():
    # degree 1: -(g + a + 1)
    assert x1_laguerre(1, 1.0, 1.0) == pytest.approx(-3.0, rel=1e-15)
    for alpha in (0.5, 1.0, 4.0):
        assert x1_laguerre(1, alpha, 0.0) == pytest.approx(-(alpha + 1), rel=1e-15)


def test_x1_degree_zero_rejected():
    with pytest.raises(ValidationError):
        x1_laguerre(0, 1.0, 1.0)


def test_x1_equals_minus_xm_at_m1():
    # cross-family identity at m = 1, on a grid, relative to the grid scale
    g = np.linspace(0.0, 30.0, 301)
    for alpha in (0.5, 1.0, 2.5):
        for n in range(7):
            a_vals = xm_laguerre(n, 1, alpha, g)
            b_vals = -x1_laguerre(n + 1, alpha, g)
            scale = np.max(np.abs(a_vals))
            assert np.max(np.abs(a_vals - b_vals)) <= 1e-12 * scale


# -- Xm family ---------------------------------------------------------------

def test_xm_reduces_to_classical_at_m0():
    g = np.linspace(0.0, 30.0, 301)
    for alpha in (0.5, 1.0, 2.5, 5.5):
        for n in range(7):
            got = xm_laguerre(n, 0, alpha, g)
            want = laguerre(n, alpha, g)
            scale = max(np.max(np.abs(want)), 1.0)
            assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_xm_second_term_vanishes_at_n0():
    # n = 0 leaves only L_m^(a)(-g): frozen oracle L_2^(1.5)(-0.7) = 7.07
    got = xm_laguerre(0, 2, 1.5, 0.7)
    assert got == pytest.approx(7.07, rel=1e-15)
    assert got == pytest.approx(series_laguerre(2, 1.5, -0.7), rel=1e-13)


def test_xm_denominator_values():
    assert xm_denominator(0, 1.3, 9.0) == 1.0
    assert xm_denominator(1, 1.0, 1.0) == pytest.approx(2.0, rel=1e-15)
    # L_m^(b)(0) = C(m + b, m); m = 2, alpha = 2 -> C(3, 2) = 3
    assert xm_denominator(2, 2.0, 0.0) == pytest.approx(3.0, rel=1e-15)


def test_xm_denominator_positive_over_domain():
    g = np.linspace(0.0, 50.0, 501)
    for m in range(7):
        for alpha in (0.5, 1.0, 2.5, 7.0):
            vals = np.atleast_1d(xm_denominator(m, alpha, g))
            assert np.all(vals > 0)


def test_xm_denominator_rejects_nonpositive_alpha():
    with pytest.raises(ValidationError):
        xm_denominator(2, 0.0, 1.0)
    with pytest.raises(ValidationError):
        xm_denominator(2, -0.5, 1.0)


# -- differential-equation coefficients --------------------------------------

def test_q_vanishes_at_g_equals_alpha():
    # m = 1: Q = -(g - a)(g + a + 1)/(g (g + a)) has a zero at g = a
    for alpha in (1.0, 2.0):
        assert ode_coefficients(1, alpha, alpha).q == pytest.approx(0.0, abs=1e-14)


def test_coefficients_match_high_precision_values():
    # m = 2, alpha = 1.5, g = 0.5: exact rationals from the closed forms
    c = ode_coefficients(2, 1.5, 0.5)
    assert c.q == pytest.approx(28.0 / 13.0, rel=1e-14)
    assert c.r_linear_shifted == pytest.approx(-72.0 / 13.0, rel=1e-14)
    assert c.r_linear == pytest.approx(-2.88, rel=1e-14)


def test_coefficients_reject_g_zero():
    with pytest.raises(ValidationError):
        ode_coefficients(1, 1.0, 0.0)


def test_resolved_variant_annihilates_closed_form():
    assert resolve_r_denominator() == "alpha-1"
    for n in range(5):
        for m in (1, 2, 3):
            for alpha in (1.0, 2.5, 5.5):
                for g in (0.4, 1.7, 6.3, 14.0):
                    scale = max(1.0, abs(xm_laguerre(n, m, alpha, g))) * (n + m + alpha + g)
                    good = xm_ode_residual(n, m, alpha, g, r_denominator="alpha-1")
                    assert abs(good) <= 1e-9 * scale


def test_unshifted_variant_fails():
    bad = xm_ode_residual(1, 1, 1.0, 2.0, r_denominator="alpha")
    assert abs(bad) > 1e-2


def per_probe_r_variant_residuals(probes):
    """Reference: the worst scaled residual of each R variant, one scalar probe at a time."""
    worst = {"alpha-1": 0.0, "alpha": 0.0}
    for n, m, a, g in probes:
        scale = max(1.0, abs(xm_laguerre(n, m, a, g))) * (n + m + a + g)
        for variant in worst:
            res = abs(xm_ode_residual(n, m, a, g, r_denominator=variant))
            worst[variant] = max(worst[variant], res / scale)
    return worst


def test_batched_r_variants_match_per_probe_reference():
    assert resolve_r_denominator() == "alpha-1"
    alphas = sorted({p.alpha for p in battery()} | {884.0})  # 884: tau = 1769
    for a in alphas:
        gs = (0.5, 2.0, a + 1.0, 11.3)
        probes = [(n, m, a, g) for n in range(4) for m in (1, 2, 3) for g in gs]
        # one jet pass per (m, alpha) over all levels gives the per-probe values bit for bit
        assert (r_variant_residuals(range(4), (1, 2, 3), (a,), gs)
                == per_probe_r_variant_residuals(probes))


def test_residual_and_coefficients_take_arrays():
    g = np.array([0.4, 1.7, 6.3])
    res = xm_ode_residual(2, 3, 2.5, g, r_denominator="alpha")
    assert res.shape == (3,)
    assert list(res) == [xm_ode_residual(2, 3, 2.5, x, r_denominator="alpha") for x in g]
    assert isinstance(xm_ode_residual(2, 3, 2.5, 1.7), float)
    c = ode_coefficients(2, 1.5, np.array([0.5, 0.5]))
    assert np.all(c.q == ode_coefficients(2, 1.5, 0.5).q)
