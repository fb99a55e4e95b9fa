"""Polynomial layer: recurrence vs an independent series oracle, derivative
identities, exceptional-family identities, and the ODE-coefficient diagnosis."""

import numpy as np
import pytest

from xtcs import (ValidationError, laguerre, laguerre_derivative, ode_coefficients,
                  resolve_r_denominator, x1_laguerre, xm_denominator, xm_laguerre,
                  xm_ode_residual)


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
