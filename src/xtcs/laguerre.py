"""Classical and exceptional generalized Laguerre polynomials.

Classical polynomials L_n^(a) are evaluated by the upward three-term
recurrence

    (k+1) L_{k+1}^(a)(x) = (2k+1+a-x) L_k^(a)(x) - (k+a) L_{k-1}^(a)(x),

which is exact for polynomials up to rounding.  At negative argument all
recurrence contributions carry the same sign, so the same loop is safe
there without any cancellation mitigation.  The convention L_{-1} = 0 is
adopted globally; it is forced by the boundary indices of the exceptional
families below.

The exceptional (X1 / Xm) Laguerre polynomials are *defined* here through
their classical representations,

    X1:  Lhat_{n+1}^(a)(g) = -(g+a+1) L_n^(a)(g) + L_{n-1}^(a)(g),
    Xm:  Lhat_{n+m}^(a)(g) = L_m^(a)(-g) L_n^(a-1)(g)
                             + L_m^(a-1)(-g) L_{n-1}^(a)(g),

never through their differential equation.  The rational-coefficient
second-order equation they satisfy,

    g y'' + g Q_m(g) y' + g R_m(g) y = 0,

is kept only as a residual diagnostic: the zero-order coefficient R_m
admits two superficially similar forms whose denominators differ by a
unit shift of the parameter, and only one of them annihilates the closed
forms above.  `resolve_r_denominator` settles this numerically instead of
assuming either form; see `ode_coefficients`.

All functions are pure and accept scalar or ndarray arguments where noted;
they are safe to call concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError

__all__ = [
    "laguerre",
    "laguerre_derivative",
    "x1_laguerre",
    "xm_laguerre",
    "xm_denominator",
    "OdeCoefficients",
    "ode_coefficients",
    "xm_ode_residual",
    "r_variant_residuals",
    "resolve_r_denominator",
    "r_variant_battery",
]


def _check_index(name, value, minimum):
    if not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _check_argument(name, x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    return arr


def _check_alpha_g(alpha, g):
    if alpha <= 0:
        raise ValidationError(f"alpha must be > 0, got {alpha}")
    ga = _check_argument("g", g)
    if np.any(ga < 0):
        raise ValidationError("g must be >= 0")
    return ga


def _maybe_scalar(arr, like):
    return float(arr) if np.isscalar(like) or np.ndim(like) == 0 else arr


def _lag_step(k, alpha, x, cur, prev):
    """L_{k+1}^(alpha)(x) from cur = L_k and prev = L_{k-1}: the one recurrence step."""
    return ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)


def _lag_rows(n, alpha, x):
    """Yield L_0^(alpha)(x), ..., L_n^(alpha)(x) from one pass of the recurrence (nothing for
    n < 0); row j is `_lag`(j, alpha, x) bit for bit, no validation."""
    x = np.asarray(x, dtype=float)
    if n < 0:
        return
    yield np.ones(x.shape)
    if n < 1:
        return
    prev, cur = 1.0, 1 + alpha - x  # the k = 0 step
    yield cur
    for k in range(1, n):
        cur, prev = _lag_step(k, alpha, x, cur, prev), cur
        yield cur


def _lag_pair(n, alpha, x):
    """(L_{n-1}, L_n)^(alpha)(x) by the steps of `_lag_rows`, without its generator and ones
    array (2-5 us a call, several per cent of a local-energy scan); degrees below 0 are
    zero, and L_0 is the scalar 1.0 at n = 1."""
    x = np.asarray(x, dtype=float)
    if n < 1:
        zero = np.zeros(x.shape)
        return zero, np.ones(x.shape) if n == 0 else zero
    prev, cur = 1.0, 1 + alpha - x  # the k = 0 step
    for k in range(1, n):
        cur, prev = _lag_step(k, alpha, x, cur, prev), cur
    return prev, cur


def _lag(n, alpha, x):
    """L_n^(alpha)(x), the last row of `_lag_rows`; zero polynomial for any n < 0."""
    return _lag_pair(n, alpha, x)[1]


def _xm_rows(levels, m, alpha, g):
    """L_m^(alpha-1)(-g) and an iterator over Lhat_{n+m}^(alpha)(g) for n in levels (ascending).

    L_m^(alpha)(-g) and the denominator L_m^(alpha-1)(-g) (`xm_denominator`, which validates
    alpha and g) are evaluated once; the factors L_n^(alpha-1)(g) and L_{n-1}^(alpha)(g) of
    every level come from one `_lag_rows` pass each, so each row is `xm_laguerre`'s
    arithmetic bit for bit.  Rows are made one at a time."""
    den = np.asarray(xm_denominator(m, alpha, g))
    g = np.asarray(g, dtype=float)
    lm = _lag(m, alpha, -g)
    wanted, top = set(levels), max(levels)

    def rows():
        shifted = itertools.chain([np.zeros_like(g)], _lag_rows(top - 1, alpha, g))
        for n, (b, d) in enumerate(zip(_lag_rows(top, alpha - 1, g), shifted)):
            if n in wanted:
                yield lm * b + den * d
    return den, rows()


def laguerre(n, alpha, x):
    """Generalized Laguerre polynomial L_n^(alpha)(x).

    n = -1 returns the zero polynomial by convention.  x may be any finite
    real (negative arguments are needed by the exceptional families) and may
    be an ndarray.
    """
    n = _check_index("n", n, -1)
    xa = _check_argument("x", x)
    return _maybe_scalar(_lag(n, float(alpha), xa), x)


def laguerre_derivative(n, alpha, x):
    """d/dx L_n^(alpha)(x), via d/dx L_n^(a) = -L_{n-1}^(a+1)."""
    n = _check_index("n", n, -1)
    xa = _check_argument("x", x)
    return _maybe_scalar(-_lag(n - 1, float(alpha) + 1.0, xa), x)


def x1_laguerre(n_hat, alpha, g):
    """X1 exceptional Laguerre polynomial Lhat_{n_hat}^(alpha)(g), n_hat >= 1.

    The family starts at degree 1; n_hat = n + 1 with n >= 0.
    """
    n_hat = _check_index("n_hat", n_hat, 1)
    ga = _check_alpha_g(alpha, g)
    n = n_hat - 1
    val = -(ga + alpha + 1) * _lag(n, alpha, ga) + _lag(n - 1, alpha, ga)
    return _maybe_scalar(val, g)


def xm_laguerre(n, m, alpha, g):
    """Xm exceptional Laguerre polynomial Lhat_{n+m}^(alpha)(g).

    Reduces to L_n^(alpha)(g) at m = 0 and to -x1_laguerre(n+1, alpha, g)
    at m = 1 (the two families fix constants differently).
    """
    n = _check_index("n", n, 0)
    m = _check_index("m", m, 0)
    ga = _check_alpha_g(alpha, g)
    return _maybe_scalar(next(_xm_rows([n], m, alpha, ga)[1]), g)


def xm_denominator(m, alpha, g):
    """L_m^(alpha-1)(-g): the denominator of the extended eigenfunctions.

    Strictly positive for alpha > 0 and g >= 0 (every series coefficient of
    L_m^(beta)(-g) is positive for beta > -1), so the extended potentials and
    eigenfunctions are pole-free.  alpha <= 0 is rejected because the
    positivity guarantee would be void.
    """
    m = _check_index("m", m, 0)
    ga = _check_alpha_g(alpha, g)
    return _maybe_scalar(_lag(m, float(alpha) - 1.0, -ga), g)


@dataclass(frozen=True)
class OdeCoefficients:
    """Coefficients of g y'' + g Q y' + g R y = 0 for the Xm polynomial.

    q            -- Q_m(g)
    r_linear     -- index-independent part of R_m(g), denominator L_m^(alpha)(-g)
    r_linear_shifted -- same part with denominator L_m^(alpha-1)(-g)

    The full zero-order coefficient is R_m(g) = (n+m)/g + r_linear_*, with
    n+m the polynomial degree; `resolve_r_denominator` decides which
    denominator convention annihilates the closed-form polynomial.
    """

    q: float
    r_linear: float
    r_linear_shifted: float


def ode_coefficients(m, alpha, g):
    """Both variants of the Xm differential-equation coefficients at g > 0.

    Q_m(g) = (1/g) [ (alpha+1-g) - 2g L_{m-1}^(alpha)(-g) / L_m^(alpha-1)(-g) ]

    is unambiguous.  The linear part of R_m is -(2 alpha / g) times the ratio
    L_{m-1}^(alpha)(-g) / L_m^(*)(-g) where * is either alpha or alpha-1;
    `resolve_r_denominator` reports which variant the closed-form polynomial
    actually satisfies.
    """
    *_, q, r_linear = _ode_terms(0, m, alpha, g)
    return OdeCoefficients(*(_maybe_scalar(c, g) for c in (q, *r_linear.values())))


def _ode_terms(n, m, alpha, g):
    """(y, y', y'', Q, {variant: linear part of R}) of the Xm polynomial of degree n + m at
    g > 0 (`ode_coefficients`).  The derivatives are analytic (product rule on the classical
    representation, d/dx L_k^(a) = -L_{k-1}^(a+1)); the ten distinct Laguerre factors are
    evaluated once each and shared with the coefficients."""
    n = _check_index("n", n, 0)
    m = _check_index("m", m, 1)
    a = float(alpha)
    ga = _check_argument("g", g)
    A, dA, d2A = _lag(m, a, -ga), _lag(m - 1, a + 1, -ga), _lag(m - 2, a + 2, -ga)
    C, dC, d2C = _lag(m, a - 1, -ga), _lag(m - 1, a, -ga), _lag(m - 2, a + 1, -ga)
    B, D = _lag(n, a - 1, ga), _lag(n - 1, a, ga)
    dB, dD, d2D = -D, -_lag(n - 2, a + 1, ga), _lag(n - 3, a + 2, ga)
    d2B = -dD
    y = A * B + C * D
    y1 = dA * B + A * dB + dC * D + C * dD
    y2 = d2A * B + 2 * dA * dB + A * d2B + d2C * D + 2 * dC * dD + C * d2D
    if a <= 0:
        raise ValidationError(f"alpha must be > 0, got {a}")
    if not np.all(ga > 0):
        raise ValidationError(f"g must be > 0 (coefficients have a 1/g pole), got {ga}")
    q = ((a + 1 - ga) - 2 * ga * dC / C) / ga  # dC = L_{m-1}^(a)(-g), C = L_m^(a-1)(-g)
    return y, y1, y2, q, {"alpha": -2 * a * dC / A / ga, "alpha-1": -2 * a * dC / C / ga}


def _ode_residual(n, m, g, terms, r_denominator):
    """g y'' + g Q y' + g R y from `_ode_terms`, R = (n + m) / g + the variant's linear part."""
    y, y1, y2, q, r_linear = terms
    r = (n + m) / g + r_linear[r_denominator]
    return g * y2 + g * q * y1 + g * r * y


def xm_ode_residual(n, m, alpha, g, r_denominator="alpha-1"):
    """Residual g y'' + g Q y' + g R y on the closed-form Xm polynomial; scalar or array g.

    Derivatives are analytic (product rule on the classical representation),
    so a nonzero residual measures coefficient inconsistency, not numerics.
    r_denominator selects the R variant: "alpha-1" or "alpha".
    """
    if r_denominator not in ("alpha-1", "alpha"):
        raise ValidationError(f"r_denominator must be 'alpha-1' or 'alpha', got {r_denominator!r}")
    terms = _ode_terms(n, m, alpha, g)
    return _maybe_scalar(_ode_residual(n, m, np.asarray(g, dtype=float), terms, r_denominator), g)


def r_variant_residuals(probes):
    """Worst scaled residual of each R variant over (n, m, alpha, g) probes.

    Each residual is scaled by max(1, |y|) (n + m + alpha + g), the size of
    the terms that cancel in it.  Probes sharing (n, m, alpha) form one array
    of g, whose polynomial, derivatives and coefficients (`_ode_terms`) serve both
    variants and the scale; a NaN residual makes the worst NaN.  Returns {variant: worst}.
    """
    groups = {}
    for n, m, a, g in probes:
        groups.setdefault((n, m, a), []).append(g)
    scaled = {"alpha-1": [], "alpha": []}
    for (n, m, a), gs in groups.items():
        g = np.array(gs, dtype=float)
        terms = _ode_terms(n, m, a, g)
        scale = np.maximum(1.0, np.abs(terms[0])) * (n + m + a + g)
        for variant, out in scaled.items():
            out.append(np.abs(_ode_residual(n, m, g, terms, variant)) / scale)
    return {variant: float(np.max(np.concatenate(out))) for variant, out in scaled.items()}


@lru_cache(maxsize=1)
def r_variant_battery():
    """{variant: worst scaled residual} over the fixed probe battery, evaluated once per
    process: n < 4, m <= 3, alpha in {1, 1.5, 4, 5.5}, g in {0.5, 2, 11.3}.  At these
    small alpha the rejected variant reads 0.4375; at large alpha its residual falls like
    alpha^-2.  Shared by `resolve_r_denominator` and `verify.consistency_suite`."""
    return r_variant_residuals((n, m, a, g) for n in range(4) for m in (1, 2, 3)
                               for a in (1.0, 1.5, 4.0, 5.5) for g in (0.5, 2.0, 11.3))


def resolve_r_denominator():
    """Decide which R denominator convention the closed forms satisfy.

    Returns the convention whose worst scaled residual over `r_variant_battery` is at
    rounding level while the other is order unity, and raises RuntimeError if the
    battery does not separate them.  It is a fixed mathematical fact, not parameter
    dependent.
    """
    worst = r_variant_battery()
    good = min(worst, key=worst.get)
    bad = max(worst, key=worst.get)
    if not (worst[good] < 1e-9 and worst[bad] > 1e-3):
        raise RuntimeError(
            "R-coefficient diagnosis inconclusive: "
            f"residuals {worst!r} do not separate the two variants")
    return good
