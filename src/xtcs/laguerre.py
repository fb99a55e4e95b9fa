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


def _lag(n, alpha, x):
    """Recurrence core; zero polynomial for any n < 0, no validation."""
    x = np.asarray(x, dtype=float)
    if n < 1:
        return np.full_like(x, float(n == 0))
    prev, cur = 1.0, 1 + alpha - x  # the k = 0 step
    for k in range(1, n):
        cur, prev = ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1), cur
    return cur


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
    val = _lag(m, alpha, -ga) * _lag(n, alpha - 1, ga) \
        + _lag(m, alpha - 1, -ga) * _lag(n - 1, alpha, ga)
    return _maybe_scalar(val, g)


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


def _coefficient_parts(m, alpha, g):
    """(q, r_linear, r_linear_shifted) of the Xm equation at g > 0; g scalar or array."""
    m = _check_index("m", m, 1)
    if alpha <= 0:
        raise ValidationError(f"alpha must be > 0, got {alpha}")
    g = _check_argument("g", g)
    if not np.all(g > 0):
        raise ValidationError(f"g must be > 0 (coefficients have a 1/g pole), got {g}")
    num = _lag(m - 1, alpha, -g)
    den_shift = _lag(m, alpha - 1.0, -g)
    den_plain = _lag(m, alpha, -g)
    q = ((alpha + 1 - g) - 2 * g * num / den_shift) / g
    return q, -2 * alpha * num / den_plain / g, -2 * alpha * num / den_shift / g


def ode_coefficients(m, alpha, g):
    """Both variants of the Xm differential-equation coefficients at g > 0.

    Q_m(g) = (1/g) [ (alpha+1-g) - 2g L_{m-1}^(alpha)(-g) / L_m^(alpha-1)(-g) ]

    is unambiguous.  The linear part of R_m is -(2 alpha / g) times the ratio
    L_{m-1}^(alpha)(-g) / L_m^(*)(-g) where * is either alpha or alpha-1;
    `resolve_r_denominator` reports which variant the closed-form polynomial
    actually satisfies.
    """
    return OdeCoefficients(*(_maybe_scalar(c, g) for c in _coefficient_parts(m, alpha, g)))


def xm_ode_residual(n, m, alpha, g, r_denominator="alpha-1"):
    """Residual g y'' + g Q y' + g R y on the closed-form Xm polynomial; scalar or array g.

    Derivatives are analytic (product rule on the classical representation),
    so a nonzero residual measures coefficient inconsistency, not numerics.
    r_denominator selects the R variant: "alpha-1" or "alpha".
    """
    n = _check_index("n", n, 0)
    m = _check_index("m", m, 1)
    if r_denominator not in ("alpha-1", "alpha"):
        raise ValidationError(f"r_denominator must be 'alpha-1' or 'alpha', got {r_denominator!r}")
    a = float(alpha)
    ga = _check_argument("g", g)
    A, B = _lag(m, a, -ga), _lag(n, a - 1, ga)
    C, D = _lag(m, a - 1, -ga), _lag(n - 1, a, ga)
    dA, dB = _lag(m - 1, a + 1, -ga), -_lag(n - 1, a, ga)
    dC, dD = _lag(m - 1, a, -ga), -_lag(n - 2, a + 1, ga)
    d2A, d2B = _lag(m - 2, a + 2, -ga), _lag(n - 2, a + 1, ga)
    d2C, d2D = _lag(m - 2, a + 1, -ga), _lag(n - 3, a + 2, ga)
    y = A * B + C * D
    y1 = dA * B + A * dB + dC * D + C * dD
    y2 = d2A * B + 2 * dA * dB + A * d2B + d2C * D + 2 * dC * dD + C * d2D
    q, r_plain, r_shifted = _coefficient_parts(m, a, ga)
    r = (n + m) / ga + (r_shifted if r_denominator == "alpha-1" else r_plain)
    return _maybe_scalar(ga * y2 + ga * q * y1 + ga * r * y, g)


def r_variant_residuals(probes):
    """Worst scaled residual of each R variant over (n, m, alpha, g) probes.

    Each residual is scaled by max(1, |y|) (n + m + alpha + g), the size of
    the terms that cancel in it.  Probes sharing (n, m, alpha) form one array
    of g; a NaN residual makes the worst NaN.  Returns {variant: worst}.
    """
    groups = {}
    for n, m, a, g in probes:
        groups.setdefault((n, m, a), []).append(g)
    scaled = {"alpha-1": [], "alpha": []}
    for (n, m, a), gs in groups.items():
        g = np.array(gs, dtype=float)
        scale = np.maximum(1.0, np.abs(xm_laguerre(n, m, a, g))) * (n + m + a + g)
        for variant, out in scaled.items():
            out.append(np.abs(xm_ode_residual(n, m, a, g, r_denominator=variant)) / scale)
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
