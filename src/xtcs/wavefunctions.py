"""Analytic eigenfunctions, the pair-product prefactor, norms, node counts.

Radial eigenfunctions (all returned unnormalized; the families are defined
up to a constant and every check here is normalization free):

    m = 0:   Phi_n(rho) ~ exp(-g/2) L_n^(alpha)(g),            g = omega rho^2
    m >= 1:  Phi_n(rho) ~ exp(-g/2) Lhat_{n+m}^(alpha)(g) / L_m^(alpha-1)(-g)

The m = 1 denominator deserves a note: the inviting variant (2g + alpha)
does *not* solve the radial equation of the extended potential (its
residual is order unity); the consistent denominator is (g + alpha) =
L_1^(alpha-1)(-g), as the general-m form requires.  `radial_eigenfunction`
exposes the broken variant behind a keyword purely so the verifier can
demonstrate the failure.

The many-body ground state (angular degree s = 0) is the ordered-sector
pair product   prod_{i<j, j-i<=r} (x_j - x_i)^lambda   times the radial
factor evaluated at the hyperradius.  The product runs over the same
truncated pair set as the interaction; this is what makes the radial
measure exponent tau consistent with the pair count.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, QuadratureError, ResolutionError, ValidationError
from .laguerre import (_check_index, _check_nonnegative, _lag_rows, _maybe_scalar, _xm_rows,
                       x1_laguerre)
from .model import SIZE_BUDGET, Configuration, ModelParams, wall_g
from .quadrature import panel_nodes

__all__ = [
    "radial_eigenfunction",
    "jastrow",
    "manybody_groundstate",
    "norm",
    "count_nodes",
]

X1_DENOMINATOR_FORMS = ("g_plus_alpha", "2g_plus_alpha")

# Tail of the norm integrand past the default rho_max, relative to the total.
TAIL_TOLERANCE = 1e-10
# Width of the Gram rule's panels in trap lengths.
PANEL_WIDTH = 2.0


def radial_eigenfunction(n, p: ModelParams, rho, x1_denominator="g_plus_alpha"):
    """Unnormalized radial eigenfunction Phi_n(rho); scalar, ndarray or `laguerre.Jet` rho.

    x1_denominator selects, for m = 1 only, between the consistent
    denominator (g + alpha) and the inconsistent variant (2g + alpha) kept
    for negative tests.  The consistent form is the row of `_radial_rows`.
    """
    n = _check_index("n", n, 0)
    if x1_denominator not in X1_DENOMINATOR_FORMS:
        raise ValidationError(
            f"x1_denominator must be one of {X1_DENOMINATOR_FORMS}, got {x1_denominator!r}")
    rho_a = _check_nonnegative("rho", rho)
    if x1_denominator == "g_plus_alpha":
        return _maybe_scalar(next(_radial_rows([n], p, rho_a)), rho)
    if p.ext_index != 1:
        raise ValidationError("the 2g_plus_alpha variant exists only for m = 1")
    g = p.omega * rho_a ** 2
    return _maybe_scalar(np.exp(-g / 2) * x1_laguerre(n + 1, p.alpha, g) / (2 * g + p.alpha), rho)


def _radial_rows(levels, p: ModelParams, rho):
    """Iterator over Phi_n(rho) for n in levels (ascending) on a checked rho array, consistent
    denominator, made one row at a time; exp(-g/2), L_m^(alpha)(-g) and the denominator
    L_m^(alpha-1)(-g) are evaluated once for all levels (`laguerre._xm_rows`).  On a
    `laguerre.Jet` in rho the rows are Jets: Phi_n with its first two derivatives."""
    m, a = p.ext_index, p.alpha
    g = p.omega * rho ** 2
    envelope = np.exp(-g / 2)
    if m == 0:
        wanted = set(levels)
        return (envelope * row for n, row in enumerate(_lag_rows(max(levels), a, g))
                if n in wanted)
    den, rows = _xm_rows(levels, m, a, g)
    return (envelope * poly / den for poly in rows)


def jastrow(c: Configuration, p: ModelParams) -> float:
    """Pair-product prefactor over the truncated pair set, positive on the
    ordered sector."""
    if c.n != p.n_particles:
        raise ValidationError(
            f"configuration has {c.n} positions but n_particles = {p.n_particles}")
    x = c.positions
    out = 1.0
    for i in range(c.n):
        for j in range(i + 1, min(c.n, i + p.trunc_range + 1)):
            out *= (x[j] - x[i]) ** p.coupling
    return out


def manybody_groundstate(c: Configuration, p: ModelParams) -> float:
    """Ground-state amplitude: pair product times the radial factor at the
    hyperradius.  Only the angular degree s = 0 sector is implemented."""
    if p.degree != 0:
        raise ValidationError(
            f"many-body wavefunction implemented for degree s = 0 only, got s = {p.degree}")
    return jastrow(c, p) * radial_eigenfunction(0, p, c.hyperradius)


def _log_rows(levels, p: ModelParams, s):
    """sign(Phi_n) and log|Phi_n| + (tau/2) log s, one row per level, never forming Phi_n
    (exp(-g/2) and s^tau leave float64 from tau ~ 255); NaN or +inf (overflow) raises."""
    g = s ** 2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        den, rows = _xm_rows(levels, p.ext_index, p.alpha, g)
        poly = np.stack(list(rows))
        log = np.log(np.abs(poly)) - (g / 2 + np.log(den) - 0.5 * p.tau * np.log(s))
    if np.any(np.isnan(log) | (log == np.inf)):
        raise NonFiniteError("radial quadrature: log|Phi_n| is not finite (Laguerre overflow)")
    return np.sign(poly), log


def _gram_rule(n, p: ModelParams):
    """s_wall and the (nodes, weights) of the rule on [0, s_wall] in trap lengths, s_wall^2 =
    `model.wall_g`(n): max(8, ceil(s_wall / PANEL_WIDTH)) 64-point panels of equal width.
    Each level's peak is a Gaussian about one trap length wide, so the panel count grows like
    sqrt(alpha).  The first panel is split at s_1 / 2, ..., s_1 / 2^20 for the integrand's
    s^tau start (unsplit it read 7.0e-9 at tau = 1.6, m = 60 and 6.1e-7 at tau = 1.1,
    m = 120; split, <= 8.3e-15).  The Gram matrix and the node counts both use it.
    """
    s_wall = float(np.sqrt(wall_g(n, p)))
    edges = np.linspace(0.0, s_wall, max(8, int(np.ceil(s_wall / PANEL_WIDTH))) + 1)
    edges = np.concatenate(([0.0], edges[1] * 0.5 ** np.arange(20, 0, -1), edges[1:]))
    return s_wall, panel_nodes(edges)


def _gram(levels, p: ModelParams):
    """Shifted Gram matrix <Phi_i, Phi_j> e^(-c_i - c_j) under s^tau ds, and the shifts c,
    on `_gram_rule` of the top level.

    Row n is sign(Phi_n) exp(log|Phi_n| + (tau/2) log s + (1/2) log w - c_n), w the weights,
    c_n its peak.  The top level's norm is also integrated on the tail rule out to
    1.5 s_wall^2 in g.  Above SIZE_BUDGET nodes x levels, a non-positive norm or a tail above
    TAIL_TOLERANCE, it raises.
    """
    levels = list(levels)
    n_max = max(levels)
    s_wall, (nodes, weights) = _gram_rule(n_max, p)
    if len(levels) * len(nodes) > SIZE_BUDGET:
        raise ValidationError(f"{len(levels)} levels on {len(nodes)} quadrature nodes exceed "
                              f"the size budget of {SIZE_BUDGET} nodes x levels; lower --levels")
    sign, log = _log_rows(levels, p, nodes)
    shift = np.max(log, axis=1)
    rows = sign * np.exp(log - shift[:, None] + 0.5 * np.log(weights))
    gram, top = rows @ rows.T, levels.index(n_max)
    total = float(gram[top, top])  # not a 1-d dot: threaded OpenBLAS took ~7 ms on 17k nodes
    tn, tw = panel_nodes(s_wall * np.sqrt([1.0, 1.25, 1.5]))
    tail = float(np.sum(np.exp(2 * (_log_rows([n_max], p, tn)[1][0] - shift[top])) * tw))
    if not total > 0:
        raise QuadratureError(f"norm came out non-positive ({total!r})")
    if tail > TAIL_TOLERANCE * total:
        raise QuadratureError(
            f"norm tail estimate is {tail / total:.3e} of the total, above {TAIL_TOLERANCE:.0e}")
    return gram, shift


def norm(n, p: ModelParams) -> float:
    """Squared-amplitude integral of Phi_n under the measure rho^tau d rho: omega^-(alpha+1)
    times the integral in trap lengths, on the rule of `_gram`.  Where it leaves float64, a
    QuadratureError gives its log instead."""
    gram, shift = _gram((n,), p)  # _gram raises unless gram[0, 0] > 0
    log_norm = np.log(gram[0, 0]) + 2 * shift[0] - (p.alpha + 1) * np.log(p.omega)
    if not np.log(np.finfo(float).tiny) <= log_norm <= np.log(np.finfo(float).max):
        side = "over" if log_norm > 0 else "under"
        raise QuadratureError(f"norm {side}flows float64: log |norm| = {log_norm:.17g}")
    return float(np.exp(log_norm))


def _sign_changes(signs):
    """Indices of the cells where the sign changes, zeros skipped."""
    nz = np.nonzero(signs)[0]
    kept = signs[nz]
    return nz[np.nonzero(kept[:-1] * kept[1:] < 0)[0]]


def count_nodes(n, p: ModelParams) -> int:
    """Sign changes of Phi_n on the open interval (0, s_wall) of `_gram_rule`(n, p):
    `_node_counts` on the one level n."""
    return _node_counts([_check_index("n", n, 0)], p)[0]


def _node_counts(levels, p: ModelParams) -> list:
    """Sign changes of Phi_n for n in levels (ascending), all on the nodes of the top level's
    `_gram_rule`, whose domain holds the zeros of every level and whose panels put 64 nodes
    on at most PANEL_WIDTH trap lengths, whatever alpha is.

    A count stands only if no two sign changes on every other node fall within two cells
    (an unresolved near-tangency) and all nodes give the same count; otherwise
    ResolutionError.  The polynomials share their level-independent factors
    (`laguerre._xm_rows`) and are made one level row at a time.  A row's +-inf keeps its
    sign, but a NaN (inf - inf) would hide sign changes: it raises NonFiniteError.
    """
    _, (nodes, _) = _gram_rule(max(levels), p)
    # Phi_n = Xm polynomial * exp(-g/2) / L_m^(alpha-1)(-g), the last factor positive; the
    # polynomial keeps its sign where exp(-g/2) underflows (large alpha)
    counts = []
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN row raises below
        for poly in _xm_rows(levels, p.ext_index, p.alpha, nodes ** 2)[1]:
            if np.any(np.isnan(poly)):
                raise NonFiniteError("node count: the Xm polynomial is NaN (Laguerre overflow)")
            signs = np.sign(poly)
            cells, count_all = _sign_changes(signs[::2]), len(_sign_changes(signs))
            if np.any(np.diff(cells) <= 2):
                raise ResolutionError("two sign changes within adjacent cells: suspected tangency")
            if count_all != len(cells):
                raise ResolutionError(f"{len(cells)} sign changes on the grid but {count_all} "
                                      "on its halving (every other Gram node, then all)")
            counts.append(len(cells))
    return counts
