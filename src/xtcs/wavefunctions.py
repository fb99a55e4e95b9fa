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
from .laguerre import (_check_index, _lag, _maybe_scalar, x1_laguerre, xm_denominator,
                       xm_laguerre)
from .model import Configuration, ModelParams, _check_rho, turning_point_g
from .quadrature import QuadratureSpec, panel_nodes
from .solver import RadialGrid, wall_g

__all__ = [
    "radial_eigenfunction",
    "jastrow",
    "manybody_groundstate",
    "default_quadrature",
    "norm",
    "default_node_grid",
    "count_nodes",
]

X1_DENOMINATOR_FORMS = ("g_plus_alpha", "2g_plus_alpha")

# Tail of the norm integrand past the default rho_max, relative to the total.
TAIL_TOLERANCE = 1e-10
# Panels whose log-integrand sits further below every level's peak (e^-70 ~ 4e-31 of it)
# are not integrated.
PANEL_MARGIN = 70.0


def radial_eigenfunction(n, p: ModelParams, rho, x1_denominator="g_plus_alpha"):
    """Unnormalized radial eigenfunction Phi_n(rho); scalar or ndarray rho.

    x1_denominator selects, for m = 1 only, between the consistent
    denominator (g + alpha) and the inconsistent variant (2g + alpha) kept
    for negative tests.
    """
    n = _check_index("n", n, 0)
    if x1_denominator not in X1_DENOMINATOR_FORMS:
        raise ValidationError(
            f"x1_denominator must be one of {X1_DENOMINATOR_FORMS}, got {x1_denominator!r}")
    rho_a = _check_rho(rho)
    m, a = p.ext_index, p.alpha
    g = p.omega * rho_a ** 2
    envelope = np.exp(-g / 2)
    if m == 0:
        val = envelope * _lag(n, a, g)
    elif x1_denominator == "2g_plus_alpha":
        if m != 1:
            raise ValidationError("the 2g_plus_alpha variant exists only for m = 1")
        val = envelope * x1_laguerre(n + 1, a, g) / (2 * g + a)
    else:
        val = envelope * xm_laguerre(n, m, a, g) / xm_denominator(m, a, g)
    return _maybe_scalar(val, rho)


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


def default_quadrature(p: ModelParams, n_max: int) -> QuadratureSpec:
    """Quadrature out to `solver.wall_g`(n_max), the wall of the eigensolver grid too.

    Level n_max has decayed by WALL_DECAY_NATS there, so its norm tail passes the
    TAIL_TOLERANCE check that `_gram` makes."""
    g_max = wall_g(n_max, p)
    rho_max = float(np.sqrt(g_max / p.omega))
    n_panels = max(8, int(np.ceil(g_max / 4)))
    return QuadratureSpec(rho_max=rho_max, omega=p.omega, n_panels=n_panels)


def _log_rows(levels, p: ModelParams, rho):
    """sign(Phi_n) and log|Phi_n| + (tau/2) log rho, one row per level, never forming Phi_n
    (exp(-g/2) and rho^tau leave float64 from tau ~ 255); NaN or +inf (overflow) raises."""
    m, a = p.ext_index, p.alpha
    g = p.omega * rho ** 2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lm, den = _lag(m, a, -g), _lag(m, a - 1, -g)
        poly = np.stack([lm * _lag(n, a - 1, g) + den * _lag(n - 1, a, g) for n in levels])
        log = np.log(np.abs(poly)) - (g / 2 + np.log(den) - 0.5 * p.tau * np.log(rho))
    if np.any(np.isnan(log) | (log == np.inf)):
        raise NonFiniteError("radial quadrature: log|Phi_n| is not finite (Laguerre overflow)")
    return np.sign(poly), log


def _gram(levels, p: ModelParams, quad: QuadratureSpec):
    """Shifted Gram matrix <Phi_i, Phi_j> e^(-s_i - s_j) under rho^tau d rho, and the shifts s.

    Row n is sign(Phi_n) exp(log|Phi_n| + (tau/2) log rho + (1/2) log w - s_n), s_n its peak.
    Only the hull of the panels where some level's log-integrand, at a panel edge, lies within
    PANEL_MARGIN of its peak is integrated, plus one neighbour panel on each side.  The top
    level's norm is also integrated on the tail rule extending the g-range to 1.5x; a
    non-positive norm or a tail above TAIL_TOLERANCE raises.
    """
    levels = list(levels)
    n_max = max(levels)
    g_max = quad.omega * quad.rho_max ** 2
    g_need = turning_point_g(n_max, p, 20)
    if g_max < g_need:
        raise ValidationError(
            f"rho_max too small: omega rho_max^2 = {g_max:.3f} < {g_need:.3f} required for level {n_max}")
    edges = quad.edges()
    at_edges = _log_rows(levels, p, edges)[1]
    near = np.any(at_edges >= np.max(at_edges, axis=1, keepdims=True) - PANEL_MARGIN, axis=0)
    hit = np.nonzero(near[:-1] | near[1:])[0]  # panel i spans edges i and i + 1
    lo, hi = max(hit[0] - 1, 0), min(hit[-1] + 1, quad.n_panels - 1)
    nodes, weights = panel_nodes(edges[lo:hi + 2])
    sign, log = _log_rows(levels, p, nodes)
    shift = np.max(log, axis=1)
    rows = sign * np.exp(log - shift[:, None] + 0.5 * np.log(weights))
    gram, top = rows @ rows.T, levels.index(n_max)
    total = float(gram[top, top])  # not a 1-d dot: threaded OpenBLAS took ~7 ms on 17k nodes
    tn, tw = panel_nodes(np.sqrt(np.array([g_max, 1.25 * g_max, 1.5 * g_max]) / quad.omega))
    tail = float(np.sum(np.exp(2 * (_log_rows([n_max], p, tn)[1][0] - shift[top])) * tw))
    if not total > 0:
        raise QuadratureError(f"norm came out non-positive ({total!r})")
    if tail > TAIL_TOLERANCE * total:
        raise QuadratureError(
            f"norm tail estimate is {tail / total:.3e} of the total, above {TAIL_TOLERANCE:.0e}; "
            "increase rho_max")
    return gram, shift


def norm(n, p: ModelParams, quad: QuadratureSpec | None = None) -> float:
    """Squared-amplitude integral of Phi_n under the measure rho^tau d rho.

    Where it leaves float64, a QuadratureError gives its log instead."""
    gram, shift = _gram((n,), p, default_quadrature(p, n) if quad is None else quad)
    log_norm = np.log(gram[0, 0]) + 2 * shift[0]  # _gram raises unless gram[0, 0] > 0
    if log_norm > np.log(np.finfo(float).max):
        raise QuadratureError(f"norm overflows float64: log |norm| = {log_norm:.17g}")
    return float(np.exp(log_norm))


def default_node_grid(n, p: ModelParams) -> RadialGrid:
    """Uniform rho-grid resolving the zeros of Phi_n: >= 220 points per unit sqrt(omega) rho.

    For large alpha the zeros sit about dx_Hermite / sqrt(2 omega) apart in rho, whatever
    alpha is, so the grid grows like sqrt(alpha), not like alpha."""
    g_max = turning_point_g(n, p, 10)
    rho_max = float(np.sqrt(g_max / p.omega))
    n_points = max(2001, int(np.ceil(220 * np.sqrt(g_max))))
    return RadialGrid(rho_max / n_points, rho_max, n_points)


def _sign_changes(signs):
    """Indices of the cells where the sign changes, zeros skipped."""
    nz = np.nonzero(signs)[0]
    kept = signs[nz]
    return nz[np.nonzero(kept[:-1] * kept[1:] < 0)[0]]


def count_nodes(n, p: ModelParams, grid: RadialGrid | None = None) -> int:
    """Sign changes of Phi_n on the open interval covered by the grid.

    Requires >= 200 grid points per unit of sqrt(omega) rho, no pair of sign changes in
    adjacent cells (an unresolved near-tangency), and the same count on the grid and on its
    halving (2 n_points - 1 points).
    """
    n = _check_index("n", n, 0)
    if grid is None:
        grid = default_node_grid(n, p)
    span = np.sqrt(p.omega) * (grid.rho_max - grid.rho_min)
    if grid.n_points < 200 * span:
        raise ResolutionError(f"grid has {grid.n_points} points over a sqrt(omega) rho span "
                              f"of {span:.2f}; need >= 200 points per unit")
    halved = RadialGrid(grid.rho_min, grid.rho_max, 2 * grid.n_points - 1)
    # Phi_n = Xm polynomial * exp(-g/2) / L_m^(alpha-1)(-g), the last factor positive; the
    # polynomial keeps its sign where exp(-g/2) underflows (large alpha)
    signs = np.sign(xm_laguerre(n, p.ext_index, p.alpha, p.omega * halved.nodes ** 2))
    cells, count_halved = _sign_changes(signs[::2]), len(_sign_changes(signs))
    if np.any(np.diff(cells) <= 2):
        raise ResolutionError(
            "two sign changes within adjacent cells: suspected tangency, refine the grid")
    if count_halved != len(cells):
        raise ResolutionError(f"{len(cells)} sign changes on the grid but {count_halved} on "
                              "its halving; refine the grid")
    return len(cells)
