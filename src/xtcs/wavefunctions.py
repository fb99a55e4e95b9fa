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

from .errors import QuadratureError, ResolutionError, ValidationError
from .laguerre import _check_index, _lag, _maybe_scalar, xm_denominator, xm_laguerre
from .model import Configuration, ModelParams, turning_point_g
from .quadrature import QuadratureSpec, panel_nodes
from .solver import RadialGrid

__all__ = [
    "radial_eigenfunction",
    "jastrow",
    "manybody_groundstate",
    "default_quadrature",
    "norm",
    "radial_inner_product",
    "default_node_grid",
    "count_nodes",
]

X1_DENOMINATOR_FORMS = ("g_plus_alpha", "2g_plus_alpha")

# Tail of the norm integrand past the default rho_max, relative to the total.
TAIL_TOLERANCE = 1e-10


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
    rho_a = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(rho_a)) or np.any(rho_a < 0):
        raise ValidationError("rho must be finite and >= 0")
    m, a = p.ext_index, p.alpha
    g = p.omega * rho_a ** 2
    envelope = np.exp(-g / 2)
    if m == 0:
        val = envelope * _lag(n, a, g)
    elif x1_denominator == "2g_plus_alpha":
        if m != 1:
            raise ValidationError("the 2g_plus_alpha variant exists only for m = 1")
        poly = -(g + a + 1) * _lag(n, a, g) + _lag(n - 1, a, g)
        val = envelope * poly / (2 * g + a)
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
    """Quadrature reaching well past the classical region of level n_max.

    g_max = turning point of n_max + 30 + 2 alpha: the extra alpha-dependent
    margin keeps the rho^tau growth from reviving the tail at large alpha.
    """
    g_max = turning_point_g(n_max, p, 30 + 2 * p.alpha)
    rho_max = float(np.sqrt(g_max / p.omega))
    n_panels = max(8, int(np.ceil(g_max / 4)))
    return QuadratureSpec(rho_max=rho_max, omega=p.omega, n_panels=n_panels)


def _weighted_integral(f, p: ModelParams, quad: QuadratureSpec):
    """integral of f(rho) rho^tau d rho over [0, rho_max], plus a tail estimate
    from extending the rule to 1.5x the g-range."""
    nodes, weights = panel_nodes(quad.edges(), quad.points_per_panel)
    total = float(np.sum(f(nodes) * nodes ** p.tau * weights))
    g_max = quad.omega * quad.rho_max ** 2
    ext_edges = np.sqrt(np.array([g_max, 1.25 * g_max, 1.5 * g_max]) / quad.omega)
    tn, tw = panel_nodes(ext_edges, quad.points_per_panel)
    tail = float(np.sum(f(tn) * tn ** p.tau * tw))
    return total, tail


def norm(n, p: ModelParams, quad: QuadratureSpec | None = None) -> float:
    """Squared-amplitude integral of Phi_n under the measure rho^tau d rho."""
    if quad is None:
        quad = default_quadrature(p, n)
    g_max = quad.omega * quad.rho_max ** 2
    g_need = turning_point_g(n, p, 20)
    if g_max < g_need:
        raise ValidationError(
            f"rho_max too small: omega rho_max^2 = {g_max:.3f} < {g_need:.3f} required for level {n}")
    total, tail = _weighted_integral(
        lambda rho: radial_eigenfunction(n, p, rho) ** 2, p, quad)
    if not total > 0:
        raise QuadratureError(f"norm came out non-positive ({total!r})")
    if tail > TAIL_TOLERANCE * total:
        raise QuadratureError(
            f"norm tail estimate {tail:.3e} exceeds {TAIL_TOLERANCE:.0e} of total {total:.6e}; "
            "increase rho_max")
    return total


def radial_inner_product(i, j, p: ModelParams, quad: QuadratureSpec | None = None) -> float:
    """<Phi_i, Phi_j> under rho^tau d rho (unnormalized amplitudes)."""
    i, j = _check_index("i", i, 0), _check_index("j", j, 0)
    if quad is None:
        quad = default_quadrature(p, max(i, j))
    total, _ = _weighted_integral(
        lambda rho: radial_eigenfunction(i, p, rho) * radial_eigenfunction(j, p, rho), p, quad)
    return total


def default_node_grid(n, p: ModelParams) -> RadialGrid:
    """Grid resolving the oscillations of Phi_n: >= 220 points per unit g."""
    g_max = turning_point_g(n, p, 10)
    rho_max = float(np.sqrt(g_max / p.omega))
    n_points = max(2001, int(np.ceil(220 * g_max)))
    return RadialGrid(rho_max / n_points, rho_max, n_points)


def count_nodes(n, p: ModelParams, grid: RadialGrid | None = None) -> int:
    """Sign changes of Phi_n on the open interval covered by the grid.

    Requires on average >= 200 grid points per unit of g across the grid; a
    pair of sign changes in adjacent cells (an unresolved near-tangency) is
    rejected rather than silently counted.
    """
    n = _check_index("n", n, 0)
    if grid is None:
        grid = default_node_grid(n, p)
    g_span = p.omega * (grid.rho_max ** 2 - grid.rho_min ** 2)
    if grid.n_points < 200 * g_span:
        raise ResolutionError(
            f"grid has {grid.n_points} points over a g-span of {g_span:.2f}; "
            "need >= 200 points per unit g")
    values = radial_eigenfunction(n, p, grid.nodes)
    signs = np.sign(values)
    nz = signs != 0
    compact = signs[nz]
    flips = np.nonzero(compact[:-1] * compact[1:] < 0)[0]
    original = np.nonzero(nz)[0][flips]
    if len(original) > 1 and np.any(np.diff(original) <= 2):
        raise ResolutionError(
            "two sign changes within adjacent cells: suspected tangency, refine the grid")
    return int(len(flips))
