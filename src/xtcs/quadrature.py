"""Composite Gauss-Legendre quadrature on [0, rho_max].

Panel edges are equally spaced in g = omega rho^2 rather than in rho: the
integrands all carry the factor exp(-g), so fixed-width-in-g panels keep the
per-panel variation bounded and 64-point rules at machine accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError

__all__ = ["QuadratureSpec", "panel_nodes"]


@lru_cache(maxsize=1)
def _gauss_legendre():
    return np.polynomial.legendre.leggauss(64)


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite rule: n_panels 64-point panels on [0, rho_max], equal widths in g."""

    rho_max: float
    omega: float
    n_panels: int = 8

    def __post_init__(self):
        if not (np.isfinite(self.rho_max) and self.rho_max > 0):
            raise ValidationError(f"rho_max must be > 0, got {self.rho_max!r}")
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValidationError(f"omega must be > 0, got {self.omega!r}")
        if self.n_panels < 1:
            raise ValidationError(f"n_panels must be >= 1, got {self.n_panels}")

    def edges(self):
        g_max = self.omega * self.rho_max ** 2
        return np.sqrt(np.linspace(0.0, g_max, self.n_panels + 1) / self.omega)


def panel_nodes(edges):
    """Nodes and weights of the composite 64-point rule over the given panel edges."""
    xg, wg = _gauss_legendre()
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    nodes = (0.5 * (hi - lo)[:, None] * xg + 0.5 * (hi + lo)[:, None]).ravel()
    weights = (0.5 * (hi - lo)[:, None] * wg).ravel()
    return nodes, weights
