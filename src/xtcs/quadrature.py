"""Composite 64-point Gauss-Legendre rule over given panel edges.

The one caller, `wavefunctions._gram`, puts the edges equally spaced in the trap length
s = sqrt(omega) rho: each level's peak is a Gaussian about one unit wide whatever alpha is, so
fixed-width panels keep the per-panel variation bounded and 64-point rules at machine accuracy.
Below tau = 2 the integrand's s^tau start limits the first panel: 7e-9 at tau = 1.6, m = 60.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["panel_nodes"]


@lru_cache(maxsize=1)
def _gauss_legendre():
    return np.polynomial.legendre.leggauss(64)


def panel_nodes(edges):
    """Nodes and weights of the composite 64-point rule over the given panel edges."""
    xg, wg = _gauss_legendre()
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    nodes = (0.5 * (hi - lo)[:, None] * xg + 0.5 * (hi + lo)[:, None]).ravel()
    weights = (0.5 * (hi - lo)[:, None] * wg).ravel()
    return nodes, weights
