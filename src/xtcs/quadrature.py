"""Composite 64-point Gauss-Legendre rule over given panel edges.

The one caller, `wavefunctions._gram_rule`, puts the edges equally spaced in trap lengths: each
level's peak is a Gaussian about one unit wide whatever alpha is, so fixed-width panels keep
the per-panel variation bounded and 64-point rules at machine accuracy.  The first panel,
where the integrand starts like s^tau, is split at s_1 / 2, ..., s_1 / 2^20 for every tau.
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
