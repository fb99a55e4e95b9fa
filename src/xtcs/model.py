"""Model parameters, interactions, and radial potentials.

The system is N particles on a line in a harmonic trap, with inverse-square
two-body and associated three-body interactions restricted to index
neighbors |i - j| <= r (the truncated Calogero-Sutherland family: r = 1 is
the nearest-neighbor variant, r = N-1 the full-range model).  The rational
extension adds a radial term v_new(rho) built from Laguerre polynomials at
negative argument; it vanishes identically at extension index m = 0 and
leaves the spectrum E_n = omega (2n + alpha + 1) unchanged for every m.

Units: hbar = mass = 1 throughout.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import AttractiveCouplingWarning, NonFiniteError, ValidationError
from .laguerre import (SIZE_BUDGET, _check_index, _check_nonnegative, _lag, _lag_pair,
                       _maybe_scalar)

__all__ = [
    "ModelParams",
    "Configuration",
    "ExtConstants",
    "energy_level",
    "turning_point_g",
    "wall_g",
    "trap_units",
    "v_interaction",
    "v_new",
    "v_new_x1_two_term",
    "ext_constants",
    "v_eff_radial",
]

PARAM_JSON_KEYS = ("N", "lambda", "r", "omega", "s", "m")  # in the order of ModelParams' fields
# WKB decay of the top level between its turning point and the wall of a default domain.
WALL_DECAY_NATS = 19.3


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the (extended) truncated model.

    n_particles  -- N >= 2
    coupling     -- lambda > 0; 0 < lambda < 1 gives an attractive two-body
                    term and is allowed with a warning
    trunc_range  -- r, interaction window in *index* distance, 1 <= r <= N-1
    omega        -- trap frequency > 0
    degree       -- s >= 0, degree of the homogeneous angular polynomial
                    entering only through tau
    ext_index    -- m >= 0, exceptional index of the rational extension
    """

    n_particles: int
    coupling: float
    trunc_range: int
    omega: float
    degree: int = 0
    ext_index: int = 0

    def __post_init__(self):
        """The one parameter gate: N, r, s and m are integers and lambda and omega real numbers,
        kept as floats, none of them a bool; lambda, omega and tau are finite float64."""
        for label, value, low in (("n_particles (N)", self.n_particles, 2),
                                  ("trunc_range (r)", self.trunc_range, 1),
                                  ("degree (s)", self.degree, 0),
                                  ("ext_index (m)", self.ext_index, 0)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValidationError(f"{label} must be an integer >= {low}, got {value!r}")
        if self.trunc_range > self.n_particles - 1:
            raise ValidationError(
                f"trunc_range (r) must satisfy 1 <= r <= N-1 = {self.n_particles - 1}, got {self.trunc_range}")
        for name, label in (("coupling", "coupling (lambda)"), ("omega", "omega")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"{label} must be a number, got {value!r}")
            try:
                value = float(value)
            except OverflowError:
                raise ValidationError(f"{label} must be a finite float64") from None
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{label} must be finite and > 0, got {value!r}")
            object.__setattr__(self, name, value)
        try:
            tau = self.tau
        except OverflowError:  # N, s or r past float64
            tau = math.inf
        if not math.isfinite(tau):
            raise ValidationError("tau = N + 2s - 1 + lambda r (2N - r - 1) leaves float64")
        if self.coupling < 1:
            warnings.warn(
                f"coupling = {self.coupling} is in (0, 1): the two-body interaction is attractive",
                AttractiveCouplingWarning, stacklevel=2)

    @property
    def tau(self) -> float:
        """Radial measure exponent: tau = N + 2s - 1 + lambda r (2N - r - 1)."""
        N, r = self.n_particles, self.trunc_range
        return N + 2 * self.degree - 1 + self.coupling * r * (2 * N - r - 1)

    @property
    def alpha(self) -> float:
        """Laguerre parameter alpha = (tau - 1)/2; > 0 for all valid params."""
        return (self.tau - 1) / 2

    @property
    def pair_count(self) -> int:
        """Number of interacting pairs, r(2N - r - 1)/2.

        N-1 at r = 1 (nearest-neighbor model), N(N-1)/2 at r = N-1 (full range).
        """
        N, r = self.n_particles, self.trunc_range
        return r * (2 * N - r - 1) // 2

    def to_json_dict(self) -> dict:
        return {
            "N": self.n_particles,
            "lambda": self.coupling,
            "r": self.trunc_range,
            "omega": self.omega,
            "s": self.degree,
            "m": self.ext_index,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModelParams":
        """Build from a JSON document with exactly the keys N, lambda, r, omega, s, m; the
        values are checked by __post_init__."""
        if not isinstance(data, dict):
            raise ValidationError(f"parameter document must be a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - set(PARAM_JSON_KEYS))
        if unknown:
            raise ValidationError(f"unknown parameter keys: {', '.join(unknown)}")
        missing = sorted(set(PARAM_JSON_KEYS) - set(data))
        if missing:
            raise ValidationError(f"missing parameter keys: {', '.join(missing)}")
        return cls(*(data[key] for key in PARAM_JSON_KEYS))


@dataclass(frozen=True)
class Configuration:
    """Ordered N-particle position vector: finite, strictly increasing positions, in the
    ordered sector where the pair product is positive.  Particles may come arbitrarily close;
    `manybody.local_energy` raises NonFiniteError on a term that leaves float64."""

    positions: tuple

    def __post_init__(self):
        pos = tuple(float(x) for x in self.positions)
        object.__setattr__(self, "positions", pos)
        if len(pos) < 2:
            raise ValidationError(f"positions must have at least 2 entries, got {len(pos)}")
        if not all(np.isfinite(pos)):
            raise ValidationError("positions must be finite")
        gaps = np.diff(pos)
        if np.any(gaps <= 0):
            i = int(np.argmax(gaps <= 0))
            raise ValidationError(
                f"positions must be strictly increasing: x[{i}]={pos[i]} >= x[{i + 1}]={pos[i + 1]}")

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def hyperradius(self) -> float:
        """rho = sqrt(sum x_i^2), the collective radial coordinate."""
        return float(np.sqrt(np.sum(np.asarray(self.positions) ** 2)))


def energy_level(n, p: ModelParams) -> float:
    """E_n = omega (2n + alpha + 1); independent of the extension index m."""
    n = _check_index("n", n, 0)
    return p.omega * (2 * n + p.alpha + 1)


def turning_point_g(n, p: ModelParams) -> float:
    """g = omega rho^2 at the harmonic turning point of level n, 2 E_n / omega =
    2(2n + alpha + 1), the centrifugal term ignored; `wall_g` and the tau < 4
    `solver.solver_grid` end past it."""
    n = _check_index("n", n, 0)
    return 2 * (2 * n + p.alpha + 1)


def wall_g(n, p: ModelParams) -> float:
    """g = s^2 of the wall that ends every default domain holding levels 0..n: the solver grid
    (tau >= 4), the Gram rule and its node counts, the residual grid and the table rho_max.
    It is g_t + max(40, (3 S sqrt(g_t))^(2/3)), g_t = `turning_point_g`(n, p), S =
    WALL_DECAY_NATS.

    Past g_t level n decays like exp(-int kappa ds) with kappa = sqrt(g - g_t).
    With ds = dg / (2 sqrt(g)) and D = g - g_t << g_t the exponent is
    D^(3/2) / (3 sqrt(g_t)), so the second term is where it reaches S nats.  A fixed margin
    buys less decay as g_t grows: 40 gives S nats at g_t = 19 (k = 4, tau = 6) but 7.4 at
    g_t = 131 (k = 32), where the solver's top level at N=3, lambda=1, r=1, m=60 moved by
    3.47 tol_iso on 8001 points; the wall at fixed S moves it by 0.03 tol_iso.
    """
    g_t = turning_point_g(n, p)
    return g_t + max(40.0, (3 * WALL_DECAY_NATS * math.sqrt(g_t)) ** (2 / 3))


@functools.lru_cache(maxsize=16)
def trap_units(p: ModelParams) -> ModelParams:
    """p with omega = 1, the units of the radial checks and the many-body scan: lengths in
    trap lengths s = sqrt(omega) rho, energies in omega.  Phi_n and v_new / omega depend on
    rho only via g = s^2, so H(omega) = omega H(1); `_omega_scaled` and `norm` scale back."""
    return replace(p, omega=1.0)


def _omega_scaled(omega: float, values, what: str):
    """omega times trap-unit values, or NonFiniteError naming what where one leaves float64's
    normal range (the rule of `wavefunctions.norm`): outside it a value is inf or keeps fewer
    than 53 bits, and rounding would decide verdicts.  The extreme products decide it."""
    magnitude = np.abs(values)
    if not (omega * float(magnitude.min()) >= np.finfo(float).tiny
            and omega * float(magnitude.max()) <= np.finfo(float).max):
        raise NonFiniteError(f"{what} scaled by omega = {omega:.17g} leaves float64's normal range")
    return omega * np.asarray(values)


# Most elements one block of a pair-window pass holds in its pair-sized arrays (samples
# x window terms); the samples are walked in blocks of as many rows as fit, at least one.
BLOCK_ELEMENTS = 1 << 20


def _row_blocks(n_rows: int, row_elements: int):
    """Slices covering n_rows rows, each of at most BLOCK_ELEMENTS // row_elements rows (>= 1)."""
    size = max(1, BLOCK_ELEMENTS // max(1, row_elements))
    return [slice(start, start + size) for start in range(0, n_rows, size)]


@functools.lru_cache(maxsize=16)
def _pair_window(n: int, r: int):
    """Index arrays of the window |i - j| <= r, built once per (N, r) and read-only.

    left, right -- the P pairs i < j <= i + r, ordered by j - i, then i; index P, one
                   past the last pair, is the padding slot, where `_pair_terms` keeps a zero
    partner     -- (min(2r, N - 1), N): column i holds the pairs of particle i, by partner
    sign        -- partner's shape + (1,): +1 where particle i is that pair's right end
    triples     -- (2, min(r, N - 1 - r), N): the boundary triples (i, j, k) with
                   j - i, k - j <= r < k - i, by middle particle j.  Row t holds the
                   pair (j - a_t, j) in triples[0] and (j, j + b_t) in triples[1], with
                   b_t = min(r, N - 1 - j) - t and a_t = r + 1 - b_t, so the triples of
                   the leg (j - a_t, j) are the legs (j, k) of rows t' <= t: the
                   three-body sum is sum_t 1/gap[triples[0]] (running @ 1/gap[triples[1]])
    running     -- the lower-triangular ones that take those running sums over t

    Ordered by distance, a row of the interior particles reads consecutive pairs.
    """
    i = np.arange(n)
    distance = np.arange(1, r + 1)
    start = np.concatenate(([0], np.cumsum(n - distance)))  # position of pair (0, k) at k - 1
    left = np.concatenate([np.arange(n - k) for k in distance])
    right = left + np.repeat(distance, n - distance)

    def pair(lo, hi, valid):
        return np.where(valid, start[np.where(valid, hi - lo - 1, 0)] + lo, len(left))

    low = np.maximum(i - r, 0)
    j = low + np.arange(min(2 * r, n - 1))[:, None]  # partners low, ..., i - 1, i + 1, ..., i + r
    j += j >= i
    partner = pair(np.minimum(i, j), np.maximum(i, j), j <= np.minimum(i + r, n - 1))
    sign = np.where(np.append(right, n)[partner] == i, 1.0, -1.0)[..., None]
    a_max, b_max = np.minimum(r, i), np.minimum(r, n - 1 - i)
    t = np.arange(min(r, n - 1 - r))[:, None]
    valid = t < a_max + b_max - r
    b = b_max - t
    triples = np.stack((pair(i - (r + 1 - b), i, valid), pair(i, i + b, valid)))
    arrays = (left, right, partner, sign, triples, np.tri(len(t)))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _pair_terms(rows, p: ModelParams):
    """One pass over the window |i - j| <= r of the ordered (S, N) rows, in blocks of rows
    under BLOCK_ELEMENTS, each gathering every 1/u, u = x_j - x_i, once (`_pair_window`).
    Returns the interaction of each row (`v_interaction`: each middle particle sums its
    boundary triples as inner legs times running sums of outer legs) and each particle's
    partner sums (sum +-1/u, sum 1/u^2), each (N, S), + where it is the right end: lambda
    times them is the pair part of (d_i log Psi, d_i^2 log Psi)."""
    n, lam, st = rows.shape[-1], p.coupling, rows.T
    left, right, partner, sign, triples, running = _pair_window(n, p.trunc_range)
    total, grad, lap = np.empty(len(rows)), np.empty(st.shape), np.empty(st.shape)
    for block in _row_blocks(len(rows), len(left) + triples.size + 2 * partner.size):
        xt = st[:, block]
        width = xt.shape[1]
        inv = np.zeros((len(left) + 1, width))  # (pairs, samples) and the zero padding slot
        np.divide(1, xt[right] - xt[left], out=inv[:-1])
        inner, outer = np.take(inv, triples, axis=0).reshape(2, len(running), n * width)
        three = (inner * (running @ outer)).reshape(-1, width)
        terms = np.concatenate((lam * (lam - 1) * inv * inv, -lam ** 2 * three))
        # each sample sums its own contiguous row, so the blocks do not change its total
        total[block] = np.ascontiguousarray(terms.T).sum(axis=1)
        near = inv[partner]  # (partners, N, samples)
        grad[:, block], lap[:, block] = np.sum(sign * near, axis=0), np.sum(near * near, axis=0)
    return total, grad, lap


def v_interaction(c, p: ModelParams):
    """Two- plus three-body interaction energy.

    Two-body: lambda(lambda-1) / (x_i - x_j)^2 over pairs with |i-j| <= r.
    Three-body: lambda^2 (x_j - x_i)(x_j - x_k) / ((x_j - x_i)^2 (x_j - x_k)^2)
    over triples i < j < k whose gaps ``j-i`` and ``k-j`` are both within r
    while the outer pair is not (k - i > r).  The window matters: when
    k - i <= r the three center-choice terms of the triple cancel among
    themselves, so only these boundary triples survive.  This is exactly the
    combination canceled by the kinetic action on the pair-product prefactor,
    and it makes the full-range limit r = N-1 three-body free.

    c is a Configuration (a float) or an array of ordered positions with last
    axis N (one value per row), summed in the one pass of `_pair_terms`.
    """
    x = np.asarray(c.positions if isinstance(c, Configuration) else c, dtype=float)
    n = x.shape[-1]
    if n != p.n_particles:
        raise ValidationError(f"configuration has {n} positions but n_particles = {p.n_particles}")
    total = _pair_terms(x.reshape(-1, n), p)[0].reshape(x.shape[:-1])[()]
    return float(total) if isinstance(c, Configuration) else total


def v_new(rho, p: ModelParams):
    """Rational extension term of the radial potential, for g = omega rho^2, a = alpha,
    w = omega, D = L_m^(a-1) and every L at -g:

        v_new = 2 w [(a-1) L_{m-2}^(a) - g L_{m-2}^(a+1) - m L_{m-1}^(a-1)] / D
                + 4 w g (L_{m-1}^(a) / D)^2

    In the paper's form the bracket reads -g L_{m-2}^(a+1) + (a+g-1) L_{m-1}^(a) - m D, whose
    O(m) terms cancel to O(1/a); m D = (m+a-1) L_{m-1}^(a-1) + g L_{m-1}^(a) and L_{m-1}^(a)
    - L_{m-1}^(a-1) = L_{m-2}^(a) remove that cancellation.  One formula for every m: at
    m = 0, D = L_0 = 1 and L_{-1} = L_{-2} = 0 make it exactly 0.0.  D > 0: no pole.
    Three recurrences: L_{m-2}^(a) and L_{m-1}^(a) come from one pass.
    """
    rho_a = _check_nonnegative("rho", rho)
    m, a, w = p.ext_index, p.alpha, p.omega
    g = w * rho_a ** 2
    den, (l2, l1) = _lag(m, a - 1, -g), _lag_pair(m - 1, a, -g)
    val = (2 * w * ((a - 1) * l2 - g * _lag(m - 2, a + 1, -g) - m * (l1 - l2)) / den
           + 4 * w * g * (l1 / den) ** 2)
    return _maybe_scalar(val, rho)


def v_new_x1_two_term(rho, p: ModelParams):
    """Two-term closed form of the m = 1 extension,

        4 w / (2 g + tau - 1) - 8 w (tau - 1) / (2 g + tau - 1)^2,

    algebraically equal to v_new at m = 1; kept separate as an independent
    expression for cross-consistency checks.
    """
    if p.ext_index != 1:
        raise ValidationError(f"two-term form is defined for ext_index m = 1, got m = {p.ext_index}")
    rho_a = _check_nonnegative("rho", rho)
    w, tau = p.omega, p.tau
    den = 2 * w * rho_a ** 2 + tau - 1
    return _maybe_scalar(4 * w / den - 8 * w * (tau - 1) / den ** 2, rho)


@dataclass(frozen=True)
class ExtConstants:
    """Constants of the single-fraction form of the m = 1 extension,

        v_new(rho) = (alpha1 + alpha2 w^2 rho^2) / (beta1 + beta2 w^2 rho^2)^2.

    beta1 + beta2 w^2 rho^2 = 2 g + tau - 1 > 0 for all rho, so no pole.
    """

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    def evaluate(self, rho, omega):
        rho_a = np.asarray(rho, dtype=float)
        w2r2 = (omega * rho_a) ** 2  # w^2 alone leaves float64 from w ~ 1e154
        val = (self.alpha1 + self.alpha2 * w2r2) / (self.beta1 + self.beta2 * w2r2) ** 2
        return _maybe_scalar(val, rho)


def ext_constants(p: ModelParams) -> ExtConstants:
    """Constants (alpha1, alpha2, beta1, beta2) = (-4 w (tau-1), 8, tau-1, 2/w).

    Defined only for the m = 1 rational form; other m use v_new directly.
    """
    if p.ext_index != 1:
        raise ValidationError(
            f"ext_constants applies to the m = 1 rational form only, got m = {p.ext_index}")
    w, tau = p.omega, p.tau
    return ExtConstants(alpha1=-4 * w * (tau - 1), alpha2=8.0, beta1=tau - 1, beta2=2 / w)


def v_eff_radial(rho, p: ModelParams, extended: bool):
    """Effective 1D potential for u(rho) = rho^(tau/2) Phi(rho):

        V_eff = w^2 rho^2 / 2 + (tau/2)(tau/2 - 1) / (2 rho^2) [+ v_new]

    so that -u''/2 + V_eff u = E u is equivalent to the radial equation
    Phi'' + (tau/rho) Phi' + 2 (E - V_ext) Phi = 0.
    """
    rho_a = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(rho_a)) or np.any(rho_a <= 0):
        raise ValidationError("rho must be finite and > 0 (centrifugal term has a pole at 0)")
    tau, w = p.tau, np.float64(p.omega)  # w ** 2 gives inf, not OverflowError, past 1e154
    val = 0.5 * w ** 2 * rho_a ** 2 + (tau / 2) * (tau / 2 - 1) / (2 * rho_a ** 2)
    if extended:
        val = val + v_new(rho_a, p)
    return _maybe_scalar(val, rho)
