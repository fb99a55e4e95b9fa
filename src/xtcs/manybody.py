"""Direct N-body check: the local energy (H Psi)/Psi on explicit configurations.

For an exact eigenfunction the local energy is a constant equal to the
eigenvalue, independent of the configuration; any configuration dependence
beyond finite-difference noise falsifies either the wavefunction, the
interaction, or the extension term.  This drives the whole implementation
chain at once, which is why the Laplacian uses finite differences instead
of hand-derived gradients: nothing is trusted twice.

Everything works in the ordered sector x_1 < ... < x_N, where the
pair-product prefactor is positive and single-valued for non-integer
coupling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ValidationError
from .laguerre import _lag
from .model import (Configuration, ModelParams, _pair_window, _row_blocks, energy_level,
                    v_interaction, v_new)
from .solver import SIZE_BUDGET

__all__ = [
    "local_energy",
    "sample_configurations",
    "ConstancyStats",
    "constancy_scan",
]


# Fourth-order second difference (-1, 16, [-30], 16, -1) / 12: the weights sum
# to 0, so the center drops out of sum_d w_d (Psi_d / Psi - 1).
STENCIL_SHIFTS = np.array([-2.0, -1.0, 1.0, 2.0])
STENCIL_WEIGHTS = np.array([-1.0, 16.0, 16.0, -1.0]) / 12
# Stencil step in trap lengths 1/sqrt(omega); adjacent particles must stay 10 steps apart.
FD_STEP = 1e-3


def _fd_step(p: ModelParams) -> float:
    return FD_STEP / math.sqrt(p.omega)


@functools.lru_cache(maxsize=16)
def _stencil_index(n: int, r: int):
    """(min(2r, N - 1), N * 4) read-only rows into the (4, pairs + padding) terms
    lambda log1p(d_s / gap_q) of model._pair_window, flattened: column 4 i + s lists, one
    partner per row, the terms particle i takes at shift s.  That is row s of pair q when i
    is its right end and row 3 - s when i is its left end, since log1p(-d_s / gap) =
    log1p(d_{3-s} / gap) (STENCIL_SHIFTS is symmetric)."""
    left, right, partner = _pair_window(n, r)[:3]
    shift = np.arange(len(STENCIL_SHIFTS))
    right_end = (np.append(right, n)[partner] == np.arange(n))[:, :, None]  # n: padding slot
    row = np.where(right_end, shift, shift[::-1])
    index = (row * (len(left) + 1) + partner[:, :, None]).reshape(len(partner), -1)
    index.flags.writeable = False
    return index


def _log_psi_ratios(x, wp: ModelParams, step: float):
    """log Psi(x + d h e_i) - log Psi(x), shape (S, N, 4), summed term by term as |log Psi|
    reaches ~1e3: lambda log1p(+-d h / |x_i - x_j|) per neighbor, -omega (2 x_i d h + d^2 h^2)/2
    from exp(-g/2), and the change in log L_m^(alpha)(-g) - log L_m^(alpha-1)(-g), rest of Phi_0.

    The pair terms take one pass over the window |i - j| <= r: every gap is gathered at once,
    lambda log1p is evaluated once per pair and shift, and each particle sums the terms of its
    pairs from one gather (_stencil_index), in blocks of samples under model.BLOCK_ELEMENTS.
    """
    n, k = x.shape[-1], len(STENCIL_SHIFTS)
    delta = step * STENCIL_SHIFTS
    dg = wp.omega * (2 * x[..., None] * delta + delta ** 2)
    out = -dg / 2
    left, right = _pair_window(n, wp.trunc_range)[:2]
    index = _stencil_index(n, wp.trunc_range)
    for rows in _row_blocks(len(x), k * len(left) + index.size):
        xt = x[rows].T
        terms = np.zeros((k, len(left) + 1, xt.shape[1]))  # (shifts, pairs + padding, samples)
        np.divide(delta[:, None, None], xt[right] - xt[left], out=terms[:, :-1])
        np.log1p(terms, out=terms)
        terms *= wp.coupling
        sums = np.take(terms.reshape(-1, xt.shape[1]), index, axis=0).sum(axis=0)
        out[rows] += sums.reshape(n, k, -1).transpose(2, 0, 1)
    if wp.ext_index:
        m, a = wp.ext_index, wp.alpha
        g = wp.omega * np.sum(x ** 2, axis=-1)[:, None, None]
        shifted, base = (np.log(_lag(m, a, -h)) - np.log(_lag(m, a - 1, -h)) for h in (g + dg, g))
        out += shifted - base
    return out


def local_energy(c, p: ModelParams, v_new_scale: float = 1.0,
                 wavefunction_params: ModelParams | None = None):
    """(H Psi)/Psi with the ground-state Psi, for a Configuration (a float)
    or an (S, N) array of ordered positions (S values, same pass).

    The kinetic term is a fourth-order central second difference per
    coordinate with step FD_STEP / sqrt(omega); adjacent separations must be at
    least 10 steps so no stencil point crosses the ordered-sector boundary.
    wavefunction_params evaluates Psi with different parameters than the
    Hamiltonian (negative control: a perturbed Psi is not an eigenfunction);
    v_new_scale multiplies the extension term of H only.  A NaN or infinite
    result raises NonFiniteError naming the stage.
    """
    if p.degree != 0:
        raise ValidationError(f"local energy implemented for degree s = 0 only, got s = {p.degree}")
    single = isinstance(c, Configuration)
    x = np.atleast_2d(np.asarray(c.positions if single else c, dtype=float))
    if x.shape[-1] != p.n_particles:
        raise ValidationError(
            f"configuration has {x.shape[-1]} positions but n_particles = {p.n_particles}")
    step = _fd_step(p)
    gaps = np.diff(x, axis=-1)
    if np.any(gaps < 10 * step):
        s, i = np.argwhere(gaps < 10 * step)[0]
        raise ValidationError(
            f"separation x[{i + 1}]-x[{i}] = {gaps[s, i]:.3e} below 10 fd_step = {10 * step:.3e}; "
            "the FD stencil would cross the ordered-sector boundary")
    wp = p if wavefunction_params is None else wavefunction_params
    if wp.degree != 0 or wp.n_particles != p.n_particles:
        raise ValidationError("wavefunction_params must have degree s = 0 and the same N")

    with np.errstate(over="ignore", invalid="ignore"):  # a Laguerre overflow raises below
        ratios = np.expm1(_log_psi_ratios(x, wp, step))
        kinetic = -0.5 * np.sum(ratios @ STENCIL_WEIGHTS, axis=-1) / step ** 2
        rho2 = np.sum(x ** 2, axis=-1)
        extension = v_new_scale * v_new(np.sqrt(rho2), p)
    for stage, term in (("Psi ratio", kinetic), ("v_new", extension)):
        if not np.all(np.isfinite(term)):
            raise NonFiniteError(f"local energy: {stage} is not finite for {p}")
    energies = kinetic + 0.5 * p.omega * (p.omega * rho2) + v_interaction(x, p) + extension
    return float(energies[0]) if single else energies


def _sample_positions(p: ModelParams, n_samples: int, seed: int):
    """(n_samples, N) ordered positions; see sample_configurations.  Above SIZE_BUDGET
    samples x N x stencil shifts, the size of `local_energy`'s ratios, it raises."""
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    if n_samples * p.n_particles * len(STENCIL_SHIFTS) > SIZE_BUDGET:
        raise ValidationError(f"{n_samples} samples of {p.n_particles} particles exceed the size "
                              f"budget of {SIZE_BUDGET} samples x particles x 4 stencil shifts; "
                              "lower --samples")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(p.omega)
    centers = (np.arange(p.n_particles) - (p.n_particles - 1) / 2) * scale
    half = 0.8 * scale / 2
    # rows come in stream order, as if drawn one configuration at a time
    return centers + rng.uniform(-half, half, (n_samples, p.n_particles))


def sample_configurations(p: ModelParams, n_samples: int, seed: int):
    """Ordered configurations from a product of disjoint uniform windows.

    Window i is centered at (i - (N-1)/2)/sqrt(omega) with width 0.8/sqrt(omega), so
    draws are ordered and neighbours stay 0.2/sqrt(omega) = 200 FD_STEP / sqrt(omega)
    apart, 20x the 10 steps `local_energy` needs.
    """
    return [Configuration(tuple(x), min_separation=10 * _fd_step(p))
            for x in _sample_positions(p, n_samples, seed)]


@dataclass(frozen=True)
class ConstancyStats:
    """Summary of a local-energy scan over sampled configurations."""

    params: ModelParams
    n_samples: int
    seed: int
    mean: float
    stddev: float
    max_dev: float
    e_analytic: float

    @property
    def relative_spread(self) -> float:
        return self.stddev / abs(self.mean)

    @property
    def relative_mean_error(self) -> float:
        return abs(self.mean - self.e_analytic) / abs(self.e_analytic)

    def passed(self) -> bool:
        return self.relative_spread <= 1e-5 and self.relative_mean_error <= 1e-5

    def to_json_dict(self):
        return {
            "params": self.params.to_json_dict(),
            "n_samples": self.n_samples,
            "seed": self.seed,
            "mean": self.mean,
            "stddev": self.stddev,
            "max_dev": self.max_dev,
            "E_analytic": self.e_analytic,
            "pass": self.passed(),
        }


def constancy_scan(p: ModelParams, n_samples: int = 200, seed: int = 1,
                   v_new_scale: float = 1.0,
                   wavefunction_params: ModelParams | None = None) -> ConstancyStats:
    """Local-energy statistics over seeded configurations.

    Accumulation uses compensated summation over the fixed sample list, so
    the result is independent of evaluation order; deterministic for a
    fixed seed.
    """
    x = _sample_positions(p, n_samples, seed)
    energies = local_energy(x, p, v_new_scale, wavefunction_params)
    mean = math.fsum(energies) / n_samples
    dev = energies - mean
    # in units of |mean|: at omega ~ 1e-300 the squared deviations would underflow to 0
    stddev = abs(mean) * math.sqrt(math.fsum((dev / abs(mean)) ** 2) / n_samples)
    max_dev = float(np.max(np.abs(dev)))
    return ConstancyStats(
        params=p, n_samples=n_samples, seed=seed, mean=mean,
        stddev=stddev, max_dev=max_dev, e_analytic=energy_level(0, p))
