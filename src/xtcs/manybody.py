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

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ValidationError
from .laguerre import _lag
from .model import Configuration, ModelParams, energy_level, v_interaction, v_new

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


def _log_psi_ratios(x, wp: ModelParams, step: float):
    """log Psi(x + d h e_i) - log Psi(x), shape (S, N, 4), summed term by term as |log Psi|
    reaches ~1e3: lambda log1p(+-d h / |x_i - x_j|) per neighbor, -omega (2 x_i d h + d^2 h^2)/2
    from exp(-g/2), and the change in log L_m^(alpha)(-g) - log L_m^(alpha-1)(-g), rest of Phi_0."""
    delta = step * STENCIL_SHIFTS
    dg = wp.omega * (2 * x[..., None] * delta + delta ** 2)
    out = -dg / 2
    for k in range(1, wp.trunc_range + 1):
        gap = (x[:, k:] - x[:, :-k])[..., None]
        out[:, :-k] += wp.coupling * np.log1p(-delta / gap)
        out[:, k:] += wp.coupling * np.log1p(delta / gap)
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
    energies = kinetic + 0.5 * p.omega ** 2 * rho2 + v_interaction(x, p) + extension
    return float(energies[0]) if single else energies


def _sample_positions(p: ModelParams, n_samples: int, seed: int):
    """(n_samples, N) ordered positions; see sample_configurations."""
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(p.omega)
    centers = (np.arange(p.n_particles) - (p.n_particles - 1) / 2) * scale
    half = 0.8 * scale / 2
    out, attempts = np.empty((0, p.n_particles)), 0
    while len(out) < n_samples:
        if attempts >= 100 * n_samples:
            raise ValidationError(
                f"could not draw {n_samples} valid configurations in {attempts} attempts")
        # rows come in stream order, as if drawn one configuration at a time
        x = centers + rng.uniform(-half, half, (n_samples - len(out), p.n_particles))
        attempts += len(x)
        out = np.concatenate([out, x[np.min(np.diff(x, axis=1), axis=1) >= 10 * _fd_step(p)]])
    return out


def sample_configurations(p: ModelParams, n_samples: int, seed: int):
    """Ordered configurations from a product of disjoint uniform windows.

    Window i is centered at (i - (N-1)/2)/sqrt(omega) with width
    0.8/sqrt(omega); the windows are disjoint, so draws are ordered by
    construction.  Draws violating the 10 * FD_STEP / sqrt(omega) separation
    rule are rejected and redrawn (up to 100x oversampling).
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
    var = math.fsum(dev ** 2) / n_samples
    max_dev = float(np.max(np.abs(dev)))
    return ConstancyStats(
        params=p, n_samples=n_samples, seed=seed, mean=mean,
        stddev=math.sqrt(var), max_dev=max_dev, e_analytic=energy_level(0, p))
