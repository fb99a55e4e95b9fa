"""Direct N-body check: the local energy (H Psi)/Psi on explicit configurations.

For an exact eigenfunction the local energy is the eigenvalue at every configuration; any
dependence beyond rounding falsifies the wavefunction, the interaction or the extension
term, so this drives the whole implementation chain at once.  The derivatives of log Psi
come from second-order jets (`laguerre.Jet`) run through the recurrence that builds Psi,
not from hand-derived gradients: nothing is trusted twice.  Everything works in the
ordered sector x_1 < ... < x_N, where the pair product is positive and single-valued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ValidationError
from .laguerre import Jet, _lag
from .model import (SIZE_BUDGET, Configuration, ModelParams, _omega_scaled, _pair_terms,
                    energy_level, trap_units, v_new)

__all__ = [
    "local_energy",
    "sample_configurations",
    "ConstancyStats",
    "constancy_scan",
]


def _log_psi_derivatives(s, s2, wp: ModelParams, sums):
    """(d_i log Psi, d_i^2 log Psi), each (N, S), at ordered positions s (S, N) in trap
    lengths, for trap-unit wp.  Pairs: the jet log rule on each gap u = s_j - s_i (d_j u = 1
    = -d_i u, d^2 u = 0) of the window |i - j| <= r gives lambda (+-1/u, -1/u^2), and sums
    are their partner sums (sum +-1/u, sum 1/u^2) from `model._pair_terms`.  Radial part:
    -g/2 + log L_m^(alpha)(-g) - log L_m^(alpha-1)(-g) on a Jet in g = s2 = |s|^2 (the
    caller's), chained through d_i g = 2 s_i, d_i^2 g = 2."""
    (grad, lap), g = sums, Jet(s2, 1.0, 0.0)
    m, a = wp.ext_index, wp.alpha
    radial = -g / 2 + np.log(_lag(m, a, -g)) - np.log(_lag(m, a - 1, -g))
    dg = 2 * s.T
    return (wp.coupling * grad + radial.d1 * dg,
            radial.d2 * dg ** 2 + 2 * radial.d1 - wp.coupling * lap)


def local_energy(c, p: ModelParams, v_new_scale: float = 1.0,
                 wavefunction_params: ModelParams | None = None):
    """(H Psi)/Psi with the ground-state Psi, for a Configuration (a float) or an (S, N)
    array of finite, strictly increasing positions (S values, same pass).

    It runs in trap lengths s = sqrt(omega) x at `model.trap_units`(p), where H(omega) =
    omega H(1): the kinetic term -1/2 sum_i (d_i^2 log Psi + (d_i log Psi)^2), from
    `_log_psi_derivatives`, the trap, v_interaction and v_new are summed, then scaled by
    `model._omega_scaled`; one `model._pair_terms` pass gives the interaction and the pair
    part of log Psi.  wavefunction_params evaluates Psi with other parameters, r and omega
    excepted (negative control: a perturbed Psi is not an eigenfunction); v_new_scale scales
    the extension term of H only.  A NaN or infinite term raises NonFiniteError naming it."""
    if p.degree != 0:
        raise ValidationError(f"local energy implemented for degree s = 0 only, got s = {p.degree}")
    single = isinstance(c, Configuration)
    x = np.atleast_2d(np.asarray(c.positions if single else c, dtype=float))
    if x.shape[-1] != p.n_particles:
        raise ValidationError(
            f"configuration has {x.shape[-1]} positions but n_particles = {p.n_particles}")
    if not (np.all(np.isfinite(x)) and np.all(np.diff(x, axis=-1) > 0)):
        raise ValidationError("positions must be finite and strictly increasing")
    wp = p if wavefunction_params is None else wavefunction_params
    if wp.degree or (wp.n_particles, wp.trunc_range, wp.omega) != (p.n_particles, p.trunc_range, p.omega):
        raise ValidationError("wavefunction_params must have degree 0 and the same N, r and omega")

    unit, s = trap_units(p), math.sqrt(p.omega) * x
    with np.errstate(over="ignore", invalid="ignore"):  # each stage raises on its result
        s2 = np.sum(s ** 2, axis=-1)
        interaction, *sums = _pair_terms(s, unit)
        grad, lap = _log_psi_derivatives(s, s2, trap_units(wp), sums)
        kinetic = -0.5 * np.sum(lap + grad * grad, axis=0)
        extension = v_new_scale * v_new(np.sqrt(s2), unit)
    for stage, term in (("kinetic energy", kinetic), ("v_new", extension),
                        ("v_interaction", interaction)):
        if not np.all(np.isfinite(term)):
            raise NonFiniteError(f"local energy: {stage} is not finite for {p}")
    energies = _omega_scaled(p.omega, kinetic + 0.5 * s2 + interaction + extension,
                             "local energy: the energy")
    return float(energies[0]) if single else energies


def _sample_positions(p: ModelParams, n_samples: int, seed: int):
    """(n_samples, N) ordered positions; see sample_configurations.  Above SIZE_BUDGET samples
    x N, the size of each (S, N) array of `local_energy` (x, d log Psi, d^2 log Psi), it raises."""
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    if n_samples * p.n_particles > SIZE_BUDGET:
        raise ValidationError(f"{n_samples} samples of {p.n_particles} particles exceed the size "
                              f"budget of {SIZE_BUDGET} samples x particles; lower --samples")
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
    draws are strictly increasing and neighbours stay at least 0.2/sqrt(omega) apart.
    """
    return [Configuration(tuple(x)) for x in _sample_positions(p, n_samples, seed)]


# The verdict: relative spread and relative mean error against E_0 each at most this.
CONSTANCY_GATE = 1e-5


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
        return self.relative_spread <= CONSTANCY_GATE and self.relative_mean_error <= CONSTANCY_GATE

    def to_json_dict(self):
        return {"params": self.params.to_json_dict(), "n_samples": self.n_samples,
                "seed": self.seed, "mean": self.mean, "stddev": self.stddev,
                "max_dev": self.max_dev, "E_analytic": self.e_analytic, "pass": self.passed()}


def constancy_scan(p: ModelParams, n_samples: int = 200, seed: int = 1,
                   v_new_scale: float = 1.0,
                   wavefunction_params: ModelParams | None = None) -> ConstancyStats:
    """Local-energy statistics over seeded configurations.

    Accumulation uses compensated summation over the fixed sample list, so
    the result is independent of evaluation order; deterministic for a
    fixed seed.
    """
    x = _sample_positions(p, n_samples, seed)
    energies, e_0 = local_energy(x, p, v_new_scale, wavefunction_params), energy_level(0, p)
    # in units of E_0 and |mean|: the sum would overflow at omega ~ 1e306, and the squared
    # deviations would underflow to 0 at omega ~ 1e-300
    mean = e_0 * (math.fsum(energies / e_0) / n_samples)
    dev = energies - mean
    stddev = abs(mean) * math.sqrt(math.fsum((dev / abs(mean)) ** 2) / n_samples)
    max_dev = float(np.max(np.abs(dev)))
    return ConstancyStats(params=p, n_samples=n_samples, seed=seed, mean=mean, stddev=stddev,
                          max_dev=max_dev, e_analytic=e_0)
