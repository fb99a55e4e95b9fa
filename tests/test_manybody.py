"""Many-body local-energy oracle: constancy, negative controls, determinism."""

import dataclasses
import math

import numpy as np
import pytest

from xtcs import (Configuration, ModelParams, NonFiniteError, ValidationError, constancy_scan,
                  energy_level, local_energy, manybody_groundstate, sample_configurations,
                  v_interaction, v_new)
from xtcs import manybody, model
from xtcs.laguerre import _lag

from conftest import BATTERY_BASE, M_VALUES, make_params


# -- reference: the scalar loop the batched path replaced ----------------------

def reference_v_interaction(x, p):
    """Interaction summed particle by particle and triple by triple."""
    lam, r, n = p.coupling, p.trunc_range, len(x)
    two = 0.0
    for i in range(n):
        for j in range(i + 1, min(n, i + r + 1)):
            two += lam * (lam - 1) / (x[i] - x[j]) ** 2
    three = 0.0
    for j in range(1, n - 1):
        for i in range(max(0, j - r), j):
            for k in range(j + 1, min(n, j + r + 1)):
                if k - i > r:
                    three += lam ** 2 / ((x[j] - x[i]) * (x[j] - x[k]))
    return two + three


def reference_log_psi_derivatives(x, wp):
    """(d_i log Psi, d_i^2 log Psi), the pairs one index distance k = 1..r at a time and the
    radial part from the hand-written derivatives of its Laguerre factors,
    d/dg L_m^(a)(-g) = L_{m-1}^(a+1)(-g) and d^2/dg^2 L_m^(a)(-g) = L_{m-2}^(a+2)(-g)."""
    lam, w, m, a = wp.coupling, wp.omega, wp.ext_index, wp.alpha
    grad, lap = np.zeros(x.shape), np.zeros(x.shape)
    for k in range(1, wp.trunc_range + 1):
        inv = 1 / (x[:, k:] - x[:, :-k])
        grad[:, :-k] -= lam * inv
        grad[:, k:] += lam * inv
        lap[:, :-k] -= lam * inv ** 2
        lap[:, k:] -= lam * inv ** 2
    g = w * np.sum(x ** 2, axis=-1, keepdims=True)
    d1, d2 = -0.5, 0.0
    for b in (a, a - 1):  # log L_m^(a)(-g) - log L_m^(a-1)(-g)
        y, y1, y2 = _lag(m, b, -g), _lag(m - 1, b + 1, -g), _lag(m - 2, b + 2, -g)
        sign = 1 if b == a else -1
        d1, d2 = d1 + sign * y1 / y, d2 + sign * (y2 / y - (y1 / y) ** 2)
    return grad + d1 * 2 * w * x, lap + d2 * (2 * w * x) ** 2 + d1 * 2 * w


def reference_local_energy(c, p, fd_step=1e-3):
    """(H Psi)/Psi from Psi itself (manybody_groundstate) at all 4N+1
    stencil points, one validated Configuration per point."""
    x = np.asarray(c.positions)

    def psi(y):
        return manybody_groundstate(Configuration(tuple(y)), p)

    psi0 = psi(x)
    kinetic = 0.0
    for i in range(c.n):
        shifted = []
        for d in (-2, -1, 1, 2):
            xs = x.copy()
            xs[i] += d * fd_step
            shifted.append(psi(xs))
        second = (-shifted[3] + 16 * shifted[2] - 30 * psi0 + 16 * shifted[1]
                  - shifted[0]) / (12 * fd_step ** 2)
        kinetic += -0.5 * second / psi0
    trap = 0.5 * p.omega ** 2 * float(np.sum(x ** 2))
    return kinetic + trap + reference_v_interaction(x, p) + float(v_new(c.hyperradius, p))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", (3, 8, 16))
def test_batched_local_energy_matches_scalar_reference(n):
    for r in (1, n - 1):
        for m in M_VALUES:
            p = ModelParams(n, 1.5, r, 0.9, ext_index=m)
            configs = sample_configurations(p, 3, seed=n + 10 * r + 100 * m)
            batched = local_energy(np.array([c.positions for c in configs]), p)
            e0 = energy_level(0, p)
            for c, e in zip(configs, batched):
                assert abs(e - reference_local_energy(c, p)) <= 1e-7 * e0, (n, r, m, c)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pair_window_log_psi_derivatives_match_the_per_distance_loop():
    # the jet path takes trap lengths s = sqrt(omega) x and trap-unit parameters
    n = 8
    for r in range(1, n):
        for m in (0, 1, 3):
            p = ModelParams(n, 1.3, r, 0.8, ext_index=m)
            s = np.sqrt(p.omega) * manybody._sample_positions(p, 20, seed=r + 10 * m)
            unit = model.trap_units(p)
            for jet, loop in zip(manybody._log_psi_derivatives(s, np.sum(s ** 2, axis=-1), unit),
                                 reference_log_psi_derivatives(s, unit)):
                np.testing.assert_allclose(jet.T, loop, rtol=1e-13,
                                           atol=1e-13 * np.max(np.abs(loop)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sample_blocks_give_the_one_block_energies(monkeypatch):
    row_blocks, default, sizes = model._row_blocks, model.BLOCK_ELEMENTS, []

    def recorded(n_rows, row_elements):
        blocks = row_blocks(n_rows, row_elements)
        sizes.append([len(range(n_rows)[block]) for block in blocks])
        return blocks

    monkeypatch.setattr(model, "_row_blocks", recorded)
    monkeypatch.setattr(manybody, "_row_blocks", recorded)
    for n, r, m in ((8, 1, 2), (8, 3, 0), (8, 7, 1), (12, 5, 3)):
        p = ModelParams(n, 1.6, r, 1.1, ext_index=m)
        x = manybody._sample_positions(p, 23, seed=n + r)
        monkeypatch.setattr(model, "BLOCK_ELEMENTS", default)
        sizes.clear()
        whole = local_energy(x, p), v_interaction(x, p)
        assert sizes == [[23]] * 3
        for budget in (1, 200, 1000):  # one sample per block, then blocks of several
            monkeypatch.setattr(model, "BLOCK_ELEMENTS", budget)
            sizes.clear()
            np.testing.assert_array_equal(local_energy(x, p), whole[0])
            np.testing.assert_array_equal(v_interaction(x, p), whole[1])
            assert len(sizes) == 3 and all(sum(s) == len(x) for s in sizes)
            assert budget > 1 or sizes == [[1] * len(x)] * 3
            if budget == 200 and (n, r) == (8, 1):
                assert all(len(s) > 1 and max(s) > 1 for s in sizes), sizes


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_interaction_matches_scalar_reference_for_every_range():
    n = 8
    for r in range(1, n):
        p = ModelParams(n, 1.7, r, 1.0)
        x = np.array([c.positions for c in sample_configurations(p, 4, seed=r)])
        batched = v_interaction(x, p)
        for row, v in zip(x, batched):
            ref = reference_v_interaction(row, p)
            assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref)), (r, row)
            assert v_interaction(Configuration(tuple(row)), p) == pytest.approx(v, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_single_configuration_is_the_batch_of_one():
    p = ModelParams(8, 2.0, 3, 1.2, ext_index=2)
    configs = sample_configurations(p, 30, seed=4)
    batched = local_energy(np.array([c.positions for c in configs]), p)
    singles = [local_energy(c, p) for c in configs]
    np.testing.assert_allclose(batched, singles, rtol=1e-12, atol=0)
    stats = constancy_scan(p, n_samples=30, seed=4)
    assert stats.mean == pytest.approx(math.fsum(singles) / 30, rel=1e-12)
    assert stats.max_dev == pytest.approx(max(abs(e - stats.mean) for e in singles),
                                          abs=1e-12 * stats.mean)


def test_two_particle_ground_state_energy():
    p = ModelParams(2, 1.0, 1, 1.0)
    c = Configuration((-0.4, 0.3))
    assert local_energy(c, p) == pytest.approx(2.0, abs=1e-6)


def test_two_particle_extended_same_energy():
    p = ModelParams(2, 1.0, 1, 1.0, ext_index=1)
    c = Configuration((-0.4, 0.3))
    assert local_energy(c, p) == pytest.approx(2.0, abs=1e-6)


def test_three_particle_nearest_neighbor_case():
    # exercises the three-body term directly
    p = ModelParams(3, 1.0, 1, 1.0)  # alpha = 2.5, E0 = 3.5
    c = Configuration((-1.0, 0.1, 1.3))
    assert local_energy(c, p) == pytest.approx(energy_level(0, p), abs=1e-6)


def test_local_energy_deterministic():
    p = ModelParams(3, 1.5, 2, 1.0, ext_index=2)
    c = Configuration((-0.9, 0.05, 1.1))
    assert local_energy(c, p) == local_energy(c, p)


def test_separation_guard():
    # no step to protect any more: close pairs are evaluated, unordered arrays are refused
    p = ModelParams(2, 1.0, 1, 1.0)
    assert local_energy(Configuration((0.0, 0.005)), p) == pytest.approx(2.0, rel=1e-12)
    for x in ([[0.3, 0.3]], [[0.3, -0.2]], [[0.0, np.nan]], [[0.0, np.inf]]):
        with pytest.raises(ValidationError, match="finite and strictly increasing"):
            local_energy(np.array(x), p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_terms_raise_naming_their_stage(monkeypatch):
    p = ModelParams(3, 2.0, 1, 1.0)
    with pytest.raises(NonFiniteError, match="local energy: kinetic energy is not finite"):
        local_energy(np.array([[-1.0, 0.0, 1e-170]]), p)  # 1/gap^2 leaves float64
    monkeypatch.setattr(manybody, "v_interaction", lambda x, p: np.full(len(x), np.inf))
    with pytest.raises(NonFiniteError, match="local energy: v_interaction is not finite"):
        local_energy(np.array([[-1.0, 0.0, 1.0]]), p)


def test_large_full_range_scan_is_exact_to_rounding():
    # N = 300, r = 299 (tau ~ 9e4, E_0 = 45,000): a fixed FD step read a mean error of 5.2e-5
    stats = constancy_scan(ModelParams(300, 1.0, 299, 1.0), n_samples=20, seed=1)
    assert stats.relative_mean_error <= 1e-12 and stats.relative_spread <= 1e-12


def test_s_nonzero_rejected():
    p = make_params((3, 2.0, 1, 1, 1.0), 0)
    with pytest.raises(ValidationError):
        local_energy(Configuration((-1.0, 0.0, 1.0)), p)


def test_sampler_is_seeded_and_separated():
    p = ModelParams(4, 0.5, 3, 2.0)
    a = sample_configurations(p, 25, seed=9)
    b = sample_configurations(p, 25, seed=9)
    assert [c.positions for c in a] == [c.positions for c in b]
    for c in a:
        assert np.min(np.diff(c.positions)) >= 10 * 1e-3


def test_constancy_across_battery():
    for base in BATTERY_BASE:
        if base[3] != 0:
            continue  # s = 0 sector only
        for m in M_VALUES:
            p = make_params(base, m)
            stats = constancy_scan(p, n_samples=60, seed=3)
            assert stats.relative_spread <= 1e-5, (base, m, stats)
            assert stats.relative_mean_error <= 1e-5, (base, m, stats)
            assert stats.passed()


def test_means_agree_across_m():
    base = BATTERY_BASE[1]
    means = [constancy_scan(make_params(base, m), n_samples=40, seed=5).mean
             for m in (0, 2)]
    assert abs(means[0] - means[1]) <= 1e-6 * abs(means[0])


def test_negative_control_perturbed_wavefunction():
    p = ModelParams(3, 1.0, 1, 1.0, ext_index=2)
    wrong = dataclasses.replace(p, coupling=p.coupling + 0.1)
    stats = constancy_scan(p, n_samples=60, seed=3, wavefunction_params=wrong)
    assert stats.relative_spread > 1e-2


@pytest.mark.parametrize("change", [{"degree": 1}, {"n_particles": 4}, {"omega": 2.0}])
def test_wavefunction_params_share_degree_zero_n_and_omega(change):
    # Psi is evaluated in the Hamiltonian's trap lengths, so another omega cannot be honoured
    p = ModelParams(3, 1.0, 1, 1.0, ext_index=1)
    x = manybody._sample_positions(p, 2, seed=1)
    with pytest.raises(ValidationError, match="wavefunction_params must have degree 0"):
        local_energy(x, p, wavefunction_params=dataclasses.replace(p, **change))


def test_negative_control_scaled_extension():
    p = ModelParams(3, 1.0, 1, 1.0, ext_index=2)
    stats = constancy_scan(p, n_samples=60, seed=3, v_new_scale=1.01)
    assert not stats.passed()


def test_scan_json_schema():
    stats = constancy_scan(ModelParams(2, 1.0, 1, 1.0), n_samples=10, seed=2)
    doc = stats.to_json_dict()
    assert set(doc) == {"params", "n_samples", "seed", "mean", "stddev",
                        "max_dev", "E_analytic", "pass"}
    assert doc["pass"] is True


def test_scan_deterministic_for_seed():
    p = ModelParams(3, 1.5, 2, 1.0, ext_index=1)
    s1 = constancy_scan(p, n_samples=20, seed=11)
    s2 = constancy_scan(p, n_samples=20, seed=11)
    assert (s1.mean, s1.stddev, s1.max_dev) == (s2.mean, s2.stddev, s2.max_dev)
