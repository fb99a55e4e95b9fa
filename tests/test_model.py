"""Parameters, interactions, and potentials.

The decisive oracle here is the kinetic identity: acting with the N-body
kinetic operator on the truncated pair product must exactly cancel the
interaction, -1/2 sum_i phi''_i/phi + V_int = 0 on any ordered
configuration.  Everything about the interaction's window and sign is
pinned by that identity (finite differences, no trust in hand algebra).
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from xtcs import (AttractiveCouplingWarning, Configuration, ModelParams,
                  ValidationError, consistency_suite, energy_level, ext_constants,
                  v_eff_radial, v_interaction, v_new, v_new_x1_two_term)
from xtcs.laguerre import _lag
from xtcs.wavefunctions import jastrow

from conftest import BATTERY_BASE, make_params


def high_precision_v_new(m, alpha, omega, rho):
    """50-digit recomputation of the extension term (independent oracle)."""
    from mpmath import binomial, factorial, mp, mpf

    mp.dps = 50

    def lag(n, a, x):
        if n < 0:
            return mpf(0)
        return sum((-1) ** k * binomial(n + a, n - k) * x ** k / factorial(k)
                   for k in range(n + 1))

    a, w, r = mpf(str(alpha)), mpf(str(omega)), mpf(str(rho))
    g = w * r ** 2
    den = lag(m, a - 1, -g)
    ratio = lag(m - 1, a, -g) / den
    val = (-2 * w * g * lag(m - 2, a + 1, -g) / den
           + 2 * w * (a + g - 1) * ratio + 4 * w * g * ratio ** 2 - 2 * m * w)
    return float(val)


# -- parameters ---------------------------------------------------------------

def derived(p):
    return p.tau, p.alpha, p.pair_count


def test_derived_params_examples():
    assert derived(ModelParams(2, 1.0, 1, 1.0)) == (3.0, 1.0, 1)
    assert derived(make_params((4, 0.5, 3, 0, 2.0), 0)) == (9.0, 4.0, 6)
    assert derived(make_params((3, 2.0, 1, 1, 1.0), 0)) == (12.0, 5.5, 2)


def test_pair_count_limits():
    # r = 1 gives the nearest-neighbor count N-1; r = N-1 the full N(N-1)/2
    for n in range(2, 8):
        assert ModelParams(n, 1.0, 1, 1.0).pair_count == n - 1
        assert ModelParams(n, 1.0, n - 1, 1.0).pair_count == n * (n - 1) // 2


def test_energy_ladder():
    p = ModelParams(2, 1.0, 1, 1.0)
    assert energy_level(0, p) == pytest.approx(2.0)
    assert energy_level(3, p) == pytest.approx(8.0)
    p2 = make_params((4, 0.5, 3, 0, 2.0), 0)
    assert energy_level(0, p2) == pytest.approx(10.0)


def test_energy_independent_of_extension_index():
    for base in BATTERY_BASE:
        values = {energy_level(2, make_params(base, m)) for m in (0, 1, 2, 3)}
        assert len(values) == 1  # bitwise identical


def test_param_validation():
    with pytest.raises(ValidationError):
        ModelParams(1, 1.0, 1, 1.0)
    with pytest.raises(ValidationError):
        ModelParams(3, 1.0, 3, 1.0)  # r > N-1
    with pytest.raises(ValidationError):
        ModelParams(3, -1.0, 1, 1.0)
    with pytest.raises(ValidationError):
        ModelParams(3, 1.0, 1, 0.0)
    with pytest.raises(ValidationError):
        ModelParams(3, 1.0, 1, 1.0, degree=-1)


@pytest.mark.parametrize("args, message", [
    ((3, "1", 1, 1.0), "coupling (lambda) must be a number, got '1'"),
    ((3, True, 1, 1.0), "coupling (lambda) must be a number, got True"),
    ((3, 1.0, 1, 10 ** 400), "omega must be a finite float64"),
    ((3, 1.0, True, 1.0), "trunc_range (r) must be an integer >= 1, got True"),
    ((3, 1.0, 1, 1.0, False), "degree (s) must be an integer >= 0, got False"),
    ((10 ** 400, 1.0, 1, 1.0), "tau = N + 2s - 1 + lambda r (2N - r - 1) leaves float64"),
    ((3, 1e308, 2, 1.0), "tau = N + 2s - 1 + lambda r (2N - r - 1) leaves float64"),
])
def test_the_parameter_gate_names_the_field(args, message):
    # "1" raised TypeError from np.isfinite; True made tau the int 6 and "lambda": true
    with pytest.raises(ValidationError, match=re.escape(message)):
        ModelParams(*args)


def test_lambda_and_omega_are_stored_as_floats():
    p = ModelParams(3, 2, 1, np.float32(0.5))
    assert (type(p.coupling), type(p.omega), p.to_json_dict()["lambda"]) == (float, float, 2.0)
    assert p == ModelParams(3, 2.0, 1, 0.5) and type(p.tau) is float


def test_attractive_coupling_warns():
    with pytest.warns(AttractiveCouplingWarning):
        ModelParams(3, 0.5, 1, 1.0)


def test_json_round_trip_and_key_policy():
    p = make_params((3, 1.5, 2, 0, 1.0), 2)
    doc = p.to_json_dict()
    assert set(doc) == {"N", "lambda", "r", "omega", "s", "m"}
    assert ModelParams.from_json_dict(json.loads(json.dumps(doc))) == p
    with pytest.raises(ValidationError):
        ModelParams.from_json_dict({**doc, "extra": 1})
    with pytest.raises(ValidationError):
        ModelParams.from_json_dict({k: v for k, v in doc.items() if k != "omega"})
    with pytest.raises(ValidationError):
        ModelParams.from_json_dict({**doc, "N": 2.5})


def test_configuration_validation():
    with pytest.raises(ValidationError):
        Configuration((0.0, 0.0))
    with pytest.raises(ValidationError):
        Configuration((1.0, 0.0))
    with pytest.raises(ValidationError):
        Configuration((0.0, np.nan))
    assert Configuration((0.0, 1e-300)).n == 2  # any strictly increasing pair is ordered
    c = Configuration((-0.5, 0.5))
    assert c.hyperradius == pytest.approx(np.sqrt(0.5))


# -- interaction --------------------------------------------------------------

def test_two_body_single_pair():
    for lam, d in ((2.0, 0.7), (1.5, 1.3)):
        p = ModelParams(2, lam, 1, 1.0)
        c = Configuration((0.0, d))
        assert v_interaction(c, p) == pytest.approx(lam * (lam - 1) / d ** 2, rel=1e-14)


def test_three_body_window():
    # symmetric triple, lambda = 1 (two-body term vanishes)
    d = 0.8
    c = Configuration((-d, 0.0, d))
    # r = 1: the consecutive triple survives, 1/((x2-x1)(x2-x3)) = -1/d^2
    p1 = ModelParams(3, 1.0, 1, 1.0)
    assert v_interaction(c, p1) == pytest.approx(-1.0 / d ** 2, rel=1e-14)
    # r = 2 = N-1: outer pair inside the window, full cancellation, no triples
    p2 = ModelParams(3, 1.0, 2, 1.0)
    assert v_interaction(c, p2) == pytest.approx(0.0, abs=1e-15)


def test_kinetic_identity_fd():
    # -1/2 sum_i phi''_i / phi + V_int == 0: the solvability identity that
    # fixes both the window and the sign of the three-body term
    rng = np.random.default_rng(11)
    h = 1e-5
    for n, r in ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2), (6, 3)):
        for lam in (0.5, 1.0, 1.5, 2.0):
            x = np.sort(rng.uniform(-2.5, 2.5, n))
            while np.min(np.diff(x)) < 0.4:
                x = np.sort(rng.uniform(-2.5, 2.5, n))
            p = ModelParams(n, lam, r, 1.0)
            c = Configuration(tuple(x))
            phi0 = jastrow(c, p)
            lap = 0.0
            for i in range(n):
                for sign in (+1, -1):
                    xs = x.copy()
                    xs[i] += sign * h
                    lap += jastrow(Configuration(tuple(xs)), p)
                lap -= 2 * phi0
            lap /= h ** 2
            resid = -0.5 * lap / phi0 + v_interaction(c, p)
            scale = max(1.0, abs(v_interaction(c, p)))
            assert abs(resid) < 5e-5 * scale


def test_interaction_rejects_mismatched_configuration():
    with pytest.raises(ValidationError):
        v_interaction(Configuration((0.0, 1.0)), ModelParams(3, 1.0, 1, 1.0))


# -- extension term -----------------------------------------------------------

def test_v_new_zero_at_m0():
    p = ModelParams(3, 1.0, 1, 1.0, ext_index=0)
    rho = np.linspace(0.0, 10.0, 101)
    assert np.all(v_new(rho, p) == 0.0)


def test_v_new_m1_zero_crossing():
    # m = 1 reduces to 2w/(g+a) - 4wa/(g+a)^2, vanishing at g = a
    p = ModelParams(2, 1.0, 1, 1.0, ext_index=1)  # alpha = 1
    assert v_new(1.0, p) == pytest.approx(0.0, abs=1e-15)
    # and decays at large rho
    assert abs(v_new(60.0, p)) < 1e-3


def test_v_new_m2_against_high_precision():
    # alpha = 4: the (4, 0.5, 3, 0) parameter family at omega = 1
    p = ModelParams(4, 0.5, 3, 1.0, ext_index=2)
    assert p.alpha == 4.0
    want = high_precision_v_new(2, 4.0, 1.0, 1.0)
    assert want == pytest.approx(-0.43288241415192508, rel=1e-15)
    assert v_new(1.0, p) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n, lam, r", [(60, 5.0, 59), (100, 3.0, 99), (200, 10.0, 199)])
def test_v_new_at_large_alpha_against_high_precision(n, lam, r):
    # alpha = 8879, 14899, 199099: the paper's form loses 1.4e-12 to 7.7e-11 relative here,
    # because its 2w(a+g-1)L_{m-1}^(a)/D and -2mw terms cancel to O(w/a)
    rho = np.linspace(0.05, 10.0, 12)
    for m in (1, 2, 3):
        p = ModelParams(n, lam, r, 1.0, ext_index=m)
        want = np.array([high_precision_v_new(m, p.alpha, 1.0, x) for x in rho])
        assert np.max(np.abs(v_new(rho, p) - want) / np.abs(want)) <= 2e-15
    item = consistency_suite(p).items[0]
    assert item.name.startswith("m=1 extension: general form vs two-term form") and item.passed


def four_recurrence_v_new(rho, p):
    """Reference: v_new's formula with each of its four Laguerre factors from its own pass."""
    m, a, w = p.ext_index, p.alpha, p.omega
    g = w * rho ** 2
    den, l1, l2 = _lag(m, a - 1, -g), _lag(m - 1, a, -g), _lag(m - 2, a, -g)
    return (2 * w * ((a - 1) * l2 - g * _lag(m - 2, a + 1, -g) - m * (l1 - l2)) / den
            + 4 * w * g * (l1 / den) ** 2)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 20, 60])
def test_v_new_takes_its_two_lower_degrees_from_one_pass(m):
    rho = np.linspace(0.0, 12.0, 241)
    for base in BATTERY_BASE + [(30, 2.0, 29, 0, 0.05)]:
        p = make_params(base, m)
        assert np.array_equal(v_new(rho, p), four_recurrence_v_new(rho, p))


def test_v_new_frequency_scaling():
    # v_new(rho; w) = w * v_new(rho sqrt(w); w=1), same alpha
    base = make_params((4, 0.5, 3, 0, 2.0), 3)
    unit = dataclasses.replace(base, omega=1.0)
    rho = np.linspace(0.1, 4.0, 40)
    lhs = v_new(rho, base)
    rhs = base.omega * v_new(rho * np.sqrt(base.omega), unit)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def test_x1_forms_agree_pointwise():
    for base in BATTERY_BASE:
        p = make_params(base, 1)
        rho = np.linspace(0.05, 10.0, 200)
        general = v_new(rho, p)
        split = v_new_x1_two_term(rho, p)
        single = ext_constants(p).evaluate(rho, p.omega)
        scale = np.max(np.abs(split))
        assert np.max(np.abs(general - split)) <= 1e-12 * scale
        assert np.max(np.abs(single - split)) <= 1e-12 * scale


def test_ext_constants_values():
    p = ModelParams(2, 1.0, 1, 1.0, ext_index=1)  # tau = 3
    c = ext_constants(p)
    assert (c.alpha1, c.alpha2, c.beta1, c.beta2) == (-8.0, 8.0, 2.0, 2.0)
    p2 = make_params((4, 0.5, 3, 0, 2.0), 1)  # tau = 9, omega = 2
    c2 = ext_constants(p2)
    assert (c2.alpha1, c2.alpha2, c2.beta1, c2.beta2) == (-64.0, 8.0, 8.0, 1.0)


def test_ext_constants_requires_m1():
    with pytest.raises(ValidationError):
        ext_constants(ModelParams(2, 1.0, 1, 1.0, ext_index=2))


# -- effective potential -------------------------------------------------------

def test_v_eff_reference_value():
    p = ModelParams(2, 1.0, 1, 1.0)  # tau = 3
    assert v_eff_radial(1.0, p, extended=False) == pytest.approx(0.875, rel=1e-15)
    # m = 1 extension vanishes at g = alpha, so extended agrees there
    p1 = dataclasses.replace(p, ext_index=1)
    assert v_eff_radial(1.0, p1, extended=True) == pytest.approx(0.875, rel=1e-14)


def test_v_eff_extended_flag_noop_at_m0():
    p = ModelParams(3, 1.5, 2, 1.0, ext_index=0)
    rho = np.linspace(0.1, 6.0, 60)
    assert np.all(v_eff_radial(rho, p, True) == v_eff_radial(rho, p, False))


def test_v_eff_rejects_origin():
    with pytest.raises(ValidationError):
        v_eff_radial(0.0, ModelParams(2, 1.0, 1, 1.0), extended=False)
