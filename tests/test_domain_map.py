"""A pinned slice of the domain verdict map (`tools/domain_map.py`): six configs, every
suite through `cli.main`, compared verdict for verdict."""

import importlib.util
from pathlib import Path

import pytest

PASS = [("residual", 0, ""), ("spectrum", 0, ""), ("ortho", 0, ""), ("consistency", 0, ""),
        ("local-energy", 0, "")]
CONTROL_SEES_E0 = ("spectrum --perturb 1.01", 2, "|E_ext(0) - E_analytic(0)|")


def _domain_map():
    path = Path(__file__).resolve().parents[1] / "tools" / "domain_map.py"
    spec = importlib.util.spec_from_file_location("domain_map", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("config, expected", [
    ((3, 1, 1, 1, 0, 1), PASS + [CONTROL_SEES_E0]),
    ((8, 2.5, 7, 20, 0, 20), PASS + [("spectrum --perturb 1.01", 2, "|E_ext(0) - E_conv(0)|")]),
    # tau = 1.6: the solver rejects tau <= 2
    ((2, 0.3, 1, 0.05, 0, 0), [PASS[0], ("spectrum", 1, "tau = # <= #: origin boundary "
                                         "treatment invalid; increase coupling, degree, or "
                                         "n_particles")] + PASS[2:]),
    # s = 1: the many-body local energy exists for s = 0 only
    ((5, 1, 1, 1, 1, 3), PASS[:4] + [("local-energy", 1, "local energy implemented for "
                                      "degree s = # only, got s = #")]),
    # every check length scales with the trap length 1/sqrt(omega), so eight decades either
    # side of omega = 1 give its verdicts
    ((3, 1, 1, 1e-8, 0, 3), PASS + [CONTROL_SEES_E0]),
    ((3, 1, 1, 1e8, 0, 3), PASS + [CONTROL_SEES_E0]),
])
def test_pinned_slice_of_the_domain_map(config, expected):
    cfg = dict(zip(("N", "lambda", "r", "omega", "s", "m"), config))
    assert _domain_map().verdicts(cfg) == expected
