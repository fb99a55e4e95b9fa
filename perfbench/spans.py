"""Spans around the public functions of each xtcs layer.

`install()` replaces every module-level binding of the wrapped functions in
the loaded ``xtcs.*`` modules (the package imports names directly, as in
``from .solver import lowest_eigenvalues``, so each binding site is
replaced), counts `Configuration` constructions, and carries the
submitting span into ThreadPoolExecutor workers so that work done on a pool
thread has its caller as parent.  Spans stay in memory as
(id, parent, name, start, end, thread, size) until `dump`.

Run as a script it is the traced form of the ``xtcs`` console script:

    python3 perfbench/spans.py SPANS.json <xtcs arguments...>
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _arg(i, name):
    """Size of positional argument i (or keyword `name`) of a call."""
    def size(args, kwargs, result):
        return int(np.size(args[i] if len(args) > i else kwargs[name]))
    return size


# (module, function, size of the work it was handed or returned)
WRAPPED = [
    ("cli", "main", None),
    ("verify", "isospectrality_check", None),
    ("verify", "ode_residual", None),
    ("verify", "orthogonality_matrix", None),
    ("verify", "consistency_suite", None),
    ("solver", "hamiltonian_diagonals", None),
    ("solver", "lowest_eigenvalues", _arg(0, "diag")),
    ("model", "v_new", _arg(0, "rho")),
    ("model", "v_interaction", None),
    ("laguerre", "laguerre", None),
    ("laguerre", "laguerre_derivative", None),
    ("laguerre", "x1_laguerre", None),
    ("laguerre", "xm_laguerre", None),
    ("laguerre", "xm_denominator", None),
    ("laguerre", "ode_coefficients", None),
    ("laguerre", "xm_ode_residual", None),
    ("laguerre", "resolve_r_denominator", None),
    ("quadrature", "panel_nodes", lambda args, kwargs, result: len(result[0])),
    ("wavefunctions", "radial_eigenfunction", _arg(2, "rho")),
    ("wavefunctions", "jastrow", None),
    ("wavefunctions", "manybody_groundstate", None),
    ("wavefunctions", "norm", None),
    ("wavefunctions", "count_nodes", None),
    ("manybody", "local_energy", None),
    ("manybody", "sample_configurations", None),
]

CONFIGURATIONS = "model.Configuration"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {CONFIGURATIONS: 0}
        self._local = threading.local()
        self._threads = {}
        self._ids = iter(range(1, 1 << 62))
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [None]
        return stack

    def _thread(self):
        return self._threads.setdefault(threading.get_ident(), len(self._threads))

    def _wrap(self, name, fn, size):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1]
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                n = size(args, kwargs, result) if size is not None and result is not None else 1
                self.spans.append((span_id, parent, name, start, end, self._thread(), n))
        return wrapper

    def install(self):
        modules = {m: importlib.import_module(f"xtcs.{m}") for m, _, _ in WRAPPED}
        targets = [mod for name, mod in sys.modules.items()
                   if (name == "xtcs" or name.startswith("xtcs.")) and mod is not None]
        originals = {}
        for module, func, size in WRAPPED:
            fn = getattr(modules[module], func)
            originals[id(fn)] = (fn, self._wrap(f"{module}.{func}", fn, size))
        for mod in targets:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))

        config_cls = modules["model"].Configuration
        post_init = config_cls.__post_init__

        def counted(obj):
            self.counts[CONFIGURATIONS] += 1
            post_init(obj)
        config_cls.__post_init__ = counted
        self._undo.append((config_cls, "__post_init__", post_init))

        submit = ThreadPoolExecutor.submit
        tracer = self

        def traced_submit(pool, fn, /, *args, **kwargs):
            parent = tracer._stack()[-1]

            def run(*a, **k):
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    stack.pop()
            return submit(pool, run, *args, **kwargs)
        ThreadPoolExecutor.submit = traced_submit
        self._undo.append((ThreadPoolExecutor, "submit", submit))

    def uninstall(self):
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counts": self.counts, "spans": self.spans}, fh, separators=(",", ":"))


def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per span name: calls, total size, inclusive and self seconds.

    Self time is the span's duration minus the part of it covered by its
    child spans (children on pool threads included, overlaps counted once).
    """
    children = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[3], span[4]))
    out = {}
    for span_id, _, name, start, end, _, size in spans:
        entry = out.setdefault(name, {"calls": 0, "size": 0, "incl_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["size"] += size
        entry["incl_s"] += end - start
        entry["self_s"] += (end - start) - _union_length(children.get(span_id, ()), start, end)
    return out


def layer_metrics(summaries, configurations):
    """The per-layer metrics from span summaries (one per traced process)."""
    total = {}
    for summary in summaries:
        for name, entry in summary.items():
            acc = total.setdefault(name, {"calls": 0, "size": 0, "incl_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]

    def get(name, key):
        return total.get(name, {}).get(key, 0)

    def some(names, key):
        return sum(get(n, key) for n in names)

    laguerre = [f"laguerre.{f}" for m, f, _ in WRAPPED if m == "laguerre"]
    return {
        "cli.main_self_s": (get("cli.main", "self_s"), "s"),
        "verify.isospectrality_s": (get("verify.isospectrality_check", "incl_s"), "s"),
        "verify.ode_residual_s": (get("verify.ode_residual", "incl_s"), "s"),
        "verify.orthogonality_s": (get("verify.orthogonality_matrix", "incl_s"), "s"),
        "verify.consistency_s": (get("verify.consistency_suite", "incl_s"), "s"),
        "solver.eig_s": (get("solver.lowest_eigenvalues", "self_s"), "s"),
        "solver.assemble_s": (get("solver.hamiltonian_diagonals", "self_s"), "s"),
        "solver.eig_rows": (get("solver.lowest_eigenvalues", "size"), "count"),
        "model.v_new_s": (get("model.v_new", "self_s"), "s"),
        "model.v_new_points": (get("model.v_new", "size"), "count"),
        "model.v_interaction_s": (get("model.v_interaction", "self_s"), "s"),
        "model.v_interaction_calls": (get("model.v_interaction", "calls"), "count"),
        "model.configurations_built": (configurations, "count"),
        "laguerre.xm_s": (some(["laguerre.xm_laguerre", "laguerre.xm_denominator",
                                "laguerre.laguerre"], "self_s"), "s"),
        "laguerre.ode_residual_s": (get("laguerre.xm_ode_residual", "self_s"), "s"),
        "laguerre.calls": (some(laguerre, "calls"), "count"),
        "quadrature.panel_nodes_s": (get("quadrature.panel_nodes", "self_s"), "s"),
        "quadrature.nodes": (get("quadrature.panel_nodes", "size"), "count"),
        "wavefunctions.radial_s": (get("wavefunctions.radial_eigenfunction", "self_s"), "s"),
        "wavefunctions.radial_points": (get("wavefunctions.radial_eigenfunction", "size"), "count"),
        "wavefunctions.norm_s": (get("wavefunctions.norm", "self_s"), "s"),
        "wavefunctions.count_nodes_s": (get("wavefunctions.count_nodes", "self_s"), "s"),
        "wavefunctions.psi_s": (some(["wavefunctions.manybody_groundstate",
                                      "wavefunctions.jastrow"], "self_s"), "s"),
        "wavefunctions.psi_evals": (get("wavefunctions.manybody_groundstate", "calls"), "count"),
        "manybody.local_energy_self_s": (get("manybody.local_energy", "self_s"), "s"),
        "manybody.sample_s": (get("manybody.sample_configurations", "self_s"), "s"),
        "manybody.local_energies": (get("manybody.local_energy", "calls"), "count"),
    }


def main(argv):
    spans_path, xtcs_args = argv[0], argv[1:]
    from xtcs import cli
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(xtcs_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
