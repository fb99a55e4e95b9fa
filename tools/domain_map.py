"""Domain verdict map: every `xtcs verify` suite, through `xtcs.cli.main`, over a fixed grid.

    PYTHONPATH=src python3 tools/domain_map.py LABEL

The grid is N in {2, 3, 5, 8, 16, 30}, lambda in {0.3, 0.6, 1, 2.5}, r in {1, N-1},
omega in {0.05, 1, 20}, s in {0, 1}, m in {0, 1, 3, 20, 60}: 1,320 configs, run on 2
worker processes (about 55 s on 2 vCPUs), with the local-energy suite at 60 samples.
On the configs with s = 0, m >= 1 and tau > 2 (516 of them) it also runs the negative
control `verify --suite spectrum --perturb 1.01`, its own class: exit 0 there means the
control cannot see a 1 % error in the extension term.
DOMAIN_<LABEL>.json, written to the working directory, counts the configs of each class
(suite, exit code, reason) and gives their tau, alpha and m range.  The reason is the
first failing item for exit 2 and the first error line for exit 1, its numbers replaced
by '#' so that one cause is one class.  The file holds no timings, so the maps of two
trees can be compared with `diff`.  It records the xtcs, numpy and scipy versions: the
spectrum suite runs on scipy's LAPACK, so two maps compare only at one scipy.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import re
import sys
import tempfile
import time
import warnings
from multiprocessing import Pool
from pathlib import Path

import numpy as np
import scipy

from xtcs import ModelParams, __version__, cli

GRID = {"N": (2, 3, 5, 8, 16, 30), "lambda": (0.3, 0.6, 1, 2.5), "r": "1 and N-1",
        "omega": (0.05, 1, 20), "s": (0, 1), "m": (0, 1, 3, 20, 60)}
SAMPLES = 60
WORKERS = 2
CONTROL = "spectrum --perturb 1.01"
NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def configs():
    for n, lam, omega, s, m in itertools.product(GRID["N"], GRID["lambda"], GRID["omega"],
                                                 GRID["s"], GRID["m"]):
        for r in sorted({1, n - 1}):
            yield {"N": n, "lambda": lam, "r": r, "omega": omega, "s": s, "m": m}


def _reason(suite, code, err, out_dir):
    if code == 2:
        report = json.loads((out_dir / f"report_{suite}.json").read_text(encoding="utf-8"))
        return next(item["name"] for item in report["items"] if not item["passed"])
    if code == 1:
        lines = err.splitlines()
        line = next((x for x in lines if x.startswith("xtcs: error: ")), lines[0] if lines else "")
        return NUMBER.sub("#", line.removeprefix(f"xtcs: error: suite {suite}: "))
    return ""


def verdicts(cfg):
    """(suite, exit code, reason) of every suite on one config, and of the perturbed
    spectrum control where it applies."""
    warnings.simplefilter("ignore")  # numpy and coupling warnings are not verdicts
    p = ModelParams.from_json_dict(cfg)
    runs = [(suite, suite, []) for suite in cli.SUITES]
    if cfg["s"] == 0 and cfg["m"] >= 1 and p.tau > 2:
        runs.append((CONTROL, "spectrum", ["--perturb", "1.01"]))
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        for i, (name, suite, extra) in enumerate(runs):
            out_dir = Path(tmp) / str(i)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["verify", "--config", str(path), "--suite", suite,
                                 "--samples", str(SAMPLES), "--out", str(out_dir)] + extra)
            out.append((name, code, _reason(suite, code, err.getvalue(), out_dir)))
    return out


def domain_map(cfgs, results):
    classes = {}
    for cfg, verdict in zip(cfgs, results):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = ModelParams.from_json_dict(cfg)
        for key in verdict:
            c = classes.setdefault(key, {"count": 0, "tau": [], "alpha": [], "m": []})
            c["count"] += 1
            for name, value in (("tau", p.tau), ("alpha", p.alpha), ("m", p.ext_index)):
                c[name].append(value)
    names = cli.SUITES + (CONTROL,)
    order = {suite: i for i, suite in enumerate(names)}
    rows = []
    for (suite, code, reason), c in sorted(
            classes.items(), key=lambda kv: (order[kv[0][0]], kv[0][1], -kv[1]["count"], kv[0][2])):
        row = {"suite": suite, "exit": code, "reason": reason, "count": c["count"]}
        row.update({name: [float(f"{min(c[name]):.12g}"), float(f"{max(c[name]):.12g}")]
                    for name in ("tau", "alpha", "m")})
        rows.append(row)
    exits = {suite: {str(code): sum(r["count"] for r in rows
                                    if r["suite"] == suite and r["exit"] == code)
                     for code in (0, 1, 2)} for suite in names}
    return {"xtcs": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "grid": GRID, "samples": SAMPLES,
            "configs": len(cfgs), "exits": exits, "classes": rows}


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    start = time.perf_counter()
    cfgs = list(configs())
    with Pool(WORKERS) as pool:
        results = pool.map(verdicts, cfgs, chunksize=4)
    doc = domain_map(cfgs, results)
    path = Path(f"DOMAIN_{argv[0]}.json")
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for suite, counts in doc["exits"].items():
        print(f"{suite:>23}: " + "  ".join(f"exit {c}: {n:>4}" for c, n in counts.items()))
    print(f"{len(cfgs)} configs in {time.perf_counter() - start:.1f} s -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
