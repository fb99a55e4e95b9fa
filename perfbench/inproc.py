"""In-process workloads (radial-checks, local-energy), run in a fresh worker.

    python3 perfbench/inproc.py WORKLOAD SEED SECONDS MODE WORKDIR INDEX

The worker imports xtcs, writes its seeded inputs, runs one untimed
warm-up operation and stamps ``ready`` on the shared monotonic clock; the
parent's spawn time to that stamp is one set-up sample.  MODE ``setup``
stops there.  MODE ``run`` then runs whole rounds of operations, one at
a time, until the next round would end past SECONDS.  MODE ``trace`` runs
one round, each operation untraced and then traced.  The result goes to
WORKDIR/worker-INDEX.json; stdout is left to xtcs.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import inputs


class Radial:
    """One `xtcs verify` suite per operation, through `xtcs.cli.main`."""

    def __init__(self, seed, workdir):
        from xtcs import cli
        self.cli = cli
        self.ops = inputs.radial_ops(seed)
        self.workdir = workdir
        for op in self.ops:
            op["path"] = workdir / f"{op['id']}.json"
            op["path"].write_text(json.dumps(op["config"]), encoding="utf-8")
        self.warmup = next(op for op in self.ops if op["suite"] == "consistency")

    def call(self, op):
        argv = ["verify", "--config", str(op["path"]), "--suite", op["suite"],
                "--out", str(self.workdir / op["id"])]
        if op["perturb"]:
            argv += ["--perturb", op["perturb"]]
        code = self.cli.main(argv)
        return {0: "PASS", 2: "FAIL"}.get(code, f"exit {code}"), None

    def check(self, op, verdict, _):
        path = self.workdir / op["id"] / f"report_{op['suite']}.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        problems = []
        if report["passed"] != (verdict == "PASS"):
            problems.append(f"report passed={report['passed']} but verdict {verdict}")
        if op["suite"] == "spectrum":
            problems += inputs.check_spectrum_report(report, op["config"], bool(op["perturb"]))
        elif report["params"] != op["config"]:
            problems.append(f"report params {report['params']} != config {op['config']}")
        return problems


class LocalEnergy:
    """One `constancy_scan` per operation."""

    def __init__(self, seed, workdir):
        from xtcs import ModelParams, constancy_scan
        self.scan = constancy_scan
        self.ops = inputs.local_ops(seed)
        for op in self.ops:
            p = ModelParams.from_json_dict(op["config"])
            op["params"] = p
            op["psi_params"] = (None if op["lambda_scale"] == 1.0 else
                                dataclasses.replace(p, coupling=p.coupling * op["lambda_scale"]))
        self.warmup = self.ops[0]

    def call(self, op):
        stats = self.scan(op["params"], op["samples"], op["sample_seed"],
                          v_new_scale=op["v_new_scale"], wavefunction_params=op["psi_params"])
        return ("PASS" if stats.passed() else "FAIL"), stats

    def check(self, op, verdict, stats):
        doc = stats.to_json_dict()
        problems = []
        if (doc["n_samples"], doc["seed"], doc["params"]) != (op["samples"], op["sample_seed"], op["config"]):
            problems.append(f"scan echoes {doc['n_samples']}, {doc['seed']}, {doc['params']}")
        if verdict == "PASS":
            problems += inputs.check_local_stats(doc, op["config"])
        return problems


WORKLOADS = {"radial-checks": Radial, "local-energy": LocalEnergy}


def run_round(work, ops, log, pass_no=0):
    """Run each operation in turn and append its outcome to log."""
    for op in ops:
        start = time.perf_counter()
        try:
            verdict, payload = work.call(op)
            error = None
        except Exception as exc:  # a raising operation counts as failed
            verdict, payload, error = None, None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        ok = verdict == op["expect"]
        problems = work.check(op, verdict, payload) if ok else []
        log.append({"id": op["id"], "pass": pass_no, "seconds": seconds, "ok": ok,
                    "problems": problems, "outcome": error or verdict, "fault": op["fault"]})


def main(argv):
    workload, seed, seconds, mode, workdir, index = argv
    workdir = Path(workdir)
    work = WORKLOADS[workload](int(seed), workdir)
    run_round(work, [work.warmup], [])
    result = {"ready": time.monotonic()}
    if mode == "run":
        log = []
        start = time.perf_counter()
        for pass_no in itertools.count():
            begin = time.perf_counter()
            run_round(work, work.ops, log, pass_no)
            last = time.perf_counter() - begin
            if time.perf_counter() - start + last > float(seconds):
                break
        result["ops"] = log
    elif mode == "trace":
        import spans
        tracer, untraced, traced = spans.Tracer(), [], []
        for op in work.ops:  # each operation untraced, then traced
            run_round(work, [op], untraced)
            tracer.install()
            try:
                run_round(work, [op], traced)
            finally:
                tracer.uninstall()
        tracer.dump(workdir / "spans.json")
        result.update(ops=traced, summary=spans.summarize(tracer.spans),
                      overhead_s=sum(t["seconds"] - u["seconds"] for t, u in zip(traced, untraced)),
                      configurations=tracer.counts[spans.CONFIGURATIONS])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (workdir / f"worker-{index}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
