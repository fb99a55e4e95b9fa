"""Benchmark of the xtcs verifier: cold CLI calls, radial checks and the
many-body local energy.  See README.md for the workloads and metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 the per-layer ones from
one pass whose operations each run untraced and then traced.
"""

from __future__ import annotations

import argparse
import collections
import compileall
import csv
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import eval_genlaguerre

import inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORKLOADS = ("cli-calls", "radial-checks", "local-energy")
SETUPS = 5          # set-up samples per run; setup_s is their median
IMPORT_SAMPLES = 5  # fresh-interpreter imports behind cli.import_s
CONSOLE = "import sys; from xtcs.cli import main; sys.exit(main())"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["XLAG_THREADS"] = "1"
    return env


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


# ---------------------------------------------------------------------------
# in-process workloads: a fresh worker per set-up sample


def worker(workload, seed, seconds, mode, workdir, index):
    """Spawn one worker; return (spawn-to-ready seconds, its result)."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "inproc.py"), workload, str(seed), str(seconds), mode,
         str(workdir), str(index)],
        env=child_env(), stdout=subprocess.DEVNULL, timeout=170)
    if proc.returncode != 0:
        fail(f"{workload} worker exited {proc.returncode}")
    result = json.loads((workdir / f"worker-{index}.json").read_text(encoding="utf-8"))
    return result["ready"] - start, result


def inproc_run(workload, seed, seconds, workdir):
    setups = [worker(workload, seed, seconds, "setup", workdir, i)[0] for i in range(SETUPS - 1)]
    setup, result = worker(workload, seed, seconds, "run", workdir, SETUPS - 1)
    return result["ops"], setups + [setup], result["peak_rss_mb"]


def inproc_trace(workload, seed, workdir):
    _, result = worker(workload, seed, 0, "trace", workdir, 0)
    return result["ops"], [result["summary"]], result["configurations"], result["overhead_s"]


# ---------------------------------------------------------------------------
# cli-calls: one cold `xtcs` process per operation


class CliCalls:
    def __init__(self, seed, workdir):
        self.passes = inputs.cli_passes(seed)
        self.workdir = workdir
        self.env = child_env()

    def write_inputs(self):
        for op in (op for ops in self.passes for op in ops):
            op["path"] = self.workdir / f"config-N{op['config']['N']}.json"
            op["path"].write_text(json.dumps(op["config"]), encoding="utf-8")

    def argv(self, op, spans_file=None):
        args = op["args"] + ["--config", str(op["path"])]
        if args[0] == "verify":
            args += ["--out", str(self.workdir / op["id"])]
        if spans_file is None:
            return [sys.executable, "-c", CONSOLE] + args
        return [sys.executable, str(BENCH / "spans.py"), str(spans_file)] + args

    def call(self, op, spans_file=None, pass_no=0):
        start = time.perf_counter()
        proc = subprocess.run(self.argv(op, spans_file), env=self.env, capture_output=True,
                              text=True, timeout=120)
        seconds = time.perf_counter() - start
        verdict = {0: "PASS", 2: "FAIL"}.get(proc.returncode, f"exit {proc.returncode}")
        ok = verdict == op["expect"]
        problems = check_cli(op, proc.stdout, self.workdir / op["id"]) if ok else []
        if not ok and proc.stderr:
            verdict += ": " + proc.stderr.strip().splitlines()[-1]
        return {"id": op["id"], "pass": pass_no, "seconds": seconds, "ok": ok,
                "problems": problems, "outcome": verdict, "fault": op["fault"]}

    def setup(self):
        """One set-up sample: write the inputs and make one untimed call."""
        start = time.perf_counter()
        self.write_inputs()
        self.call(self.passes[0][0])
        return time.perf_counter() - start


def cli_run(seed, seconds, workdir):
    work = CliCalls(seed, workdir)
    setups = [work.setup() for _ in range(SETUPS)]
    log, start = [], time.perf_counter()
    for pass_no in itertools.count():
        begin = time.perf_counter()
        ops = work.passes[pass_no % len(work.passes)]
        log += [work.call(op, pass_no=pass_no) for op in ops]
        last = time.perf_counter() - begin
        if time.perf_counter() - start + last > seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return log, setups, peak


def cli_trace(seed, workdir):
    from spans import summarize
    work = CliCalls(seed, workdir)
    work.setup()
    ops = work.passes[0]
    log, summaries, configurations, overhead = [], [], 0, 0.0
    for op in ops:  # each call untraced, then traced
        untraced = work.call(op)
        log.append(work.call(op, workdir / f"spans-{op['id']}.json"))
        overhead += log[-1]["seconds"] - untraced["seconds"]
    for op in ops:
        doc = json.loads((workdir / f"spans-{op['id']}.json").read_text(encoding="utf-8"))
        summaries.append(summarize(doc["spans"]))
        configurations += doc["counts"]["model.Configuration"]
    return log, summaries, configurations, overhead


# ---------------------------------------------------------------------------
# checks of CLI output against the benchmark's own formulas


def _csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def _reference_v_new(cfg, g):
    """Extension term from the paper's closed form, with scipy's Laguerre."""
    m, a, w = cfg["m"], inputs.alpha(cfg), cfg["omega"]
    if m == 0:
        return np.zeros_like(g)

    def lag(n, b):
        return eval_genlaguerre(n, b, -g) if n >= 0 else np.zeros_like(g)
    den = lag(m, a - 1)
    ratio = lag(m - 1, a) / den
    return (-2 * w * g * lag(m - 2, a + 1) / den + 2 * w * (a + g - 1) * ratio
            + 4 * w * g * ratio ** 2 - 2 * m * w)


def _check_potential(cfg, rho, g, v_conv, v_ext):
    problems = []
    tau, w = inputs.tau(cfg), cfg["omega"]
    if not np.allclose(g, w * rho ** 2, rtol=1e-12, atol=0):
        problems.append("g column != omega rho^2")
    own_conv = 0.5 * w ** 2 * rho ** 2 + (tau / 2) * (tau / 2 - 1) / (2 * rho ** 2)
    if not np.allclose(v_conv, own_conv, rtol=1e-12, atol=0):
        problems.append("v_eff_conventional != own V_eff")
    own_new = _reference_v_new(cfg, g)
    # v_ext - v_conv carries the rounding of v_conv, which dwarfs v_new at small rho
    slack = 1e-12 * (np.abs(own_conv) + np.abs(own_new)) + 1e-12 * w * cfg["m"]
    if not np.all(np.abs(v_ext - own_conv - own_new) <= slack):
        problems.append("v_eff_extended != own V_eff + v_new")
    if cfg["m"] == 1:
        den = 2 * g + tau - 1
        two_term = 4 * w / den - 8 * w * (tau - 1) / den ** 2
        if not np.all(np.abs(v_ext - v_conv - two_term) <= slack):
            problems.append("m=1 extension != two-term form")
    return problems


def _check_wavefunction(cfg, level, cols):
    rho, g, phi_conv, phi_ext, v_conv, v_ext = cols
    problems = _check_potential(cfg, rho, g, v_conv, v_ext)
    ref = np.exp(-g / 2) * eval_genlaguerre(level, inputs.alpha(cfg), g)
    scale = np.dot(phi_conv, ref) / np.dot(ref, ref)
    if not np.max(np.abs(phi_conv - scale * ref)) <= 1e-9 * np.max(np.abs(phi_conv)):
        problems.append(f"phi_conventional not proportional to exp(-g/2) L_{level}^alpha(g)")
    signs = np.sign(phi_ext[phi_ext != 0])
    changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
    if changes != level:
        problems.append(f"phi_extended has {changes} sign changes, expected {level}")
    return problems


def check_cli(op, stdout, out_dir):
    cfg, kind = op["config"], op["kind"]
    if kind == "params":
        doc = json.loads(stdout)
        problems = [] if doc["params"] == cfg else [f"params echo {doc['params']}"]
        own = {"tau": inputs.tau(cfg), "alpha": inputs.alpha(cfg)}
        own.update({f"E_{n}": inputs.energy(n, cfg) for n in range(5)})
        got = {"tau": doc["tau"], "alpha": doc["alpha"], **doc["energies"]}
        if set(got) != set(own):
            return problems + [f"params --json keys {sorted(got)}"]
        problems += [f"{k} = {got[k]!r}, own {own[k]!r}" for k in own
                     if not inputs.close(got[k], own[k], 1e-12)]
        if doc["pair_count"] != inputs.pair_count(cfg):
            problems.append(f"pair_count = {doc['pair_count']}, own {inputs.pair_count(cfg)}")
        return problems
    if kind in ("potential", "wavefunction"):
        header, rows = _csv(stdout)
        cols = list(np.array(rows).T)
        if kind == "potential":
            if header != ["rho", "g", "v_eff_conventional", "v_eff_extended"]:
                return [f"potential header {header}"]
            return _check_potential(cfg, *cols)
        if header != ["rho", "g", "phi_conventional", "phi_extended",
                      "v_eff_conventional", "v_eff_extended"]:
            return [f"wavefunction header {header}"]
        return _check_wavefunction(cfg, int(op["args"][op["args"].index("--level") + 1]), cols)
    suite = op["args"][2]
    report = json.loads((out_dir / f"report_{suite}.json").read_text(encoding="utf-8"))
    problems = []
    if report["passed"] != (op["expect"] == "PASS"):
        problems.append(f"report passed={report['passed']}")
    if suite == "spectrum":
        return problems + inputs.check_spectrum_report(report, cfg, "--perturb" in op["args"])
    if report["params"] != cfg:
        problems.append(f"report params {report['params']}")
    return problems


# ---------------------------------------------------------------------------
# import layer, measured in fresh interpreters


def _is_scipy(name):
    return name == "scipy" or name.startswith("scipy.")


def scipy_share(importtime):
    """Seconds of `-X importtime` output spent importing scipy: the
    cumulative time of each scipy module not imported by another one."""
    total, stack = 0, []   # (depth, name) of enclosing imports
    # a module's line follows the lines of the modules it imported
    for line in reversed(importtime.splitlines()):
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "cumulative" in line:
            continue
        depth = len(parts[2]) - len(parts[2].lstrip())
        name = parts[2].strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if _is_scipy(name) and not (stack and _is_scipy(stack[-1][1])):
            total += int(parts[1])
        stack.append((depth, name))
    return total / 1e6


def import_metrics():
    env = child_env()
    code = ("import time; t = time.perf_counter(); import xtcs; "
            "print(time.perf_counter() - t)")
    imports = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                    capture_output=True, text=True, timeout=60).stdout)
               for _ in range(IMPORT_SAMPLES)]
    scipy_shares = [scipy_share(subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import xtcs"], env=env, check=True,
        capture_output=True, text=True, timeout=60).stderr) for _ in range(3)]
    return statistics.median(imports), statistics.median(scipy_shares)


# ---------------------------------------------------------------------------


def summarize_ops(log):
    failed = [e for e in log if not e["ok"]]
    problems = [(e["id"], p) for e in log if e["ok"] for p in e["problems"]]
    times = collections.Counter(e["id"] for e in failed)
    for e in {e["id"]: e for e in failed}.values():
        note = f"known fault: {e['fault']}" if e["fault"] else "NOT A KNOWN FAULT"
        print(f"failed {e['id']} x{times[e['id']]}: {e['outcome']} ({note})", file=sys.stderr)
    for op_id, problem in problems:
        print(f"wrong output {op_id}: {problem}", file=sys.stderr)
    return not problems, len(log), len(failed)


def pass_throughput(log):
    """Median over passes of correct verdicts per second of operation time."""
    passes = {}
    for e in log:
        ok, seconds = passes.get(e["pass"], (0, 0.0))
        passes[e["pass"]] = (ok + e["ok"], seconds + e["seconds"])
    return statistics.median(ok / seconds for ok, seconds in passes.values())


def tail_line(seconds):
    """Highest percentile with at least 10 samples beyond it (>= 40 samples)."""
    n = len(seconds)
    if n < 40:
        return None
    q = math.floor(100 * (n - 10) / n)
    value = sorted(seconds)[math.ceil(q * n / 100) - 1]
    return f"verdict_p{q}_s = {value!r} s over {n} operations (no bound)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "xtcs" / "__init__.py").is_file():
        fail(f"no xtcs sources under {SRC}; run from the root of a source checkout")
    for tree in (SRC, BENCH):
        if not compileall.compile_dir(str(tree), quiet=1):
            fail(f"compiling {tree} failed")

    workdir = BENCH / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    if args.trace:
        if args.workload == "cli-calls":
            log, summaries, configurations, overhead = cli_trace(args.seed, workdir)
        else:
            log, summaries, configurations, overhead = inproc_trace(args.workload, args.seed, workdir)
        from spans import layer_metrics
        metrics = layer_metrics(summaries, configurations)
        metrics["cli.import_s"], metrics["cli.import_scipy_s"] = [(v, "s") for v in import_metrics()]
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        if args.workload == "cli-calls":
            log, setups, peak = cli_run(args.seed, args.seconds, workdir)
        else:
            log, setups, peak = inproc_run(args.workload, args.seed, args.seconds, workdir)
        seconds = [e["seconds"] for e in log]
        metrics = {
            "verdicts_per_s": (pass_throughput(log), "1/s"),
            "verdict_p50_s": (statistics.median(seconds), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
        tail = tail_line(seconds)
        if tail:
            print(tail)
    correct, attempted, failed = summarize_ops(log)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (workdir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
