"""Command-line front end: it parses, dispatches and writes; `verify` builds every report.

Subcommands: params, table, verify, local-energy.  Configuration is a JSON
file with exactly the keys {"N", "lambda", "r", "omega", "s", "m"}; runtime
knobs are flags and override anything implied by the config.  Exit codes:
0 success, 1 usage or configuration error, a numerical-range error that
stops a suite or a NaN (never written as JSON or CSV), 2 genuine verification failure.
Output is deterministic for a fixed config and seed; floats in tables and
text reports are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NonFiniteError, QuadratureError, ResolutionError, ValidationError
from .manybody import constancy_scan
from .model import ModelParams, energy_level, ext_constants, v_eff_radial, wall_g
from .verify import (_fmt, consistency_suite, isospectrality_check, local_energy_suite,
                     ortho_suite, residual_suite, spectrum_csv_rows)
from .wavefunctions import radial_eigenfunction

SUITES = ("residual", "spectrum", "ortho", "consistency", "local-energy")


class _Parser(argparse.ArgumentParser):
    # usage errors are exit code 1; 2 is reserved for verification failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite_float(text):
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive_int(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xtcs", description=__doc__)
    parser.add_argument("--version", action="version", version=f"xtcs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_config(sp):
        sp.add_argument("--config", required=True, metavar="PATH",
                        help="JSON file with keys N, lambda, r, omega, s, m")

    sp = sub.add_parser("params", help="print derived constants and low-lying energies")
    add_config(sp)
    sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("table", help="write CSV tables for external plotting")
    add_config(sp)
    sp.add_argument("--what", required=True, choices=("potential", "wavefunction", "spectrum"))
    sp.add_argument("--rho-max", type=float, default=None)
    sp.add_argument("--points", type=int, default=None)
    sp.add_argument("--levels", type=_positive_int, default=4)
    sp.add_argument("--level", type=int, default=0, help="level n for the wavefunction table")
    sp.add_argument("--out", metavar="DIR", default=None)

    sp = sub.add_parser("verify", help="run verification suites, write reports")
    add_config(sp)
    sp.add_argument("--suite", default="all", choices=SUITES + ("all",))
    sp.add_argument("--out", metavar="DIR", default=None)
    sp.add_argument("--levels", type=_positive_int, default=4)
    sp.add_argument("--points", type=int, default=None,
                    help="solver grid points (default: chosen from tau and --levels)")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--perturb", type=_finite_float, default=1.0,
                    help="scale the extension term of H (negative control)")

    sp = sub.add_parser("local-energy", help="many-body local-energy constancy scan")
    add_config(sp)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--out", metavar="DIR", default=None)

    return parser


def load_params(path) -> ModelParams:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}")
    return ModelParams.from_json_dict(doc)


def _csv(rows, header, what) -> str:
    """CSV text of a table; like `_json`, a NaN or an infinity raises instead."""
    table = np.array(rows, dtype=float)
    finite = np.isfinite(table)
    for name, column in zip(header, finite.T):
        if not np.all(column):
            raise NonFiniteError(f"table {what}: {name} is not finite in "
                                 f"{np.sum(~column)} of {len(rows)} rows")
    row_format = ",".join(["{:.17g}"] * len(header))  # an integral n prints as "3"
    lines = [",".join(header)] + [row_format.format(*row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def _json(doc) -> str:
    """Compact JSON: the C encoder (an indent would fall back to the pure-Python one)."""
    try:
        return json.dumps(doc, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"JSON output: {exc}") from None


def _write(out_dir, name, text):
    """Write text to out_dir/name as a new file, making out_dir only when it is missing (a
    mkdir took ~66 us of a 180 us write): a call that fails before its first write leaves no
    directory.  An existing file is removed first, as truncating it makes ext4
    (auto_da_alloc) start its writeback on close: about 100 us a 6 KB file on an ext4 volume
    mounted with discard, where a new one, as in a fresh out_dir, takes about 30."""
    path = Path(out_dir) / name
    path.unlink(missing_ok=True)
    try:
        path.write_text(text, encoding="utf-8")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------


def cmd_params(args) -> int:
    p = load_params(args.config)
    energies = {f"E_{n}": energy_level(n, p) for n in range(5)}
    constants = dataclasses.asdict(ext_constants(p)) if p.ext_index == 1 else {}
    values = {"tau": p.tau, "alpha": p.alpha, **energies, **constants}
    infinite = [name for name, value in values.items() if not np.isfinite(value)]
    if infinite:
        raise NonFiniteError(f"params: {', '.join(infinite)} not finite")
    if args.json:
        doc = {"params": p.to_json_dict(), "tau": p.tau, "alpha": p.alpha,
               "pair_count": p.pair_count, "energies": energies}
        if constants:
            doc["x1_constants"] = constants
        print(_json(doc))
        return 0
    print(f"tau        = {_fmt(p.tau)}")
    print(f"alpha      = {_fmt(p.alpha)}")
    print(f"pair_count = {p.pair_count}")
    for name, e in energies.items():
        print(f"{name}        = {_fmt(e)}")
    if constants:
        print("x1 constants: " + " ".join(f"{k}={_fmt(v)}" for k, v in constants.items()))
    return 0


def _check_points(args):
    if args.points is not None and args.points < 2:
        raise ValidationError(f"--points must be >= 2, got {args.points}")


def cmd_table(args) -> int:
    p = load_params(args.config)
    _check_points(args)
    if args.what == "spectrum":
        rows = spectrum_csv_rows(p, args.levels, args.points)
        header = ("n", "E_analytic", "E_conv_numeric", "E_ext_numeric",
                  "rel_err_conv", "rel_err_ext")
    else:
        n_points = 1001 if args.points is None else args.points
        rho_max = args.rho_max
        if rho_max is None:  # the level's wall
            rho_max = float(np.sqrt(wall_g(args.level, p) / p.omega))
            if not np.isfinite(rho_max):
                raise NonFiniteError(f"table {args.what}: the default rho_max leaves float64")
        elif not (np.isfinite(rho_max) and rho_max > 0):
            raise ValidationError(f"--rho-max must be finite and > 0, got {rho_max}")
        rho = np.linspace(rho_max / n_points, rho_max, n_points)
        columns = {"rho": rho, "g": p.omega * rho ** 2}
        with np.errstate(over="ignore", invalid="ignore"):  # _csv raises on the result
            if args.what == "wavefunction":
                p_conv = dataclasses.replace(p, ext_index=0)
                columns["phi_conventional"] = radial_eigenfunction(args.level, p_conv, rho)
                columns["phi_extended"] = radial_eigenfunction(args.level, p, rho)
            columns["v_eff_conventional"] = v_eff_radial(rho, p, extended=False)
            columns["v_eff_extended"] = v_eff_radial(rho, p, extended=True)
        header, rows = tuple(columns), list(zip(*columns.values()))
    text = _csv(rows, header, args.what)
    if args.out:
        _write(args.out, f"{args.what}.csv", text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------

_SUITE_RUNNERS = {
    "residual": lambda p, args: residual_suite(p),
    "spectrum": lambda p, args: isospectrality_check(p, args.levels, args.points, args.perturb),
    "ortho": lambda p, args: ortho_suite(p, args.levels),
    "consistency": lambda p, args: consistency_suite(p),
    "local-energy": lambda p, args: local_energy_suite(p, args.samples, args.seed, args.perturb),
}


def cmd_verify(args) -> int:
    p = load_params(args.config)
    _check_points(args)
    selected = list(SUITES) if args.suite == "all" else [args.suite]
    all_passed = True
    for name in selected:
        try:
            report = _SUITE_RUNNERS[name](p, args)
            text = _json(report.to_json_dict())
        except (QuadratureError, ResolutionError, NonFiniteError, ValidationError) as exc:
            print(f"xtcs: error: suite {name}: {exc}", file=sys.stderr)
            return 1
        all_passed &= report.passed
        print(f"{name}: {'PASS' if report.passed else 'FAIL'}")
        if args.out:
            _write(args.out, f"report_{name}.json", text + "\n")
            _write(args.out, f"report_{name}.txt", report.to_text())
    return 0 if all_passed else 2


def cmd_local_energy(args) -> int:
    p = load_params(args.config)
    stats = constancy_scan(p, args.samples, args.seed)
    text = _json(stats.to_json_dict())
    print(text)
    if args.out:
        _write(args.out, "local_energy.json", text + "\n")
    return 0 if stats.passed() else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits for usage errors, --help, --version
        return int(exc.code or 0)
    handlers = {"params": cmd_params, "table": cmd_table,
                "verify": cmd_verify, "local-energy": cmd_local_energy}
    try:
        return handlers[args.command](args)
    except (ValidationError, NonFiniteError) as exc:
        print(f"xtcs: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # config reads are ValidationErrors, so this is output
        print(f"xtcs: error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
