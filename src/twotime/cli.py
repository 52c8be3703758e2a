"""twotime command line: run scenarios, validate them, or dump regression oracles.

    twotime run <scenario> [--method M]... [--seed N] [--cutoff N] [--out DIR]
    twotime validate <scenario>
    twotime oracle <scenario> [--out DIR]

Exit codes: 0 success, 1 error, 2 cross-validation failure.  Series CSVs are
written atomically with 17 significant digits so repeated runs diff clean.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import analysis
from .correlators import CorrelationSeries
# under its old name, which the benchmark tracer wraps as the regression route
from .correlators import regression_series as _normalized_series
from .errors import ScenarioSchemaError, TwotimeError
from .hilbert import DEFAULT_TRACE_BUDGET, FockCutoff
from .phasespace import phase_space_series
from .scenario import Scenario, _parse_methods, check_semantics, parse_scenario

CROSS_VALIDATION_TOL = 1e-5
CSV_HEADER = "tau,method,g1_re,g1_im,g2,abs_err"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _series_csv(series_list: list[CorrelationSeries]) -> str:
    rows = [CSV_HEADER]
    for s in series_list:
        for i, tau in enumerate(s.tau_grid):
            rows.append(",".join([
                _fmt(tau),
                s.method_tag,
                _fmt(s.g1[i].real),
                _fmt(s.g1[i].imag),
                _fmt(s.g2[i]),
                _fmt(s.error_estimate[i]),
            ]))
    return "\n".join(rows) + "\n"


def _pairwise_deviations(series_list):
    """Max pointwise |g1_i - g1_j| and |g2_i - g2_j| per method pair."""
    out = []
    for i in range(len(series_list)):
        for j in range(i + 1, len(series_list)):
            a, b = series_list[i], series_list[j]
            d1 = np.abs(a.g1 - b.g1)
            d2 = np.abs(a.g2 - b.g2)
            tol = np.maximum(
                CROSS_VALIDATION_TOL,
                3.0 * np.sqrt(a.error_estimate**2 + b.error_estimate**2),
            )
            worst = np.maximum(d1, d2)
            k = int(np.argmax(worst - tol))
            out.append({
                "pair": (a.method_tag, b.method_tag),
                "max_g1": float(np.max(d1)),
                "max_g2": float(np.max(d2)),
                "ok": bool(np.all(worst <= tol)),
                "worst_tau": float(a.tau_grid[k]),
            })
    return out


def compute_series(scn: Scenario) -> list[CorrelationSeries]:
    out = []
    for method in scn.methods:
        if method == "regression":
            out.append(_normalized_series(scn.system, scn.taus))
        else:
            out.append(phase_space_series(
                scn.system, scn.taus, method, scn.integration, L_max=scn.L_max,
            ))
    return out


def _report_text(scn: Scenario, series_list, checks, verdict: str) -> str:
    lines = [f"scenario: {scn.name}", "", "settings (effective, including defaults):"]
    for key, val in scn.settings.items():
        if isinstance(val, (tuple, list)):  # methods, defaulted_keys
            val = ", ".join(val) or "(none)"
        lines.append(f"  {key} = {val}")
    prepared = scn.system.prepared_state()
    lines += [
        "",
        f"truncation leakage |1 - tr rho(t_prepare)| = {prepared.trace_defect:.3e}"
        f" (budget {DEFAULT_TRACE_BUDGET:.1e}, n_max {scn.system.cutoff.n_max})",
        f"rng seed = {scn.integration.seed}",
        "",
        "per-method results:",
    ]
    for s in series_list:
        lines.append(
            f"  {s.method_tag}: mean photon number = {s.mean_n:.12g}, "
            f"g2(0) = {s.g2[0]:.12g}"
        )
    if checks:
        lines += ["", "pairwise cross-validation (max pointwise deviations):"]
        for c in checks:
            status = "ok" if c["ok"] else f"FAIL near tau = {c['worst_tau']:.6g}"
            lines.append(
                f"  {c['pair'][0]} vs {c['pair'][1]}: "
                f"g1 {c['max_g1']:.3e}, g2 {c['max_g2']:.3e} [{status}]"
            )
    ref = series_list[0]
    for s in series_list:
        if s.method_tag == "regression":
            ref = s
            break
    rep = analysis.classify(ref)
    lines += [
        "",
        f"statistics (from {ref.method_tag} series, band {rep.tolerance_band:.2e}):",
        f"  g2(0) = {rep.g2_zero:.9g} -> {rep.classification_zero}",
        f"  bunching: {rep.bunching}"
        + ("" if rep.conclusive else " (inconclusive: differences within band)"),
    ]
    if rep.critical_time is not None:
        lines.append(f"  critical time = {rep.critical_time:.9g}")
    lines += ["", f"verdict: {verdict}", ""]
    return "\n".join(lines)


def run(scn: Scenario, out_dir=None) -> int:
    """Execute a scenario: write the series CSV and the text report.

    Returns 0 on success, 2 when cross-validation between methods fails.
    """
    series_list = compute_series(scn)
    checks = _pairwise_deviations(series_list) if len(series_list) > 1 else []
    failed = [c for c in checks if not c["ok"]]
    verdict = "ok" if not failed else "cross-validation FAILED: " + "; ".join(
        f"{c['pair'][0]} vs {c['pair'][1]} at tau = {c['worst_tau']:.6g}" for c in failed
    )
    base = Path(out_dir) if out_dir else Path.cwd()
    series_path = base / scn.series_path
    report_path = base / scn.report_path
    _atomic_write(series_path, _series_csv(series_list))
    _atomic_write(report_path, _report_text(scn, series_list, checks, verdict))
    print(f"wrote {series_path} and {report_path}")
    if failed:
        print(f"cross-validation failure: {verdict}", file=sys.stderr)
        return 2
    return 0


def _echo_override(scn: Scenario, key: str, value):
    """Echo a command-line value in place of the file's; the key is then not defaulted."""
    scn.settings[key] = f"{value}  [cli override]"
    scn.settings["defaulted_keys"] = [k for k in scn.settings["defaulted_keys"] if k != key]


def _apply_overrides(scn: Scenario, args) -> Scenario:
    changes = {}
    if args.method:
        methods = _parse_methods(", ".join(args.method), "methods", "--method")
        for m in methods:
            if m not in scn.methods:
                raise TwotimeError(
                    f"--method {m!r} not declared in the scenario (has {scn.methods})"
                )
        changes["methods"] = methods
        _echo_override(scn, "methods", ", ".join(methods))
    if args.seed is not None:
        try:
            changes["integration"] = dataclasses.replace(scn.integration, seed=args.seed)
        except ValueError as exc:
            raise ScenarioSchemaError(f"--seed: {exc}")
        _echo_override(scn, "integration.seed", args.seed)
    if getattr(args, "cutoff", None) is not None:
        try:
            cutoff = FockCutoff(args.cutoff)
        except ValueError as exc:
            raise ScenarioSchemaError(f"--cutoff: {exc}")
        changes["system"] = dataclasses.replace(scn.system, cutoff=cutoff)
        _echo_override(scn, "system.cutoff", args.cutoff)
    return check_semantics(dataclasses.replace(scn, **changes)) if changes else scn


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="twotime",
        description="Two-time correlation functions of a damped/driven bosonic mode.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write series + report")
    p_run.add_argument("scenario", type=Path)
    p_run.add_argument("--method", action="append",
                       help="restrict to this method (repeatable)")
    p_run.add_argument("--seed", type=int, help="override integration.seed")
    p_run.add_argument("--cutoff", type=int, help="override system.cutoff")
    p_run.add_argument("--out", type=Path, help="directory for output files")

    p_val = sub.add_parser("validate", help="parse and validate a scenario file")
    p_val.add_argument("scenario", type=Path)

    p_orc = sub.add_parser("oracle",
                           help="regression-only run, for bootstrapping expected values")
    p_orc.add_argument("scenario", type=Path)
    p_orc.add_argument("--seed", type=int)
    p_orc.add_argument("--out", type=Path)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage; 2 means cross-validation here
        return 1 if exc.code else 0
    try:
        scn = parse_scenario(args.scenario)
        if args.command == "validate":
            print(f"scenario {scn.name!r} is valid "
                  f"({len(scn.methods)} method(s), {len(scn.taus)} tau points)")
            return 0
        if args.command == "oracle":
            scn = dataclasses.replace(scn, methods=("regression",))
            scn.settings["methods"] = "regression  [oracle mode]"
            args.method = None
        scn = _apply_overrides(scn, args)
        return run(scn, out_dir=args.out)
    except TwotimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: double-precision overflow: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
