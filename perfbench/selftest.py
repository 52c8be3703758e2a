"""Self-test of the benchmark's own parts; run it after changing them.

    python3 perfbench/selftest.py

Checks, from the root of a source checkout:

* the oracles accept the program's output for the bundled
  ``scenarios/thermal_steady.cfg`` and ``scenarios/coherent_closed.cfg`` and
  reject a copy with one g1 row perturbed by 1e-4;
* the generators give byte-identical scenario text for the same seed and
  different text for another seed;
* the traced-run self-check flags every expected layer when no span was
  recorded, as it would when a wrapper sits on the wrong binding.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import shutil
import sys

import oracles
import run
import tracing
import workloads

BUNDLED = ("thermal_steady.cfg", "coherent_closed.cfg")


def read_settings(path) -> dict:
    settings = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (s.strip() for s in line.split("=", 1))
            settings[key] = value
    return settings


def check_oracles(cli, work) -> list[str]:
    failures = []
    for scenario in BUNDLED:
        path = run.ROOT / "scenarios" / scenario
        settings = read_settings(path)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(path), "--out", str(work)])
        csv_text = (work / f"{settings['name']}_series.csv").read_text()
        problems = oracles.check(settings, csv_text) if code == 0 else [f"exit code {code}"]
        if problems:
            failures.append(f"{scenario}: oracle rejects the program's output: {problems[:3]}")
        if not oracles.check(settings, oracles.perturb_g1(csv_text)):
            failures.append(f"{scenario}: oracle accepts a g1 row perturbed by 1e-4")
    return failures


def check_generators() -> list[str]:
    failures = []
    texts = lambda name, seed: [r.cfg_text for block in
                                itertools.islice(workloads.blocks(name, seed), 3) for r in block]
    for name in workloads.GENERATORS:
        if texts(name, 7) != texts(name, 7):
            failures.append(f"{name}: seed 7 gives different scenario files on two calls")
        if texts(name, 7) == texts(name, 8):
            failures.append(f"{name}: seeds 7 and 8 give the same scenario files")
    return failures


def check_trace_self_check() -> list[str]:
    failures = []
    for name, expected in tracing.EXPECTED_NONZERO.items():
        tracer = tracing.Tracer()
        with tracer.request("r00000"):
            pass
        _, problems = tracer.layer_metrics(name, 1)
        if len(problems) != len(expected):
            failures.append(f"{name}: self-check flagged {len(problems)} of "
                            f"{len(expected)} silent layers")
    return failures


def main() -> int:
    twotime = run.import_twotime()
    run.WORK.mkdir(exist_ok=True)
    work = run.WORK / f"selftest-{os.getpid()}"
    work.mkdir()
    try:
        failures = check_oracles(twotime.cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures += check_generators() + check_trace_self_check()
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
