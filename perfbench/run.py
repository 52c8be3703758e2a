"""twotime benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload closed_triangle --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The process pins BLAS to one
thread, imports ``twotime`` from ``src/`` of the checkout (module caches
start empty), then sends the workload's seeded requests one after another,
each an in-process ``twotime.cli.main(["run", <file>.cfg, "--out", <dir>])``,
in whole blocks until ``--seconds`` have been spent inside requests.  Every
output row is checked against an analytic oracle (``oracles.py``), and the
first request of each kind is replayed at the end to check that its CSV is
byte-identical.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the calls
into each module (``tracing.py``) and prints the per-layer metrics.  Human
readable lines come first; the last stdout line is the JSON result.  Exit
code 2 means the benchmark could not run at all (for example, no ``src/``).
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 9
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import twotime; print(time.perf_counter() - t0)"
)


def import_twotime():
    """The checkout's own ``twotime`` package; exits 2 if it is missing."""
    if not (SRC / "twotime" / "__init__.py").is_file():
        print(f"error: no twotime package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import twotime.cli
    if Path(twotime.__file__).resolve().parent != (SRC / "twotime").resolve():
        print(f"error: imported twotime from {twotime.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return twotime


def measure_setup() -> float:
    """Median time to import twotime (numpy, scipy included) in fresh interpreters.

    One unmeasured import first compiles bytecode, which users pay once.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        if i:
            samples.append(float(out.stdout))
    return statistics.median(samples)


def environment(seed: int, np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "seed": seed,
    }


@dataclass
class Outcome:
    """Result of one request: wall time, exit status, CSV text and problems found."""

    request: workloads.Request
    seconds: float
    code: int | None
    csv_text: str | None
    problems: list

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def rows(self) -> int:
        return 0 if self.code != 0 or self.csv_text is None else self.csv_text.count("\n") - 1


def send(cli, request, work: Path, tracer=None) -> Outcome:
    """Run one request in-process, time it, and check its output."""
    cfg = work / f"{request.name}.cfg"
    cfg.write_text(request.cfg_text)
    out_dir = work / "out"
    captured = io.StringIO()
    code, problems = None, []
    span = tracer.request(request.name) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(["run", str(cfg), "--out", str(out_dir)])
    except (Exception, SystemExit):
        problems.append("raised " + traceback.format_exc(limit=3).strip().splitlines()[-1])
    seconds = time.perf_counter() - t0
    csv_path = out_dir / f"{request.name}_series.csv"
    csv_text = csv_path.read_text() if csv_path.exists() else None
    if code != 0 and not problems:
        problems.append(f"exit code {code}: {captured.getvalue().strip()[-300:]}")
    if code == 0:
        problems += oracles.check(request.settings, csv_text)
    for leftover in (cfg, csv_path, out_dir / f"{request.name}_report.txt"):
        leftover.unlink(missing_ok=True)
    return Outcome(request, seconds, code, csv_text, problems)


def run_batch(cli, workload: str, seed: int, seconds: float, work: Path, tracer=None):
    """Closed loop over whole blocks until ``seconds`` of request time are spent.

    Returns the outcomes block by block.
    """
    done = []
    busy = 0.0
    for block in workloads.blocks(workload, seed):
        done.append([send(cli, request, work, tracer) for request in block])
        busy += sum(o.seconds for o in done[-1])
        if busy >= seconds:
            return done


def replay_first_of_each_kind(cli, outcomes, work: Path) -> int:
    """Re-send the first request of each kind; a CSV that differs marks it failed."""
    mismatches = 0
    seen = set()
    for outcome in outcomes:
        if outcome.request.kind in seen or outcome.failed:
            continue
        seen.add(outcome.request.kind)
        again = send(cli, outcome.request, work)
        if again.csv_text != outcome.csv_text:
            outcome.problems.append("replayed CSV is not byte-identical")
            mismatches += 1
    return mismatches


def tail(values: list[float]):
    """Highest whole percentile with at least 10 samples beyond it, or None."""
    n = len(values)
    ordered = sorted(values)
    for pct in range(99, 49, -1):
        k = int(n * pct / 100)
        if n - k >= 10 and k >= 1:
            return pct, ordered[k - 1], n - k
    return None


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(blocks) -> dict:
    """The BENCHMARK.json end-to-end metrics of an untraced batch.

    Latency is gated per block, not per request: every block holds the same
    cost mix, whereas the median of single requests can fall in the gap
    between the cheaper and the dearer request kinds (see README.md).
    """
    outcomes = [o for block in blocks for o in block]
    times = [o.seconds for o in outcomes]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "rows_per_s": metric(sum(o.rows for o in outcomes) / sum(times), "1/s"),
        "block_s.p50": metric(statistics.median(sum(o.seconds for o in block)
                                                for block in blocks), "s"),
        "setup_s": metric(measure_setup(), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"blocks = {len(blocks)} of {len(blocks[0])} requests")
    print(f"request_s.p50 = {statistics.median(times):.6g} s")
    t = tail(times)
    print("request_s.tail = " + (f"p{t[0]} = {t[1]:.6g} s (n = {len(times)}, {t[2]} beyond)"
                                 if t else f"none above the median (n = {len(times)})"))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    twotime = import_twotime()
    import numpy as np
    import scipy

    env = environment(args.seed, np, scipy)
    print("environment:", json.dumps(env, sort_keys=True))
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    tracer = tracing.Tracer() if args.trace else None
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            blocks = run_batch(twotime.cli, args.workload, args.seed, args.seconds,
                               work, tracer)
        outcomes = [o for block in blocks for o in block]
        if tracer:
            metrics, problems = tracer.layer_metrics(args.workload, len(outcomes))
            spans_path = WORK / f"spans-{args.workload}.jsonl"
            tracer.write(spans_path, env)
            print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
            for line in tracer.summary(metrics):
                print(line)
        else:
            metrics, problems = end_to_end(blocks), []
        mismatches = replay_first_of_each_kind(twotime.cli, outcomes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    by_kind = {}
    for o in outcomes:
        by_kind.setdefault(o.request.kind, []).append(o.seconds)
    for kind, seconds in sorted(by_kind.items()):
        print(f"request_s.p50[{kind}] = {statistics.median(seconds):.6g} s (n = {len(seconds)})")
    failed = [o for o in outcomes if o.failed]
    print(f"workload {args.workload}: {len(outcomes)} requests, {len(failed)} failed, "
          f"{mismatches} replay mismatches; failed_frac = {len(failed) / len(outcomes):.6g}")
    for o in failed[:10]:
        print(f"FAILED {o.request.name} ({o.request.kind}): {'; '.join(o.problems[:3])}",
              file=sys.stderr)
    for problem in problems:
        print("FAILED check:", problem, file=sys.stderr)
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
