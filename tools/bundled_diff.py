"""Compare the bundled scenarios' outputs of this checkout with those of BASE.

    python tools/bundled_diff.py BASE [SCENARIO.cfg ...]

BASE is a directory that holds ``src/`` or a git ref of this repository,
exported with ``git archive``.  Every ``scenarios/*.cfg`` of this checkout
(or only the named ones) is run with ``twotime run`` on both trees, one BLAS
thread each.  For each output file the script prints ``identical``, or for a
CSV the largest absolute difference in each numeric column.  It exits 1 if
any file or exit code differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


def _tree(base: str, work: Path) -> Path:
    """The root of BASE's source tree: the directory itself, or its git export."""
    if (Path(base) / "src").is_dir():
        return Path(base).resolve()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", base],
                         capture_output=True, check=True).stdout
    dest = work / "base"
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter")
                                    else {}))
    return dest


def _run(tree: Path, cfg: Path, out: Path) -> int:
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-m", "twotime.cli", "run", str(cfg),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    return proc.returncode


def _csv_columns(text: str) -> tuple[list[str], list[list[str]]]:
    header, *rows = list(csv.reader(io.StringIO(text)))
    return header, rows


def _compare(name: str, base: Path, head: Path) -> bool:
    """Print one line for output file ``name``; True when the two copies are identical."""
    if not (base / name).exists() or not (head / name).exists():
        print(f"  {name}: written by one tree only")
        return False
    old, new = (base / name).read_text(), (head / name).read_text()
    if old == new:
        print(f"  {name}: identical")
        return True
    if not name.endswith(".csv"):
        print(f"  {name}: differs")
        return False
    (h_old, r_old), (h_new, r_new) = _csv_columns(old), _csv_columns(new)
    if h_old != h_new or len(r_old) != len(r_new):
        print(f"  {name}: differs in header or row count")
        return False
    diffs = []
    for j, col in enumerate(h_old):
        try:
            worst = max((abs(float(a[j]) - float(b[j])) for a, b in zip(r_old, r_new)),
                        default=0.0)
            diffs.append(f"{col} {worst:.3g}")
        except ValueError:  # a text column such as method
            same = all(a[j] == b[j] for a, b in zip(r_old, r_new))
            diffs.append(f"{col} {'same' if same else 'differs'}")
    print(f"  {name}: max |diff| " + ", ".join(diffs))
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git ref, or a directory holding src/")
    parser.add_argument("scenarios", nargs="*",
                        help="scenario file names under scenarios/ (default: all)")
    args = parser.parse_args(argv)
    cfgs = ([ROOT / "scenarios" / name for name in args.scenarios] if args.scenarios
            else sorted((ROOT / "scenarios").glob("*.cfg")))
    same = True
    with tempfile.TemporaryDirectory(prefix="bundled_diff_") as tmp:
        work = Path(tmp)
        base = _tree(args.base, work)
        for cfg in cfgs:
            outs = {side: work / side / cfg.stem for side in ("base_out", "head_out")}
            codes = {side: _run(tree, cfg, outs[side])
                     for side, tree in (("base_out", base), ("head_out", ROOT))}
            print(f"{cfg.name}: exit {codes['base_out']} -> {codes['head_out']}")
            same &= codes["base_out"] == codes["head_out"]
            names = sorted({p.name for out in outs.values() if out.is_dir()
                            for p in out.iterdir()})
            for name in names:
                same &= _compare(name, outs["base_out"], outs["head_out"])
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
