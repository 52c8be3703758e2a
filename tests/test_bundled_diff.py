"""tools/bundled_diff.py: identical trees compare identical, a changed one exits 1."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bundled_diff(base):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "bundled_diff.py"), str(base),
                           "fock_antibunching.cfg"], capture_output=True, text=True)


def test_checkout_against_itself_is_identical():
    proc = bundled_diff(ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "fock_antibunching.cfg: exit 0 -> 0",
        "  fock_antibunching_report.txt: identical",
        "  fock_antibunching_series.csv: identical",
    ]


def test_changed_tree_reports_column_differences(tmp_path):
    # BASE writes 12 significant digits instead of 17
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cli = tmp_path / "src" / "twotime" / "cli.py"
    cli.write_text(cli.read_text().replace('".17g"', '".12g"'))
    proc = bundled_diff(tmp_path)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert "  fock_antibunching_report.txt: identical" in lines
    (series,) = [line for line in lines if "fock_antibunching_series.csv" in line]
    assert series.startswith("  fock_antibunching_series.csv: max |diff| tau ")
    assert "method same" in series
