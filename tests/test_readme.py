"""The README's code runs as written, so it cannot name code that is gone."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    deviation, bunching = capsys.readouterr().out.split()
    assert float(deviation) < 1e-5
    assert bunching == "neither"
