"""The README's code runs as written and its key table matches the scenario schema."""

import re
from pathlib import Path

from twotime import scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    deviation, bunching = capsys.readouterr().out.split()
    assert float(deviation) < 1e-5
    assert bunching == "neither"


def test_scenario_keys_documented():
    readme = set()
    for key in re.findall(r"^\| `([\w./]+)` \|", README.read_text(), re.M):
        section, _, names = key.rpartition(".")  # tau.start/stop/count names three keys
        readme |= {f"{section}.{name}" if section else name for name in names.split("/")}
    docstring = set(re.findall(r"^    ([\w.]+) = ", scenario.__doc__, re.M))
    assert readme == docstring == set(scenario._SCHEMA)
