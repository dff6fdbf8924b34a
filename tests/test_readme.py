"""The README's library example runs and prints what the README says it prints."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_what_the_readme_says(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    bound_line, run_line = capsys.readouterr().out.splitlines()
    near, far = map(float, bound_line.split())
    assert near == pytest.approx(0.95, abs=0.005)  # "~0.95 near the wheels"
    assert far == pytest.approx(0.67, abs=0.005)   # "~0.67 far out"
    outcome, clearance = run_line.split()
    assert outcome == "ok"
    assert float(clearance) > 0.0
