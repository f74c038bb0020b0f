"""The README's Python API example runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_api_example_runs(monkeypatch):
    text = (ROOT / "README.md").read_text()
    section = text.split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the example names its config relative to the repository
    exec(compile(block, "README.md", "exec"), {})
