"""Every fenced ``python`` block of README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_runs():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert blocks
    for block in blocks:
        # Padded to its README line, so a traceback names that line.
        padding = "\n" * text.count("\n", 0, block.start(1))
        exec(compile(padding + block.group(1), str(README), "exec"), {"__name__": "readme"})
