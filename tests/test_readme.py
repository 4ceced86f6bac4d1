"""README.md's code runs, and its Guarantees name tests that exist."""

import importlib
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


def test_every_guarantee_names_a_test_that_exists():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Guarantees\n(.*?)^## ", text, re.M | re.S).group(1)
    properties = re.findall(r"^- (.*?)(?=^- |\Z)", section, re.M | re.S)
    assert len(properties) >= 7
    for item in properties:
        # One test per property: a module path, then its class and name.
        (path, name), = re.findall(r"`(tests/\w+\.py)::([\w:]+)`", item)
        target = importlib.import_module(path[:-3].replace("/", "."))
        for part in name.split("::"):
            target = getattr(target, part, None)
            assert target is not None, f"README names a missing test: {path}::{name}"
        assert callable(target) and name.split("::")[-1].startswith("test_"), name
