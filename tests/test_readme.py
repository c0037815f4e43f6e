"""The README's Python examples run as written.

The ```python blocks run in order in one namespace, as a reader would
paste them, so a public name the README uses cannot be renamed or
deleted without this test failing.
"""

from __future__ import annotations

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
