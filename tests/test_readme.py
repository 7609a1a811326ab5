"""The README's library quick start runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def python_blocks(text: str) -> list[str]:
    """Fenced python blocks, padded so line numbers match the README."""
    return [
        "\n" * text.count("\n", 0, m.start(1)) + m.group(1)
        for m in re.finditer(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    ]


def test_quick_start_runs(capsys):
    with open(README) as f:
        blocks = python_blocks(f.read())
    assert len(blocks) == 1
    exec(compile(blocks[0], README, "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()
