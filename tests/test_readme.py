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


def test_config_schema_table_names_every_field():
    from dataclasses import fields

    from bnnlimits.experiments import ExperimentConfig

    with open(README) as f:
        text = f.read()
    section = text.split("## Config schema", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    named = [n for row in rows for n in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(named) == sorted(f.name for f in fields(ExperimentConfig))
