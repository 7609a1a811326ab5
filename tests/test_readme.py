"""The README runs as written and names what the code has: config fields, CLI flags."""

import argparse
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


def test_cli_section_names_every_flag():
    from bnnlimits.cli import build_parser

    with open(README) as f:
        text = f.read()
    section = text.split("## CLI", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`(--[\w-]+)[^`]*`", section))
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {o for p in sub.choices.values() for a in p._actions for o in a.option_strings
             if o.startswith("--") and o != "--help"}
    assert named == flags
