"""Every name a module imports is used by that module."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/bnnlimits/*.py")) + sorted(ROOT.glob("tests/*.py"))


def unused_imports(text: str) -> list[str]:
    """Names bound by the module's imports that no expression reads.

    `from __future__` imports and import statements whose first line carries
    `# noqa: F401` (the package's re-exports) are exempt.
    """
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        # `import a.b` binds `a`; `import a as b` and `from m import a as b` bind `b`
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted({name for name in imported if name not in used})


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_every_kind_of_binding():
    text = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom math import pi as tau, e\n"
        "from numpy import (  # noqa: F401\n    ndarray,\n)\n"
        "print(tau)\n"
    )
    assert unused_imports(text) == ["e", "j", "os"]
