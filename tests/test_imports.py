"""Every name a module imports is used by that module, and every function,
class and method in `src/` is used by code outside its own definition."""

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


def _names_read(node: ast.AST) -> set[str]:
    """Names and attribute names the code under `node` reads (not its strings)."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def unreferenced_definitions(modules: dict[str, str], others: list[str]) -> list[str]:
    """`module.name` of each module-level function and class that no code reads.

    A definition counts as used if its name is read by another top-level
    statement of any of `modules`, or anywhere in `others`. Its own body,
    imports, comments and docstrings do not count.
    """
    defs, reads = [], []
    for module, text in modules.items():
        for stmt in ast.parse(text).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.append((module, stmt))
            reads.append((stmt, _names_read(stmt)))
    reads += [(None, _names_read(ast.parse(text))) for text in others]
    return sorted(f"{module}.{d.name}" for module, d in defs
                  if not any(d.name in names for stmt, names in reads if stmt is not d))


# Called by no code yet: the posterior-bracket runner of ROADMAP direction 1
# weights each draw by this density.
UNREFERENCED_ALLOWED = ["posteriors.student_t_logpdf"]


def test_every_src_definition_is_used():
    modules = {p.stem: p.read_text() for p in sorted(ROOT.glob("src/bnnlimits/*.py"))
               if p.name != "__init__.py"}
    others = [p.read_text() for p in sorted(ROOT.glob("perfbench/*.py"))]
    assert unreferenced_definitions(modules, others) == UNREFERENCED_ALLOWED


def unreferenced_methods(modules: dict[str, str], others: list[str]) -> list[str]:
    """`module.Class.name` of each non-dunder method or property of a
    module-level class whose name no code reads outside its own body.

    The scan goes by name alone, so it cannot tell apart two attributes of
    one name: a method counts as read wherever any attribute or variable of
    its name is read. `StudentTPosterior.mean` counts as read because
    `GaussianPosterior.mean`, a field, is read.
    """
    trees = {module: ast.parse(text) for module, text in modules.items()}
    # (name, node) of every name and attribute name read anywhere
    reads = [(n.id if isinstance(n, ast.Name) else n.attr, n)
             for tree in [*trees.values(), *map(ast.parse, others)]
             for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))]
    unread = []
    for module, tree in trees.items():
        for cls in (s for s in tree.body if isinstance(s, ast.ClassDef)):
            for d in cls.body:
                if (not isinstance(d, ast.FunctionDef)
                        or d.name.startswith("__") and d.name.endswith("__")):
                    continue
                own = {id(n) for n in ast.walk(d)}
                if not any(name == d.name and id(n) not in own for name, n in reads):
                    unread.append(f"{module}.{cls.name}.{d.name}")
    return sorted(unread)


# Read by no code in `src/` or `perfbench/`: the gates in tests/test_acceptance.py
# call each of these.
UNREAD_METHODS_ALLOWED = [
    "network.VarianceVector.constant",
    "posteriors.StudentTPosterior.covariance",
    "samplers.Sigma2ConditionalParams.log_density",
]


def test_every_src_method_is_read():
    modules = {p.stem: p.read_text() for p in sorted(ROOT.glob("src/bnnlimits/*.py"))}
    others = [p.read_text() for p in sorted(ROOT.glob("perfbench/*.py"))]
    assert unreferenced_methods(modules, others) == UNREAD_METHODS_ALLOWED


def test_method_scan_counts_only_reads_outside_the_method():
    modules = {
        "a": (
            "class C:\n"
            "    def __init__(self):\n        self.used()\n"
            "    def used(self):\n        return 1\n"
            "    def recursive(self):\n        return self.recursive()\n"
            "    @property\n    def prop(self):\n        return 2\n"
            "    def bench_only(self):\n        pass\n"
            "    def unused(self):\n        'unused'\n"
        ),
        "b": "import a\nprint(a.C().prop)  # unused\n",
    }
    others = ["import a\na.C().bench_only()\n"]
    assert unreferenced_methods(modules, others) == ["a.C.recursive", "a.C.unused"]


def test_definition_scan_counts_only_code_outside_the_definition():
    modules = {
        "a": (
            '"""Mentions unused_doc."""\n'
            "def helper():\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1) if n else helper()\n"
            "def unused_doc():\n    pass\n"
            "class Annotated:\n    pass\n"
            "def bench_only():\n    pass\n"
        ),
        "b": (
            "import a\nfrom a import unused_doc\n"
            "def user(x: a.Annotated):  # recursive\n"
            '    """unused_doc"""\n'
            "    return 'recursive'\n"
        ),
    }
    others = ["import a\na.bench_only()\n"]
    assert unreferenced_definitions(modules, others) == [
        "a.recursive", "a.unused_doc", "b.user"]
