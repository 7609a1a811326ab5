"""Every name a module imports is used by that module, every function,
class and method in `src/` is used by code outside its own definition, and
no parameter of a `src/` function carries one fixed value."""

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


UNREFERENCED_ALLOWED = []


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


# Read by no code in `src/` or `perfbench/`: the README's library quick start
# calls it, and tests/test_readme.py runs that.
UNREAD_METHODS_ALLOWED = [
    "network.VarianceVector.constant",
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


def _passed(node: ast.expr) -> str | None:
    """A passed value that is fixed in the code: a literal or an ALL_CAPS
    name, as written; None for anything else."""
    if isinstance(node, ast.Constant):
        return repr(node.value)
    name = getattr(node, "id", None) or getattr(node, "attr", "")
    return name if name.isupper() else None


def fixed_parameters(modules: dict[str, str], others: list[str]) -> list[str]:
    """`module.function(parameter)` for each parameter of a module-level
    function to which every call of the function passes the same literal or
    ALL_CAPS name, or which every call leaves out.

    Calls are found by the callee's name (`f(...)` or `m.f(...)`) in
    `modules` and `others`. A function is skipped, as not all its calls can
    be seen, when it has no call, when its name is read other than as a
    callee (passed as a value), or when a call unpacks `*args` or `**kwargs`.
    """
    trees = {module: ast.parse(text) for module, text in modules.items()}
    all_trees = [*trees.values(), *map(ast.parse, others)]
    calls, callees = {}, set()
    for tree in all_trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                callees.add(id(n.func))
                name = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                calls.setdefault(name, []).append(n)
    as_value = {n.id if isinstance(n, ast.Name) else n.attr
                for tree in all_trees for n in ast.walk(tree)
                if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in callees}
    fixed = []
    for module, tree in trees.items():
        for d in tree.body:
            if (not isinstance(d, ast.FunctionDef) or d.name in as_value
                    or not calls.get(d.name)):
                continue
            sites = calls[d.name]
            if any(isinstance(a, ast.Starred) for c in sites for a in c.args) or any(
                    k.arg is None for c in sites for k in c.keywords):
                continue
            positional = d.args.posonlyargs + d.args.args
            for i, param in enumerate(positional + d.args.kwonlyargs):
                values = set()
                for c in sites:
                    if i < len(positional) and i < len(c.args):
                        values.add(_passed(c.args[i]))
                    else:
                        kw = [k.value for k in c.keywords if k.arg == param.arg]
                        values.add(_passed(kw[0]) if kw else "left out")
                if len(values) == 1 and None not in values:
                    fixed.append(f"{module}.{d.name}({param.arg})")
    return sorted(fixed)


# Parameters every call in `src/` and `perfbench/` fixes, with why each stays.
FIXED_PARAMETERS_ALLOWED = [
    # the console entry point reads sys.argv; tests pass their own argv
    "cli.main(argv)",
    # the gates in tests/test_acceptance.py draw many at once
    "samplers.sample_sigma2_conditional(size)",
]


def test_no_src_parameter_carries_one_fixed_value():
    modules = {p.stem: p.read_text() for p in sorted(ROOT.glob("src/bnnlimits/*.py"))}
    others = [p.read_text() for p in sorted(ROOT.glob("perfbench/*.py"))]
    assert fixed_parameters(modules, others) == FIXED_PARAMETERS_ALLOWED


def test_parameter_scan_sees_literals_constants_and_defaults():
    modules = {
        "a": (
            "import functools\n"
            "def f(x, depth, scale=1.0, *, tag=None):\n    pass\n"
            "def g(x, n):\n    pass\n"
            "def h(x):\n    pass\n"
            "def passed(x, n):\n    pass\n"
            "def unpacked(x, n):\n    pass\n"
            "def uncalled(x, n):\n    pass\n"
            "functools.partial(passed, n=2)\n"
        ),
        "b": (
            "import a\nN = 4\n"
            "a.f(x, DEPTH, tag='t')\n"
            "a.g(1, N)\na.g(y, n)\na.h(0.5)\n"
            "a.passed(1, 3)\na.unpacked(*args)\n"
        ),
    }
    others = ["import a\na.f(y, depth=DEPTH, tag='t')\na.h(0.5)\n"]
    assert fixed_parameters(modules, others) == [
        "a.f(depth)", "a.f(scale)", "a.f(tag)", "a.h(x)"]
