"""Every span the benchmark reports on can still be hooked.

perfbench patches module attributes by name. A span whose every hook names
an attribute that is gone reports its metrics as null, and a null is not a
number in the run's result line.
"""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _resolves(module_name: str, attr: str) -> bool:
    try:
        return hasattr(importlib.import_module(module_name), attr)
    except ImportError:
        return False


def test_every_reported_span_has_a_hook_that_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    layers = importlib.import_module("layers")
    live = {span for module, attr, span in spans.HOOKS if _resolves(module, attr)}
    needed = {span for _, _, needs in layers.SPEC for span in needs}
    assert needed and not needed - live, sorted(needed - live)
