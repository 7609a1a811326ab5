"""Tracer self time and the handling of hooks a later version removes.

Run from the repository root: python -m pytest perfbench
"""

import sys
import time
import types

import pytest

from layers import SPEC, layer_metrics
from spans import Tracer, patched


@pytest.fixture
def fake_module():
    mod = types.ModuleType("fake_layer")

    def inner():
        time.sleep(0.02)
        return (0.0, 0.0, 0.0, 0.5, 3, False)

    def outer():
        time.sleep(0.01)
        return mod.inner()

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_self_time_excludes_children_and_originals_come_back(fake_module):
    tracer = Tracer({"nuts.transition": lambda out: out[3:6]})
    original = fake_module.inner
    hooks = [("fake_layer", "outer", "experiments.runner"),
             ("fake_layer", "inner", "nuts.transition")]
    with patched(hooks, tracer.wrapper) as (attached, missing):
        fake_module.outer()
    assert fake_module.inner is original
    assert attached == {"experiments.runner", "nuts.transition"} and missing == []
    outer, inner = tracer.get("experiments.runner"), tracer.get("nuts.transition")
    assert outer.calls == inner.calls == 1
    assert inner.total_s >= 0.02
    assert outer.total_s >= outer.self_s + inner.total_s - 1e-9
    assert 0.01 <= outer.self_s < 0.02
    assert tracer.get("nuts.transition", None).calls == 1


def test_missing_hook_leaves_its_metrics_unmeasured(fake_module):
    tracer = Tracer({})
    hooks = [("fake_layer", "renamed_away", "nuts.transition"),
             ("no_such_module", "x", "samplers.sigma2"),
             ("fake_layer", "outer", "experiments.runner")]
    with patched(hooks, tracer.wrapper) as (attached, missing):
        fake_module.outer()
    assert missing == ["fake_layer.renamed_away", "no_such_module.x"]
    metrics = layer_metrics(tracer, attached, None, 1.0, 1.1)
    assert set(metrics) == {name for name, _, _ in SPEC}
    assert metrics["nuts.transitions.w8"][0] is None
    assert metrics["samplers.sigma2.calls"][0] is None
    assert metrics["gibbs.ess.w8"][0] is None
    assert metrics["experiments.self_s"][0] > 0
    assert metrics["trace.overhead_s"][0] == pytest.approx(0.1)
