"""The benchmark's per-layer metrics name callables that exist in ``tbhl``.

``perfbench`` reads spans, counters and cache statistics of ``tbhl``
callables by name.  A deleted or renamed callable would otherwise only show
up as a failed traced benchmark run; these tests catch it in the unit suite.
They only read ``perfbench/``.
"""

import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

from tbhl import cli_verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import layers
    import spans
finally:
    sys.path.remove(str(PERFBENCH))


def traced(span):
    """The ``tbhl`` callable a span name refers to, checked to be wrapped.

    ``module.function`` spans are the public functions the tracer wraps;
    ``module.Class.method`` spans are the methods listed in ``spans.METHODS``.
    """
    module, *attrs = span.split(".")
    assert module in spans.LAYERS
    target = importlib.import_module(f"tbhl.{module}")
    for attr in attrs:
        assert hasattr(target, attr), f"tbhl.{module} has no {'.'.join(attrs)}"
        target = getattr(target, attr)
    if len(attrs) == 2:
        assert attrs[1] in spans.METHODS[module][attrs[0]]
    else:
        assert not attrs[0].startswith("_") and span not in spans.UNTRACED
        assert target.__module__ == f"tbhl.{module}"
    assert callable(target)
    return target


@pytest.mark.parametrize("metric", layers.PER_LAYER, ids=lambda metric: metric[0])
def test_metric_source_resolves(metric):
    _name, _unit, _better, source = metric
    kind = source[0]
    if kind == "layer":
        assert source[1] in spans.LAYERS
        importlib.import_module(f"tbhl.{source[1]}")
    elif kind == "counter":
        span, _, suffix = source[1].rpartition(".")
        target = traced(span)
        if suffix == "yielded":
            assert inspect.isgeneratorfunction(target)
        else:
            assert spans.RESULT_COUNTERS[span][0] == suffix
    elif kind in ("hits", "misses"):
        assert hasattr(traced(source[1]), "cache_info")
    elif kind in ("s", "self_s", "calls"):
        traced(source[1])
    else:
        assert kind in ("match_ratio", "overhead")


def test_traced_methods_exist():
    for module, classes in spans.METHODS.items():
        for class_name, methods in classes.items():
            for method in methods:
                traced(f"{module}.{class_name}.{method}")


def test_audit_sections_are_the_audits_own(monkeypatch):
    # ``spans.AUDIT_SECTIONS`` lists ``run_audit``'s sections by hand: with
    # each listed section replaced by a recorder that returns no case, the
    # audit returns none and has run each listed section once
    calls = Counter()

    def recorder(section):
        def record(*args):
            calls[section] += 1
            return []

        return record

    for section in spans.AUDIT_SECTIONS:
        monkeypatch.setattr(cli_verify, section, recorder(section))
    assert cli_verify.run_audit("all", 1, 2, 0) == []
    assert calls == Counter(spans.AUDIT_SECTIONS)
