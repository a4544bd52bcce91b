"""The benchmark's tracer (``perfbench/spans.py``) wraps package names by
attribute, so renaming one of them breaks the benchmark.  Installing and
removing the tracer here makes such a rename fail in the unit suite too."""

import importlib.util
import os
import sys

import magrhf.cli  # noqa: F401  (imports every module the tracer patches)
import magrhf.spinless  # noqa: F401

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _attributes() -> dict:
    """Every attribute of the package's modules and of the classes they define."""
    modules = [m for name, m in sys.modules.items() if name.startswith("magrhf.")]
    classes = [
        v for m in modules for v in vars(m).values()
        if isinstance(v, type) and v.__module__ == m.__name__
    ]
    return {(id(owner), attr): value for owner in modules + classes for attr, value in vars(owner).items()}


def test_tracer_installs_and_restores(monkeypatch):
    spans = _load_spans(monkeypatch)
    before = _attributes()
    restore = spans.install(spans.Tracer())
    try:
        patched = [key for key, value in _attributes().items() if key in before and value is not before[key]]
    finally:
        restore()
    assert patched
    after = _attributes()
    assert [key for key in before if after.get(key) is not before[key]] == []
