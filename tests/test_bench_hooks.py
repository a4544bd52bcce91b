"""The benchmark's tracer (``perfbench/spans.py``) wraps package names by
attribute, so renaming one of them breaks the benchmark.  Installing and
removing the tracer here makes such a rename fail in the unit suite too."""

import importlib.util
import os
import sys
import time

import magrhf.cli  # noqa: F401  (imports every module the tracer patches)
import magrhf.spinless  # noqa: F401
from magrhf.fields import Cell
from magrhf.hamiltonian import Nucleus, SystemSpec
from magrhf.scf import SCFConfig

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


def test_traced_cold_solve_counts_one_eigensolve_per_evaluation(monkeypatch):
    # the half-grid solve of a cold start runs outside the traced names:
    # a retry count (eigensolve spans minus outer iterations) of zero and
    # no block apply outside an SCF eigensolve
    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        spec = SystemSpec(Cell(8.0, 12), (Nucleus(1.0, (4.0,) * 3),), N=1.0, alpha=0.02)
        t0 = time.perf_counter()
        state = magrhf.scf.scf_solve(spec, SCFConfig(tol=1e-7, seed=0))
        wall = time.perf_counter() - t0
    finally:
        restore()
    assert state.converged
    metrics = spans.layer_metrics(tracer, wall)
    assert metrics["scf.halvings"] == 0
    assert metrics["scf.outer_iters"] == state.iteration
    # every evaluation of the SCF map computes its energy once, directly under the solve
    solve = next(i for i, s in enumerate(tracer.spans) if s.name == "scf.solve")
    evaluations = sum(1 for s in tracer.spans if s.name == "density.total_energy" and s.parent == solve)
    eigensolves = [i for i, s in enumerate(tracer.spans) if s.name == "scf.eigensolve"]
    assert len(eigensolves) == evaluations == state.iteration
    blocks = [i for i, s in enumerate(tracer.spans) if s.name == "hamiltonian.apply" and s.attrs["block"]]
    assert blocks and all(tracer.inside(i, ("scf.eigensolve",)) for i in blocks)
