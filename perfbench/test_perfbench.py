"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

The traced and untraced operations of ``scf-default`` must agree bit for
bit and count the same work, so the wrappers do not perturb the program,
and the layers' self times must account for the traced wall time.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans

#: Largest share of a traced operation's wall time that falls in no layer:
#: the self time of the root span and of ``cli.run``.
UNATTRIBUTED_MAX = 0.02

COUNTS = (
    "fields.fft.count",
    "hamiltonian.apply_a0.vectors",
    "hamiltonian.apply_a1.vectors",
    "hamiltonian.reapply.vectors",
    "scf.outer_iters",
    "scf.halvings",
    "scf.lobpcg.iters",
    "runio.checkpoint.bytes",
)


@pytest.fixture(scope="module")
def scf_default_ops(tmp_path_factory):
    os.makedirs(run.SCRATCH, exist_ok=True)
    runner = run.Runner("scf-default", 0)
    span_file = str(tmp_path_factory.mktemp("spans") / "spans.json")
    plain = runner.child()
    traced = [runner.child(trace=True, spans=span_file), runner.child(trace=True)]
    with open(span_file) as fh:
        recorded = json.load(fh)
    return plain, traced, recorded


def test_traced_and_untraced_scf_default_agree_bit_for_bit(scf_default_ops):
    plain, traced, _ = scf_default_ops
    assert plain["failures"] == [] and all(op["failures"] == [] for op in traced)
    assert plain["fingerprint"] and all(op["fingerprint"] == plain["fingerprint"] for op in traced)
    first, second = (op["layers"] for op in traced)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["scf.outer_iters"] == int(float.fromhex(plain["fingerprint"][2]))


def test_layer_self_times_sum_to_traced_wall(scf_default_ops):
    _, traced, recorded = scf_default_ops
    own = [s["end"] - s["start"] for s in recorded]
    for s in recorded:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    roots = [s for s in recorded if s["parent"] < 0]
    assert [s["name"] for s in roots] == ["op"]
    assert sum(own) == pytest.approx(roots[0]["end"] - roots[0]["start"], rel=1e-9)
    # time spent directly in the spans that only enclose layers belongs to no layer
    outside = sum(t for s, t in zip(recorded, own) if s["name"] in spans.UMBRELLAS)
    assert outside <= UNATTRIBUTED_MAX * traced[0]["wall_s"]
    assert traced[0]["layers"]["trace.unattributed_frac"] <= UNATTRIBUTED_MAX


def test_self_time_arithmetic():
    tracer = spans.Tracer()
    root = tracer.begin("op")
    child = tracer.begin("a")
    grandchild = tracer.begin("b")
    tracer.end(grandchild)
    tracer.end(child)
    tracer.end(root)
    own = tracer.self_times()
    assert sum(own) == pytest.approx(root.duration)
    assert own[1] == pytest.approx(child.duration - grandchild.duration)
    assert tracer.inside(2, ("op",)) and not tracer.inside(0, ("op",))


def test_ffteq_is_calibrated_on_the_applies_own_transforms():
    tracer = spans.Tracer()
    block = {"vectors": 2, "components": 2, "a1": False, "block": True}
    tracer.spans = [
        spans.Span("op", 0.0, -1, 10.0),
        spans.Span("hamiltonian.apply", 1.0, 0, 4.0, block),
        spans.Span("fields.fft", 1.0, 1, 2.0, {"transforms": 4, "nbytes": 3_000_000}),
        spans.Span("fields.fft", 2.0, 1, 3.0, {"transforms": 4, "nbytes": 3_000_000}),
        spans.Span("fields.fft", 5.0, 0, 9.0, {"transforms": 4, "nbytes": 1_000_000}),
    ]
    layers = spans.layer_metrics(tracer, 10.0)
    # 3 s of apply over 2 vectors x 2 components at 0.25 s per transform inside it
    assert layers["hamiltonian.apply_a0.ffteq"] == pytest.approx(3.0)
    assert layers["hamiltonian.apply_a1.ffteq"] == 0.0
    # the operation's transforms average 0.5 s, so one spinor transform takes 1 s
    assert layers["hamiltonian.apply.ffteq_total"] == pytest.approx(3.0)
    assert layers["fields.fft.mbytes_computed"] == pytest.approx(7.0)
    # the root's 10 s less its 3 s apply and 4 s transform
    assert layers["trace.unattributed_frac"] == pytest.approx(0.3)


def test_install_restores_every_patch():
    import magrhf.cli
    import magrhf.fields
    import magrhf.scf

    before = (magrhf.fields.Cell.to_spectral, magrhf.scf.eigensolve, magrhf.cli.run)
    restore = spans.install(spans.Tracer())
    assert magrhf.scf.eigensolve is not before[1]
    restore()
    assert (magrhf.fields.Cell.to_spectral, magrhf.scf.eigensolve, magrhf.cli.run) == before


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
