"""In-memory span recorder that wraps the package's public functions.

Tracing lives entirely in the benchmark: :func:`install` replaces
module attributes of ``magrhf`` with timing wrappers and returns a
function that restores them.  A wrapper goes on the name in the module
that *calls* the function (``magrhf.scf.eigensolve``,
``magrhf.spinless.eigensolve``, ...), because every module binds the
names it imports once, at import time.

Each span records its layer name, start and end (``time.perf_counter``),
the index of the span that was open when it started, and a few
attributes (vector counts, iteration counts, bytes).  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field
from importlib import import_module

import numpy as np

EIGENSOLVERS = ("scf.eigensolve", "spinless.eigensolve")
#: spans that only enclose layers; their own time is outside every layer
UMBRELLAS = ("op", "cli.run")
#: components of an orbital; the FFT-equivalent is one transform of each
SPINOR = 2


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one tracer per traced operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str, **attrs) -> Span:
        span = Span(name, time.perf_counter(), self._open[-1] if self._open else -1, attrs=attrs)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str, before=None, after=None):
        """Return ``fn`` timed as a span; ``before(*args, **kw)`` and
        ``after(result, *args, **kw)`` return attributes to record."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name, **(before(*args, **kwargs) if before else {}))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after:
                span.attrs.update(after(out, *args, **kwargs))
            return out

        return traced

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def inside(self, index: int, names: tuple[str, ...]) -> bool:
        """Whether any ancestor of span ``index`` has one of ``names``."""
        p = self.spans[index].parent
        while p >= 0:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **s.attrs}
            for s in self.spans
        ]


def _is_magnetic(A) -> bool:
    return A is not None and not A.is_zero()


def _transforms(cell, values: np.ndarray) -> dict:
    return {"transforms": int(np.prod(values.shape[:-3]))}


def _bytes(out: np.ndarray, cell, values: np.ndarray) -> dict:
    return {"nbytes": values.nbytes + out.nbytes}


def install(tracer: Tracer):
    """Patch the traced names; returns a function that undoes every patch."""
    import magrhf.cli
    import magrhf.fields
    import magrhf.runio
    import magrhf.scf
    import magrhf.spinless
    import magrhf.zeromodes

    # the package re-exports the function density(), which hides the module
    density_mod = import_module("magrhf.density")
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, before=None, after=None):
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, before, after))

    # fields: every 3-D transform goes through these two Cell methods
    for attr in ("to_spectral", "from_spectral"):
        patch(magrhf.fields.Cell, attr, "fields.fft", before=_transforms, after=_bytes)

    # hamiltonian: the batched apply built for the eigensolver and the
    # residual, plus the single-spinor applies of the energy and audits
    make_hamiltonian = magrhf.scf.make_hamiltonian

    def traced_make_hamiltonian(cell, v_eff, A):
        apply_h = make_hamiltonian(cell, v_eff, A)
        return tracer.wrap(
            apply_h,
            "hamiltonian.apply",
            before=lambda X: {"vectors": int(X.shape[0]), "components": int(X.shape[1]), "a1": _is_magnetic(A),
                              "block": True},
        )

    patches.append((magrhf.scf, "make_hamiltonian", make_hamiltonian))
    magrhf.scf.make_hamiltonian = traced_make_hamiltonian

    def single(psi, A):
        return {"vectors": 1, "a1": _is_magnetic(A), "block": False}

    patch(density_mod, "apply_pauli_kinetic", "hamiltonian.apply", before=single)
    patch(density_mod, "apply_magnetic_laplacian", "hamiltonian.apply", before=single)
    patch(magrhf.zeromodes, "apply_sigma_kinetic_root", "hamiltonian.apply", before=single)
    for module in (magrhf.scf, density_mod, magrhf.spinless):
        patch(module, "hartree", "hamiltonian.hartree")

    # scf
    def solved(state, *args, **kwargs):
        return {
            "outer_iters": state.iteration,
            "converged": bool(state.converged),
            "residuals": [float(r) for r in state.residuals],
        }

    def lobpcg(out, *args, **kwargs):
        return {"iters": int(out[3])}

    patch(magrhf.scf, "scf_solve", "scf.solve", after=solved)
    patch(magrhf.cli, "scf_solve", "scf.solve", after=solved)
    patch(magrhf.scf, "eigensolve", "scf.eigensolve", after=lobpcg)
    patch(magrhf.scf, "update_vector_potential", "scf.field_solve")

    # density
    for attr in ("density", "current", "magnetisation"):
        patch(magrhf.scf, attr, "density.observables")
    patch(magrhf.scf, "total_energy", "density.total_energy")
    patch(magrhf.scf, "kinetic_inequality_report", "density.audit")
    patch(density_mod, "kinetic_inequality_report", "density.audit")

    # spinless oracle: its eigensolver receives an inline scalar apply
    eigensolve_spinless = magrhf.spinless.eigensolve

    def traced_eigensolve_spinless(apply_h, *args, **kwargs):
        apply_t = tracer.wrap(apply_h, "spinless.apply", before=lambda X: {"vectors": int(X.shape[0])})
        return eigensolve_spinless(apply_t, *args, **kwargs)

    patches.append((magrhf.spinless, "eigensolve", eigensolve_spinless))
    magrhf.spinless.eigensolve = tracer.wrap(traced_eigensolve_spinless, "spinless.eigensolve", after=lobpcg)
    patch(magrhf.spinless, "scf_solve_spinless", "spinless.solve",
          after=lambda res, *a, **k: {"outer_iters": res.iterations})

    # zero modes and the Thomas-Fermi chain
    patch(magrhf.cli, "grid_residual", "zeromodes.grid_residual")
    for module in (magrhf.cli, magrhf.zeromodes):
        patch(module, "sample_on_cell", "zeromodes.sample")
    patch(magrhf.cli, "tf_minimize", "tfbound.tf_minimize",
          after=lambda res, *a, **k: {"iters": res.iterations})

    # run layer
    patch(magrhf.cli, "run", "cli.run")
    patch(magrhf.runio.ResultRecord, "write", "runio.write")
    patch(magrhf.cli, "checkpoint_save", "runio.checkpoint",
          after=lambda out, state, path: {"bytes": os.path.getsize(path)})

    def restore() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return restore


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer totals of one traced operation.

    An FFT-equivalent (``ffteq``) is the time of one 3-D transform of
    one spinor orbital, taken from the operation's own ``fields.fft``
    spans: ``SPINOR`` times their mean time per scalar transform.  An
    apply's cost per vector is calibrated on the transforms inside those
    same applies, so both sides of the ratio are timed at the same
    moments and on the same batch sizes.
    """
    spans = tracer.spans
    own = tracer.self_times()
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)

    def total(name: str, key: str | None = None) -> float:
        return float(sum(s.duration if key is None else s.attrs.get(key, 0) for s in spans if s.name == name))

    def self_total(name: str) -> float:
        return float(sum(t for s, t in zip(spans, own) if s.name == name))

    def transform_s(indices) -> float:
        """Mean time of one scalar transform among the ``fields.fft`` spans of ``indices``."""
        ffts = [spans[i] for i in indices if spans[i].name == "fields.fft"]
        count = sum(s.attrs["transforms"] for s in ffts)
        return sum(s.duration for s in ffts) / count if count else 0.0

    spinor_ffteq_s = SPINOR * transform_s(range(len(spans)))
    applies = [i for i, s in enumerate(spans) if s.name == "hamiltonian.apply"]
    block = {
        flag: [i for i in applies if spans[i].attrs["block"] and spans[i].attrs["a1"] == flag]
        for flag in (False, True)
    }

    def vectors(group) -> int:
        return int(sum(spans[i].attrs["vectors"] for i in group))

    def ffteq(group) -> float:
        """Apply time over the time of transforming its vectors once, both inside ``group``."""
        per_transform = transform_s([c for i in group for c in children.get(i, [])])
        transforms = sum(spans[i].attrs["vectors"] * spans[i].attrs["components"] for i in group)
        return sum(spans[i].duration for i in group) / (transforms * per_transform) if per_transform else 0.0

    def in_ffteq(seconds: float) -> float:
        return seconds / spinor_ffteq_s if spinor_ffteq_s else 0.0

    block_vectors = vectors(block[False]) + vectors(block[True])
    reapply = [i for i in applies if not tracer.inside(i, EIGENSOLVERS)]
    solves = [s for s in spans if s.name == "scf.solve"]
    outer = int(total("scf.solve", "outer_iters"))
    last = solves[-1].attrs if solves else {"residuals": [0.0, 0.0, 0.0]}
    fft_bytes = sum(s.attrs["nbytes"] for s in spans if s.name == "fields.fft")
    umbrella_self = sum(t for s, t in zip(spans, own) if s.name in UMBRELLAS)

    return {
        "fields.fft.count": int(total("fields.fft", "transforms")),
        "fields.fft.s": total("fields.fft"),
        "fields.fft.mbytes_computed": fft_bytes / 1e6,
        "hamiltonian.apply_a0.vectors": vectors(block[False]),
        "hamiltonian.apply_a0.ffteq": ffteq(block[False]),
        "hamiltonian.apply_a1.vectors": vectors(block[True]),
        "hamiltonian.apply_a1.ffteq": ffteq(block[True]),
        "hamiltonian.apply_a1.share": vectors(block[True]) / block_vectors if block_vectors else 0.0,
        "hamiltonian.reapply.vectors": vectors(reapply),
        "hamiltonian.apply.s": total("hamiltonian.apply"),
        "hamiltonian.apply.ffteq_total": in_ffteq(total("hamiltonian.apply")),
        "hamiltonian.hartree.s": total("hamiltonian.hartree"),
        "scf.outer_iters": outer,
        "scf.halvings": sum(1 for s in spans if s.name == "scf.eigensolve") - outer,
        "scf.lobpcg.iters": int(total("scf.eigensolve", "iters")),
        "scf.eigensolve.s": total("scf.eigensolve"),
        "scf.eigensolve.self_s": self_total("scf.eigensolve"),
        "scf.eigensolve.self_ffteq": in_ffteq(self_total("scf.eigensolve")),
        "scf.field_solve.s": total("scf.field_solve"),
        "scf.self_s": self_total("scf.solve"),
        "scf.residual_orbital": last["residuals"][0],
        "scf.residual_field": last["residuals"][1],
        "scf.residual_continuity": last["residuals"][2],
        "scf.not_converged": sum(1 for s in solves if not s.attrs["converged"]),
        "density.observables.s": total("density.observables"),
        "density.total_energy.s": total("density.total_energy"),
        "density.audit.s": total("density.audit"),
        "spinless.solve.s": total("spinless.solve"),
        "spinless.outer_iters": int(total("spinless.solve", "outer_iters")),
        "spinless.lobpcg.iters": int(total("spinless.eigensolve", "iters")),
        "spinless.eigensolve.self_s": self_total("spinless.eigensolve"),
        "zeromodes.grid_residual.s": total("zeromodes.grid_residual"),
        "tfbound.tf_minimize.s": total("tfbound.tf_minimize"),
        "tfbound.tf_minimize.iters": int(total("tfbound.tf_minimize", "iters")),
        "runio.write.s": total("runio.write"),
        "runio.checkpoint.bytes": int(total("runio.checkpoint", "bytes")),
        "runio.checkpoint.s": total("runio.checkpoint"),
        "cli.run.s": total("cli.run"),
        "trace.unattributed_frac": umbrella_self / wall_s,
    }
