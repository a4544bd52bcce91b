"""One benchmark operation in a fresh process.

    python3 perfbench/child.py --workload <name> --seed <n> --trace <0|1> --t-spawn <t>

``--t-spawn`` is the parent's ``time.perf_counter()`` just before it
started this process (the clock is system-wide on Linux), so set-up time
counts interpreter start.  The process builds the workload's inputs,
runs and checks one operation, and prints one JSON line.  With
``--setup-only`` it stops after the inputs and also reports the
environment stamp.  With ``--trace 1`` it records spans around the
package's layers, writes them to ``--spans`` and reports per-layer
totals.
"""

import time

T_MAIN = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from magrhf.fields import Cell  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

FFT_REF_REPEATS = 5  # before and again after the traced operation


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("MAGRHF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def fft_reference_times(shape: tuple[int, ...]) -> list[float]:
    """Times of batched c2c transforms of an orbital block."""
    cell = Cell(1.0, shape[-1])
    block = np.random.default_rng(0).standard_normal(shape) + 0j
    cell.to_spectral(block)
    times = []
    for _ in range(FFT_REF_REPEATS):
        t = time.perf_counter()
        cell.to_spectral(block)
        times.append(time.perf_counter() - t)
    return times


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scratch", required=True, help="directory for records and checkpoints")
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args()

    t_imported = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed)
    t_ready = time.perf_counter()
    out = {
        "setup_s": t_ready - args.t_spawn,
        "setup.interp.s": T_MAIN - args.t_spawn,
        "setup.import.s": t_imported - T_MAIN,
        "setup.inputs.s": t_ready - t_imported,
    }
    if args.setup_only:
        out["env"] = environment()
        print(json.dumps(out))
        return 0

    scratch = tempfile.mkdtemp(dir=args.scratch)
    # the reference transform gauges the machine's speed; it is timed on
    # both sides of the operation, so that a change of speed shows less
    fft_ref = fft_reference_times(wl.ref_block) if args.trace else []
    tracer = spans.Tracer() if args.trace else None
    restore = spans.install(tracer) if tracer else None
    root = tracer.begin("op") if tracer else None
    t0 = time.perf_counter()
    try:
        outcome = wl.run(inputs, scratch)
        failures = wl.check(outcome)
    except Exception:  # a failed operation is a result, not a crash
        outcome, failures = None, [traceback.format_exc(limit=4)]
    wall = time.perf_counter() - t0
    if tracer:
        tracer.end(root)
        restore()
    shutil.rmtree(scratch, ignore_errors=True)

    out.update(
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        failures=failures,
        fingerprint=[float(v).hex() for v in wl.fingerprint(outcome)] if outcome else [],
    )
    if tracer:
        fft_ref += fft_reference_times(wl.ref_block)
        layers = spans.layer_metrics(tracer, wall)
        layers["fields.fft_ref.ms"] = 1e3 * statistics.median(fft_ref)
        layers.update({"zeromodes.residual_n96": 0.0, **(wl.layer_values(outcome) if outcome else {})})
        layers.update({k: out[k] for k in ("setup.interp.s", "setup.import.s", "setup.inputs.s")})
        out["layers"] = layers
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tracer.dump(), fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
