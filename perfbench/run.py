"""magrhf benchmark driver.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The loop is closed: one operation at a
time, each in a fresh child process (``child.py``) with
``MAGRHF_THREADS=1`` and the BLAS/OpenMP pools pinned to one thread,
until ``--seconds`` of operations have run (at least two).  Every
operation is checked for correctness.  The last line of standard
output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print each metric by
name and unit, ``failed_frac``, and the environment stamp.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
medians over the operations of ``wall_s`` (set-up end to checked
solution), ``cpu_s`` (user + sys of the child), ``peak_rss_mb`` and
``setup_s`` (child start to the first solver call; the operations'
set-ups plus set-up-only children, at least nine samples).
``--trace 1`` alternates untraced and traced operations on the same
inputs, fails any traced operation whose outputs differ from the
untraced ones by a single bit, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0  # every run must end within 180 s
PINNED_ENV = {"MAGRHF_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to an operation failing its checks)."""


def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.t_start = time.perf_counter()

    def child(self, *, trace: bool = False, setup_only: bool = False, spans: str | None = None) -> dict:
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.t_start)
        if remaining <= 0:
            raise BenchError("run time limit reached")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t_spawn = time.perf_counter()
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--trace", str(int(trace)), "--t-spawn", repr(t_spawn),
               "--scratch", SCRATCH]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", spans]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.workload} operation exceeded the run time limit") from exc
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0:
            raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        out["lifetime_s"] = time.perf_counter() - t_spawn
        return out


def median_of(rows: list[dict], key: str) -> float:
    return float(statistics.median(r[key] for r in rows))


def measure(args, spec: dict) -> tuple[list[dict], dict]:
    runner = Runner(args.workload, args.seed)
    os.makedirs(SCRATCH, exist_ok=True)
    warm = runner.child(setup_only=True)  # compiles bytecode and fills the file cache
    print("env " + json.dumps({**warm["env"], "git_describe": git_describe()}, sort_keys=True))

    ops: list[dict] = []
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        spans = os.path.join(SCRATCH, f"spans-{args.workload}-{args.seed}.json") if traced else None
        op = runner.child(trace=traced, spans=spans)
        op["traced"] = traced
        ops.append(op)
        print(f"op {len(ops)}{' traced' if traced else ''}: wall_s={op['wall_s']:.4f} setup_s={op['setup_s']:.4f} "
              f"cpu_s={op['cpu_s']:.4f} {'FAILED' if op['failures'] else 'ok'}")
        elapsed = time.perf_counter() - t0
        # stop when another operation would more likely end after --seconds than before
        if len(ops) >= 2 and elapsed + 0.5 * median_of(ops, "lifetime_s") > args.seconds:
            break

    plain = [op for op in ops if not op["traced"]]
    traced_ops = [op for op in ops if op["traced"]]
    for op in traced_ops:
        if op["fingerprint"] != plain[0]["fingerprint"]:
            op["failures"].append("traced outputs differ from the untraced ones")

    if not args.trace:
        setups = [op["setup_s"] for op in ops]
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.child(setup_only=True)["setup_s"])
        values = {
            "wall_s": median_of(plain, "wall_s"),
            "cpu_s": median_of(plain, "cpu_s"),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "setup_s": float(statistics.median(setups)),
        }
        names = spec["end_to_end"]
    else:
        values = {k: float(statistics.median(op["layers"][k] for op in traced_ops)) for k in traced_ops[0]["layers"]}
        values["trace.wall_s"] = median_of(traced_ops, "wall_s")
        values["trace.overhead_frac"] = values["trace.wall_s"] / median_of(plain, "wall_s") - 1.0
        names = spec["per_layer"]
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    return ops, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description="magrhf benchmark driver")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not os.path.isfile(os.path.join(ROOT, "src", "magrhf", "__init__.py")):
            raise BenchError("no magrhf sources under src/; run from a repository checkout")
        ops, metrics = measure(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = sum(1 for op in ops if op["failures"])
    for op in ops:
        for failure in op["failures"]:
            print(f"FAILED ({'traced' if op['traced'] else 'untraced'}): {failure}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed / len(ops):.6g} ({failed} of {len(ops)} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
