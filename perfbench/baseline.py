"""Baseline of every workload: spreads over seeds and one traced run.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

For every workload of ``BENCHMARK.json`` it runs ``run.py --trace 0``
once per seed 0, ..., 9 and prints the median of each end-to-end
metric, its quartile spread (``statistics.quantiles(values, n=4)``,
distance between the first and third quartile over the median), the
metric's bound, and ``failed_frac``.
Then it makes one ``--trace 1`` run on seed 0.  Everything goes to a
JSON file together with the environment stamp and the length of each
run in seconds (``run_s``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(10)


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    doc = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    print(f"{'workload':20s} {'metric':12s} {'median':>10s} {'spread':>8s} {'bound':>6s}")
    for name in (w["name"] for w in spec["workloads"]):
        runs, run_s = [], []
        for seed in SEEDS:
            t = time.perf_counter()
            env, result = bench(name, seed, seconds, 0)
            run_s.append(time.perf_counter() - t)
            runs.append(result)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[m["name"]] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": m["bound"], "values": values,
            }
            print(f"{name:20s} {m['name']:12s} {median:10.4f} {(q3 - q1) / median:8.4f} {m['bound']:6.2f}", flush=True)
        print(f"{name:20s} {'failed_frac':12s} {failed / attempted:10.4f}  ({failed} of {attempted} operations)",
              flush=True)
        env, traced = bench(name, 0, seconds, 1)
        doc["env"] = env
        doc["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "run_s": run_s,
            "end_to_end": summary,
            "per_layer_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_correct": traced["correct"],
        }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
