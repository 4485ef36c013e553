"""Repeat benchmark runs and summarise them: median, quartiles and spread.

    python3 bench/baseline.py --runs 10 --out bench/baseline/BENCH_<sha>.json

Runs bench/run.py once per seed (0 .. runs-1) on every workload with
--trace 0, then once per workload with --trace 1, in fresh processes and
one at a time. For each end-to-end metric it records the ten values, their
median and quartiles, and the spread (quartile distance over median) next
to the metric's bound from BENCHMARK.json; for the traced run, every
per-layer value. The spread must stay within the bound for the benchmark
to tell a change from noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    record = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}" / "result.json"
    result["record"] = json.loads(record.read_text())
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(name, seed, spec["run_seconds"], 0)
                for seed in range(args.runs)]
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "run_wall_s": [round(r["wall_s"], 1) for r in runs],
                 "machine": runs[0]["record"]["machine"],
                 "loadavg": [r["record"]["loadavg_start"] + r["record"]["loadavg_end"]
                             for r in runs],
                 "notes": runs[0]["record"]["notes"],
                 "end_to_end": {}}
        for metric, bound in bounds.items():
            s = summarise([r["metrics"][metric]["value"] for r in runs])
            s["bound"] = bound
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            flag = "" if metric == "setup_s" or s["spread"] <= bound / 3 else "  <-- spread"
            print(f"{name:<16} {metric:<16} median {s['median']:>12.6g} {s['unit']:<6} "
                  f"spread {s['spread']:.4f} (bound {bound}){flag}", flush=True)
        traced = run_once(name, 0, spec["run_seconds"], 1)
        entry["traced"] = {
            "correct": traced["correct"], "wall_s": round(traced["wall_s"], 1),
            "notes": traced["record"]["notes"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        doc["workloads"][name] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
