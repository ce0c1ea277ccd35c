#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize it.

    python3 perfbench/baseline.py --seeds 0-9 --out perfbench/BENCH_seed.json
    python3 perfbench/baseline.py --workloads epidemic --seeds 0-4 --trace-seed -1

For every workload, runs ``run.py`` once per seed (sequentially, so runs do
not compete for cores), then reports each end-to-end metric's median,
quartiles and spread (interquartile range over median), the same statistic
the benchmark's bounds are checked against.  With ``--trace-seed`` >= 0 it
adds one traced run per workload at that seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace-seed", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "seeds": _seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0) for seed in report["seeds"]]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        for name in bounds:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            print(f"{workload:13s} {name:12s} median {stats['median']:.6g} {stats['unit']} "
                  f"spread {stats['spread']:.3f} (bound {bounds[name]})", flush=True)
        print(f"{workload:13s} fail_ratio {entry['failed']}/{entry['attempted']}", flush=True)
        if args.trace_seed >= 0:
            traced = run_once(workload, args.trace_seed, seconds, 1)
            entry["per_layer"] = {
                name: m["value"] for name, m in traced["metrics"].items()
            }
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
