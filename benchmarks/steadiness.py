#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

    python3 benchmarks/steadiness.py --workload NAME [--workload NAME ...]
        --seeds 1 2 3 ... [--seconds S] [--trace 0|1]

Runs benchmarks/run.py once per seed and workload, one run at a time, and
prints for every metric its median, first and third quartile (Python's
statistics.quantiles(values, n=4)) and the quartile spread as a share of
the median, next to the bound BENCHMARK.json fixes and a third of it.
With --trace 1 it also reports whether each count repeated exactly over
the runs.  A summary is written to .bench_out/steadiness/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"run failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if median else None}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = ROOT / ".bench_out" / "steadiness"
    out_dir.mkdir(parents=True, exist_ok=True)
    for workload in args.workload:
        results = []
        for seed in args.seeds:
            results.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: correct={results[-1]['correct']} "
                  f"attempted={results[-1]['attempted']} failed={results[-1]['failed']}",
                  flush=True)
        rows = {}
        print(f"\n{workload}: {len(results)} runs, seeds {args.seeds}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            row = {"values": values, **summarize(values)}
            if args.trace:
                row["repeats_exactly"] = len(set(values)) == 1
                print(f"  {name:40s} median {row['median']:<12.6g} "
                      f"{'repeats exactly' if row['repeats_exactly'] else 'varies'}")
            else:
                bound = bounds[name]
                row["bound"] = bound
                ok = row["spread"] is not None and row["spread"] < bound / 3
                print(f"  {name:14s} median {row['median']:<10.5g} q1 {row['q1']:<10.5g} "
                      f"q3 {row['q3']:<10.5g} spread {row['spread']:.4f} "
                      f"bound {bound} ({'<' if ok else '>='} bound/3)")
            rows[name] = row
        summary = {"workload": workload, "seeds": args.seeds, "seconds": args.seconds,
                   "trace": args.trace, "all_correct": all(r["correct"] for r in results),
                   "metrics": rows}
        path = out_dir / f"{workload}-trace{args.trace}.json"
        path.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
