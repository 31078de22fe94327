"""Repeat the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py [--workloads solve,certify] [--seeds 1-10]
                                 [--trace 0] [--seconds S] [--out FILE]

Runs `perfbench/run.py` once per (workload, seed), one run at a time, and
prints per workload and metric the median, the quartiles and the spread
(third minus first quartile, as a share of the median) next to the bound in
BENCHMARK.json.  With --out, writes the summary and the run metadata as
JSON.
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


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary, meta = {}, None
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith("# run "):
                    meta = json.loads(line[6:])
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "unit": runs[0]["metrics"][name]["unit"], "values": values}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}  {'OK' if spread < bound / 3 else 'WIDE'}"
            print(f"  {name:50s} median {med:12.6g}  spread {spread:.4f}{flag}")
        summary[workload] = {
            "seeds": seeds(args.seeds),
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "metrics": rows,
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"metadata": meta, "seconds": args.seconds, "trace": args.trace,
                       "workloads": summary}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
