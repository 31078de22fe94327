"""Sweep of the oracle's ascent length and refine width against the
closed forms.

For each (ASCENT_ITERS, REFINE_TOP) of a grid, one fresh interpreter runs
`verify_run(n, 20, seed, 200)` for n = 2, 3, 4 and the given seeds, with
both constants patched on `toruspack.oracle`, and reports:

- the rows whose oracle radius is more than `ORACLE_ROUNDING_TOL` from the
  formula;
- the worst gap below the formula (short) and above it (over);
- the table time (all tables, in process) and the refine's part of it;
- the peak RSS of that interpreter.

Not collected by pytest.  Run from the root of a source checkout:

    PYTHONPATH=src python tests/oracle_sweep.py                  # the grid, seeds 0-19
    PYTHONPATH=src python tests/oracle_sweep.py --seeds 20-29 --grid 60x25

Each setting runs alone in its own process, so the peak RSS is its own.
"""
from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time

ITERS = (40, 60, 80, 120, 220)
TOPS = (12, 25, 50, 100)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def measure(iters: int, top: int, seeds: list[int]) -> dict:
    """One setting's rows out, worst gaps, times and peak RSS, in this
    process."""
    from toruspack import oracle
    from toruspack.report import verify_run

    oracle.ASCENT_ITERS, oracle.REFINE_TOP = iters, top
    best_of, refine_s = oracle._best_of, [0.0]

    def timed_best_of(*args):
        t = time.perf_counter()
        try:
            return best_of(*args)
        finally:
            refine_s[0] += time.perf_counter() - t

    oracle._best_of = timed_best_of
    out = {"iters": iters, "top": top, "rows": 0, "out": 0, "short": 0.0, "over": 0.0, "table_s": 0.0}
    for n in (2, 3, 4):
        for seed in seeds:
            t = time.perf_counter()
            rows = verify_run(n, 20, seed, 200)
            out["table_s"] += time.perf_counter() - t
            for r in rows:
                diff = r["oracle_r"] - r["formula_r"]
                out["rows"] += 1
                out["out"] += not oracle.oracle_agrees(r["formula_r"], r["oracle_r"])
                out["short"], out["over"] = max(out["short"], -diff), max(out["over"], diff)
    out["refine_s"] = refine_s[0]
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-19", help="seed range lo-hi (default 0-19)")
    ap.add_argument("--grid", nargs="*", help="settings ITERSxTOP (default: the full grid)")
    ap.add_argument("--one", help=argparse.SUPPRESS)  # ITERSxTOP, measured in this process
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)
    if args.one:
        print(json.dumps(measure(*map(int, args.one.split("x")), seeds)))
        return 0
    grid = args.grid or [f"{i}x{t}" for i in ITERS for t in TOPS]
    print(f"seeds {args.seeds}, verify_run(n, 20, seed, 200), n = 2, 3, 4")
    print("| ASCENT_ITERS | REFINE_TOP | rows out | worst short | worst over | table s | refine s | peak RSS MB |")
    print("|---|---|---|---|---|---|---|---|")
    for setting in grid:
        run = subprocess.run([sys.executable, __file__, "--seeds", args.seeds, "--one", setting],
                             check=True, capture_output=True, text=True)
        r = json.loads(run.stdout)
        print(f"| {r['iters']} | {r['top']} | {r['out']} of {r['rows']} | {r['short']:.3g} | {r['over']:.3g} "
              f"| {r['table_s']:.2f} | {r['refine_s']:.2f} | {r['rss_mb']:.1f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
