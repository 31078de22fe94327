"""End-to-end and per-layer benchmark of toruspack.

    python3 perfbench/run.py --workload {solve,certify,verify,pipeline}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  Metric names, units and bounds come from BENCHMARK.json.  With
--trace 0 the run measures the end-to-end metrics untraced; with --trace 1
it runs the workload untraced and then traced over the same inputs and
reports the per-layer metrics.  The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics; the lines before it are
for people.
"""
from __future__ import annotations

import os

# one client, one thread: pin every pool before numpy is imported
THREAD_PINS = {
    "TORUSPACK_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("solve", "certify", "verify", "pipeline")
COLD_REPEATS = 4      # fresh `toruspack solve` processes per run (setup_s, cold_solve_s)
IMPORTTIME_REPEATS = 3
TAIL_BLOCK = 750      # answers per block of the blockwise tail, see tail()

# the end-to-end metrics under the names a reader of each workload expects:
# metric -> (name, factor, unit)
WORKLOAD_NAMES = {
    "solve": {"throughput_per_s": ("solve_qps", 1.0, "1/s"), "p50_ms": ("solve_p50_us", 1e3, "us"),
              "tail_ms": ("solve_tail_us", 1e3, "us")},
    "certify": {"throughput_per_s": ("certify_qps", 1.0, "1/s"),
                "tail_ms": ("certify_tail_ms", 1.0, "ms")},
    "verify": {"throughput_per_s": ("verify_tori_per_s", 1.0, "1/s"),
               "tail_ms": ("verify_tail_s", 1e-3, "s")},
    "pipeline": {"p50_ms": ("pipeline_s", 1e-3, "s")},
}


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it: (value, percentile).

    Below 21 samples that percentile would lie under the median, so the
    maximum is returned instead, with percentile 100.  A run of at least
    two blocks of TAIL_BLOCK answers reports the median over its whole
    blocks, in answer order, of each block's tail: ten answers are too few
    to pin the tail of several thousand, and one burst of machine noise
    would move it.
    """
    if len(values) >= 2 * TAIL_BLOCK:
        blocks = [tail(values[i:i + TAIL_BLOCK])
                  for i in range(0, len(values) - TAIL_BLOCK + 1, TAIL_BLOCK)]
        return statistics.median(t for t, _ in blocks), blocks[0][1]
    s = sorted(values)
    if len(s) < 21:
        return s[-1], 100.0
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_section(seed: int) -> tuple[dict, int, list[str]]:
    """Fresh interpreters running `toruspack solve --json`: the import time
    inside each (setup_s) and the process wall time (cold_solve_s).  Each
    answer must match the in-process answer byte for byte."""
    import inputs
    import speed
    from toruspack.packing import to_json
    from toruspack.report import solve_report
    from workloads import run_child

    queries = inputs.solve_queries(inputs.rng_for(seed, "cold"), 0, COLD_REPEATS)
    imports, walls, failures = [], [], []
    for q in queries:
        v1, v2 = (",".join(repr(c) for c in v) for v in (q["v1"], q["v2"]))
        wall, res, out = run_child(["cold", "solve", "--n", str(q["n"]), f"--v1={v1}",
                                    f"--v2={v2}", "--json"], ROOT, child_env())
        if res is None or res["exit"] != 0:
            failures.append(f"cold solve n={q['n']}: {out if res is None else res}")
            continue
        if out != to_json(solve_report(q["n"], q["v1"], q["v2"])):
            failures.append(f"cold solve n={q['n']}: CLI output differs from the library")
            continue
        factor = speed.LOAD_REFERENCE_S / res["kernel_s"]
        imports.append((res["import_s"], res["import_s"] * factor))
        net = wall - res["sampling_s"]
        walls.append((net, net * factor))
    metrics = {}
    if imports:
        metrics = {"setup_s": statistics.median(s for _, s in imports),
                   "cold_solve_s": statistics.median(s for _, s in walls)}
        print(f"# raw (unscaled): setup_s {statistics.median(r for r, _ in imports):.6g}, "
              f"cold_solve_s {statistics.median(r for r, _ in walls):.6g}")
    return metrics, len(queries), failures


def import_breakdown() -> dict:
    """Median over fresh interpreters of `python -X importtime -c 'import toruspack'`."""
    rows = {"import.scipy_optimize_s": [], "import.numpy_s": [], "import.toruspack_self_s": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import toruspack"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        cumulative, own = {}, 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)", line)
            if not m:
                continue
            self_us, cum_us, mod = int(m[1]), int(m[2]), m[3]
            cumulative.setdefault(mod, cum_us)
            if mod == "toruspack" or mod.startswith("toruspack."):
                own += self_us
        rows["import.scipy_optimize_s"].append(cumulative.get("scipy.optimize", 0) * 1e-6)
        rows["import.numpy_s"].append(cumulative.get("numpy", 0) * 1e-6)
        rows["import.toruspack_self_s"].append(own * 1e-6)
    return {k: statistics.median(v) for k, v in rows.items()}


def metadata() -> dict:
    import numpy
    import scipy

    sha = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        ref = open(head, encoding="utf-8").read().strip()
        sha = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                sha = open(path, encoding="utf-8").read().strip()
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "git_sha": sha,
        "src_py_lines": src_lines,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": THREAD_PINS,
    }


def make(workload: str, seed: int, scratch: str):
    import workloads

    if workload == "solve":
        return workloads.Solve(seed)
    if workload == "certify":
        return workloads.Certify(seed)
    if workload == "verify":
        return workloads.Verify(seed)
    return workloads.Pipeline(ROOT, child_env(), scratch)


def end_to_end(name: str, w, seconds: float, seed: int) -> tuple[dict, int, list[str]]:
    from workloads import measure

    metrics, attempted, failures = cold_section(seed)
    run = measure(w, seconds=seconds, scale=True)
    if w.in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # every repeat is a fresh process; two at least, to compare outputs
        if run.attempted < 2:
            run.extend(measure(w, count=2 - run.attempted, scale=True))
        rss = max((c["maxrss_mb"] for c in w.children), default=0.0)
    lat = run.scaled
    if lat and run.rounds:
        t, pct = tail(lat)
        metrics.update({
            # whole rounds only, so every run times the same mix of inputs
            "throughput_per_s": getattr(w, "round_size", 1) * len(run.rounds) / sum(run.rounds),
            "p50_ms": statistics.median(lat) * 1e3,
            "tail_ms": t * 1e3,
            "peak_rss_mb": rss,
        })
        blocks = len(lat) // TAIL_BLOCK if len(lat) >= 2 * TAIL_BLOCK else 1
        print(f"# {name}: {len(lat)} answers timed, p50_ms {metrics['p50_ms']:.6g}, "
              f"tail is p{pct:.2f} of {len(lat) // blocks} samples"
              + (f", median of {blocks} blocks" if blocks > 1 else ""))
        raw_tail, _ = tail(run.latencies)
        print(f"# raw (unscaled): throughput_per_s {len(lat) / sum(run.latencies):.6g}, "
              f"p50_ms {statistics.median(run.latencies) * 1e3:.6g}, tail_ms {raw_tail * 1e3:.6g}; "
              f"machine speed kernel median "
              f"{statistics.median(run.kernel_s) * 1e6 if run.kernel_s else float('nan'):.6g} us "
              f"(reference {run.reference_s * 1e6:.6g} us)")
    return metrics, attempted + run.attempted, failures + run.failures


def per_layer(name: str, w, seconds: float, out_dir: str, seed: int) -> tuple[dict, int, list[str]]:
    from spans import Tracer, layer_metrics
    from workloads import Measured, measure

    metrics = import_breakdown()
    if not w.in_process:
        w.sample_speed = False
        plain = measure(w, count=1)
        w.spans_path = os.path.join(out_dir, f"spans-{name}-{seed}.json")
        done = len(w.children)
        traced = measure(w, count=1)
        top_level = 0.0
        for child in w.children[done:]:
            metrics.update(child["layers"])
            top_level = child["top_level_s"]
            if child["missing"]:
                print(f"# functions not found to wrap: {', '.join(child['missing'])}")
    else:
        # each input runs untraced and traced back to back, in alternating
        # order, so drift in machine speed and warm-up fall on both sides of
        # the overhead alike
        tracer = Tracer()
        tracer.install()
        plain, traced = Measured(), Measured()
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline:
            for side in ((plain, None), (traced, tracer))[:: 1 if i % 2 else -1]:
                side[0].extend(measure(w, count=1, start=i, tracer=side[1]))
            i += 1
        tracer.uninstall()
        summary = tracer.summary()
        metrics.update(layer_metrics(summary, tracer.samples))
        top_level = summary["top_level_s"]
        tracer.write(os.path.join(out_dir, f"spans-{name}-{seed}.json"))
        if tracer.missing:
            print(f"# functions not found to wrap: {', '.join(tracer.missing)}")
    metrics["trace.overhead_s"] = traced.busy_s - plain.busy_s
    metrics["trace.top_level_coverage"] = top_level / traced.busy_s if traced.busy_s else 0.0
    return (metrics, plain.attempted + traced.attempted, plain.failures + traced.failures)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "toruspack", "__init__.py")):
        print(f"error: no toruspack sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import toruspack

    if not os.path.abspath(toruspack.__file__).startswith(SRC + os.sep):
        print(f"error: imported toruspack from {toruspack.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        w = make(args.workload, args.seed, scratch)
        digest = w.input_digest(args.seed)
        failures = []
        if digest != w.input_digest(args.seed):
            failures.append("inputs differ between two generations from one seed")
        if w.seeded and digest == w.input_digest(args.seed + 1):
            failures.append("seeds differ but the inputs are the same")
        attempted = 2
        if hasattr(w, "run_checks"):
            n, errs = w.run_checks()
            attempted += n
            failures += errs
        if args.trace:
            metrics, n, errs = per_layer(args.workload, w, args.seconds, out_dir, args.seed)
            wanted = spec["per_layer"]
        else:
            metrics, n, errs = end_to_end(args.workload, w, args.seconds, args.seed)
            wanted = spec["end_to_end"]
        attempted += n
        failures += errs
        missed = w.self_test()
        if w.case is None:
            missed.append("no answer passed the gate, so the gate self-test could not run")
        defects = w.known_defects(args.seed) if hasattr(w, "known_defects") else []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    meta = metadata()
    meta["inputs_sha256"] = digest
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace, **meta}))
    for f in failures[:20]:
        print(f"# FAILED {f}")
    if len(failures) > 20:
        print(f"# ... {len(failures) - 20} more failures")
    for m in missed:
        print(f"# GATE SELF-TEST MISSED {m}")
    for d in defects:
        print(f"# KNOWN DEFECT {d}")
    print(f"# fail_frac {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    out = {}
    for row in wanted:
        if row["name"] not in metrics:
            print(f"# metric {row['name']} was not measured", file=sys.stderr)
            continue
        out[row["name"]] = {"value": metrics[row["name"]], "unit": row["unit"]}
        print(f"# {row['name']:52s} {metrics[row['name']]:.6g} {row['unit']}")
    if not args.trace:
        aliases = dict(WORKLOAD_NAMES[args.workload], cold_solve_s=("solve_cold_s", 1.0, "s"))
        for key, (alias, factor, unit) in aliases.items():
            if key in metrics:
                print(f"# {alias} = {metrics[key] * factor:.6g} {unit}")
    correct = not failures and not missed and len(out) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
