"""Work that must start from a fresh interpreter.

    python3 perfbench/child.py cold ARGS...           # `toruspack ARGS...`
    python3 perfbench/child.py pipeline N OUT SEED [--sample | --trace SPANS]

`cold` times `import toruspack` and then runs the command line as the
`toruspack` script would.  `pipeline` runs `run_pipeline(N, OUT, seed=SEED)`
with its defaults (oracle on, strict) and reports the verdict record and a
hash of every output file; with --sample it also samples the machine speed
(speed.py), with --trace it records spans instead.  Either prints one JSON
line last on stdout.
Expects the package on PYTHONPATH.
"""
import os
import sys
import time

# nothing `import toruspack` would import may be loaded before it is timed
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import speed  # noqa: E402


def _maxrss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold(argv: list[str]) -> None:
    sampler = speed.Sampler(speed.load_kernel, speed.LOAD_REFERENCE_S)
    sampler.start()
    t0 = time.perf_counter()
    import toruspack  # noqa: F401

    import_s = time.perf_counter() - t0
    from toruspack.cli import main

    code = main(argv)
    sys.stdout.flush()
    sampler.stop()
    import json

    inside, _ = sampler.span(t0, t0 + import_s)
    sampling_s, kernel_s = sampler.whole()
    print(json.dumps({"import_s": import_s - inside, "exit": code, "maxrss_mb": _maxrss_mb(),
                      "sampling_s": sampling_s, "kernel_s": kernel_s}))


def pipeline(n: int, out: str, seed: int, sample: bool, spans_path: str | None) -> None:
    tracer = sampler = None
    if spans_path:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
    if sample:
        sampler = speed.Sampler(speed.load_kernel, speed.LOAD_REFERENCE_S)
        sampler.start()
    t0 = time.perf_counter_ns()
    import toruspack.report as report

    t1 = time.perf_counter_ns()
    if tracer:
        tracer.add_span("import.toruspack", t0, t1)
        tracer.install()
        tracer.enabled = True
    error = None
    try:
        report.run_pipeline(n, out, seed=seed)
    except Exception as exc:  # reported to the parent, which counts the failure
        error = f"{type(exc).__name__}: {exc}"
    t2 = time.perf_counter_ns()
    if sampler:
        sampler.stop()
    import hashlib
    import json

    result = {"import_s": (t1 - t0) * 1e-9, "run_s": (t2 - t1) * 1e-9, "error": error,
              "files": {}, "record": None}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            result["files"][name] = hashlib.sha256(fh.read()).hexdigest()
    verdicts = os.path.join(out, f"verdicts_n{n}.json")
    if os.path.exists(verdicts):
        with open(verdicts, encoding="utf-8") as fh:
            result["record"] = json.load(fh)
    if tracer:
        tracer.enabled = False
        summary = tracer.summary()
        result["layers"] = layer_metrics(summary, tracer.samples)
        # top-level spans: import.toruspack and report.run_pipeline
        result["top_level_s"] = summary["top_level_s"]
        result["missing"] = tracer.missing
        tracer.write(spans_path)
    result["maxrss_mb"] = _maxrss_mb()
    if sampler:
        result["sampling_s"], result["kernel_s"] = sampler.whole()
    print(json.dumps(result))


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "cold":
        cold(args)
    elif mode == "pipeline":
        spans = args[4] if len(args) > 4 and args[3] == "--trace" else None
        pipeline(int(args[0]), args[1], int(args[2]), "--sample" in args[3:], spans)
    else:
        sys.exit(f"unknown mode {mode!r}")
