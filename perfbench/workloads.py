"""The four workloads, each a closed loop of one client in one process.

A workload prepares its inputs from the seed (untimed), then `measure`
calls `op(i)` for i = 0, 1, ... until the time is up, timing only the call
into the package and checking every answer with the gate afterwards.
Inputs are indexed, so a second pass over the same indices replays the
same inputs (the traced pass of a `--trace 1` run does this).
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import gate
import inputs
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 150


@dataclass
class Measured:
    latencies: list[float] = field(default_factory=list)  # raw seconds, answers that passed
    scaled: list[float] = field(default_factory=list)  # the same at the reference speed
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    busy_s: float = 0.0  # time inside the timed calls, failed ones included
    kernel_s: list[float] = field(default_factory=list)  # machine speed samples
    reference_s: float = speed.REFERENCE_S  # kernel time at the reference speed
    rounds: list[float] = field(default_factory=list)  # scaled time of each whole round

    def extend(self, other: "Measured") -> None:
        for name in ("latencies", "scaled", "failures", "kernel_s", "rounds"):
            getattr(self, name).extend(getattr(other, name))
        self.attempted += other.attempted
        self.busy_s += other.busy_s


def measure(w, seconds: float | None = None, count: int | None = None, tracer=None,
            scale: bool = False, start: int = 0) -> Measured:
    """Closed loop over w.op(start), w.op(start + 1), ... for `count` ops,
    or for `seconds` and then on to the end of the current round.

    A round is w.round_size ops (1 by default): one period of the workload's
    input pattern, so every whole round times the same mix of inputs.
    `rounds` holds the time of every whole round whose answers all passed.

    With `scale`, times are also given at the reference machine speed (see
    speed.py).  In-process ops are scaled from the SIGALRM sampler or, for
    a workload with round_kernel set, from `speed.np_kernel` timed before
    each round and after the last, an op taking the mean of the two kernel
    times around its round.  Ops run in a fresh process (w.in_process
    false) return their own sampling time and kernel time as `sampling_s`,
    `kernel_s`.
    """
    out = Measured()
    size = getattr(w, "round_size", 1)
    by_round = scale and w.in_process and getattr(w, "round_kernel", False)
    sampler = speed.Sampler() if scale and w.in_process and not by_round else None
    spans: list[tuple[int, float, float]] = []  # in-process answers that passed
    per_op: list[tuple[int, float]] = []  # (index, scaled time) of answers that passed
    failed_rounds: set[int] = set()
    deadline = time.perf_counter() + seconds if seconds is not None else None
    if sampler:
        sampler.start()
    try:
        i = start
        while (i < start + count) if count is not None else (
                time.perf_counter() < deadline or (i - start) % size):
            if by_round and (i - start) % size == 0:
                out.kernel_s.append(_time_np_kernel())
            w.ensure(i)
            if tracer:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result, error = w.op(i), None
            except Exception as exc:  # a failed answer is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer:
                tracer.enabled = False
            out.attempted += 1
            out.busy_s += t1 - t0
            errs = [error] if error else w.check(i, result)
            if errs:
                out.failures.append(f"{w.describe(i)}: {'; '.join(errs)}")
                failed_rounds.add((i - start) // size)
            else:
                w.keep_case(i, result)
                if w.in_process or not scale:
                    spans.append((i, t0, t1))
                else:
                    net = t1 - t0 - result["sampling_s"]
                    out.latencies.append(net)
                    per_op.append((i, net * speed.LOAD_REFERENCE_S / result["kernel_s"]))
                    out.kernel_s.append(result["kernel_s"])
            i += 1
    finally:
        if sampler:
            sampler.stop()
    if not w.in_process:
        out.reference_s = speed.LOAD_REFERENCE_S
    elif by_round:
        out.kernel_s.append(_time_np_kernel())
        out.reference_s = speed.NP_REFERENCE_S
    elif sampler:
        out.kernel_s = sampler.kernel_s
    for j, t0, t1 in spans:
        if by_round:
            r = (j - start) // size
            net = t1 - t0
            scaled = net * speed.NP_REFERENCE_S / (0.5 * (out.kernel_s[r] + out.kernel_s[r + 1]))
        elif sampler:
            net = t1 - t0 - sampler.span(t0, t1)[0]
            scaled = sampler.scaled(t0, t1)
        else:
            net = scaled = t1 - t0
        out.latencies.append(net)
        per_op.append((j, scaled))
    out.scaled = [t for _, t in per_op]
    per_round = [0.0] * ((i - start) // size)
    for j, t in per_op:
        if (j - start) // size < len(per_round):
            per_round[(j - start) // size] += t
    out.rounds = [t for r, t in enumerate(per_round) if r not in failed_rounds]
    return out


def _time_np_kernel() -> float:
    t0 = time.perf_counter()
    speed.np_kernel()
    return time.perf_counter() - t0


def run_child(args: list[str], cwd: str, env: dict) -> tuple[float, dict | None, str]:
    """Run perfbench/child.py; returns (wall seconds, last JSON line, error)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return wall, None, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    return wall, json.loads(lines[-1]), "\n".join(lines[:-1])


class Solve:
    """solve_report on disguised bases; 1 query in 10 also renders and serializes."""

    in_process = True
    seeded = True
    WARMUP = 300
    round_size = 30  # one period of the stream's (n, kind, render) pattern
    round_kernel = True
    CHUNK = 512

    def __init__(self, seed: int):
        from toruspack import packing, render, report

        self._packing, self._render, self._report = packing, render, report
        warm = inputs.solve_queries(inputs.rng_for(seed, "solve-warmup"), 0, self.WARMUP)
        for q in warm:
            try:
                self._query(q)
            except Exception:  # warm-up answers are not scored
                pass
        self._rng = inputs.rng_for(seed, "solve")
        self.queries: list[dict] = []
        self.case = None

    def ensure(self, i):
        while i >= len(self.queries):
            self.queries += inputs.solve_queries(self._rng, len(self.queries), self.CHUNK)

    def _query(self, q):
        rec = self._report.solve_report(q["n"], q["v1"], q["v2"])
        if q["render"]:
            p = self._packing.packing_from_dict(rec["packing"])
            g = self._packing.graph_from_dict(rec["graph"])
            svg = self._render.render_packing(p, g, self._render.FigureSpec())
            text = self._packing.to_json(rec)
            if not (svg.endswith("</svg>\n") and text.startswith("{")):
                raise ValueError("malformed SVG or JSON output")
        return rec

    def op(self, i):
        return self._query(self.queries[i])

    def check(self, i, rec):
        return gate.check_solve(self.queries[i], rec)

    def keep_case(self, i, rec):
        if self.case is None:
            self.case = (self.queries[i], rec)

    def describe(self, i):
        q = self.queries[i]
        return f"solve n={q['n']} {q['kind']} ({q['m'].x!r}, {q['m'].y!r})"

    def self_test(self):
        return gate.self_test(solve_case=self.case)

    def known_defects(self, seed):
        """Probe the n = 4 hexagonal corner kept out of the timed stream
        (inputs.HEX_CORNER_4); the result is printed, not scored."""
        probe = inputs.hex_corner_probe(seed)
        bad = []
        for q in probe:
            try:
                errs = gate.check_solve(q, self._query(q))
            except Exception as exc:
                errs = [f"{type(exc).__name__}: {exc}"]
            if errs:
                bad.append(errs[0])
        line = (f"n=4 hexagonal corner (kept out of the timed stream): {len(bad)} of "
                f"{len(probe)} disguised bases fail")
        return [line + (f", first: {bad[0]}" if bad else "")]

    def input_digest(self, seed):
        return inputs.solve_digest(inputs.solve_queries(inputs.rng_for(seed, "solve"), 0, 64))


class Certify:
    """classify_packing on closed-form optima of every region of n = 2, 3, 4,
    plus realizations of the flexible family ECG2-2."""

    in_process = True
    seeded = True
    ECG22_SAMPLES = 3
    ECG22_ATTEMPTS = 600

    def __init__(self, seed: int):
        from toruspack import rigidity
        from toruspack.closed_form import optimal_centers
        from toruspack.ecg import identify
        from toruspack.oracle import realize_embedding
        from toruspack.packing import Packing
        from toruspack.regions import region_count

        self._Packing, self._optimal_centers = Packing, optimal_centers
        self._region_count, self._rigidity = region_count, rigidity
        entry = identify(3).by_name("ECG2-2")
        samples = realize_embedding(entry.embedding, attempts=self.ECG22_ATTEMPTS,
                                    seed=seed, max_samples=self.ECG22_SAMPLES)
        self.flexible = [Packing(m=s.m, centers=s.centers, radius=s.edge_length / 2)
                         for s in samples]
        self._rng = inputs.rng_for(seed, "certify")
        self.items: list[tuple] = []  # (label, packing, tol, expected)
        self.realized = len(samples)
        # what one pass of ensure() appends: a torus per region, then ECG2-2
        self.round_size = sum(region_count(n) for n in (2, 3, 4)) + len(self.flexible)
        self.case = None

    def ensure(self, i):
        while i >= len(self.items):
            for n, idx, m in inputs.region_round(self._rng, (2, 3, 4)):
                sol = self._optimal_centers(n, m)
                p = self._Packing(m=m, centers=sol.centers, radius=sol.radius)
                expected = "free-circle" if idx == self._region_count(n) else "rigid-LMD"
                self.items.append((f"R{idx}_{n} ({m.x!r}, {m.y!r})", p, 1e-9, expected))
            for k, p in enumerate(self.flexible):
                self.items.append((f"ECG2-2 sample {k}", p, 1e-7, "flexible"))

    def op(self, i):
        _, p, tol, _ = self.items[i]
        return self._rigidity.classify_packing(p, tol=tol)

    def check(self, i, verdict):
        return gate.check_certify(self.items[i][3], verdict)

    def keep_case(self, i, verdict):
        if self.case is None:
            self.case = (self.items[i][3], verdict)

    def describe(self, i):
        return f"certify {self.items[i][0]}"

    def run_checks(self):
        """Checks made once per run: ECG2-2 must realize."""
        if self.realized < self.ECG22_SAMPLES:
            return 1, [f"ECG2-2: {self.realized} of {self.ECG22_SAMPLES} samples in "
                       f"{self.ECG22_ATTEMPTS} attempts"]
        return 1, []

    def self_test(self):
        return gate.self_test(certify_case=self.case)

    def input_digest(self, seed):
        rng = inputs.rng_for(seed, "certify")
        return inputs.round_digest([inputs.region_round(rng, (2, 3, 4)) for _ in range(4)])


class Verify:
    """compare_with_closed_form(n, m, restarts=200, seed) on interior tori of
    every region of n = 3, 4: the CLI's `verify` path."""

    in_process = True
    seeded = True
    RESTARTS = 200

    def __init__(self, seed: int):
        from toruspack import report

        from toruspack.regions import region_count

        self._report = report
        self.seed = seed
        self.round_size = region_count(3) + region_count(4)  # one region_round
        self._rng = inputs.rng_for(seed, "verify")
        self.items: list[tuple] = []
        self.case = None

    def ensure(self, i):
        while i >= len(self.items):
            self.items += inputs.region_round(self._rng, (3, 4))

    def op(self, i):
        n, _, m = self.items[i]
        return self._report.compare_with_closed_form(n, m, restarts=self.RESTARTS, seed=self.seed)

    def check(self, i, cmp):
        return gate.check_verify(cmp)

    def keep_case(self, i, cmp):
        if self.case is None:
            self.case = cmp

    def describe(self, i):
        n, idx, m = self.items[i]
        return f"verify R{idx}_{n} ({m.x!r}, {m.y!r})"

    def self_test(self):
        return gate.self_test(verify_case=self.case)

    def input_digest(self, seed):
        rng = inputs.rng_for(seed, "verify")
        return inputs.round_digest([inputs.region_round(rng, (3, 4)) for _ in range(4)])


class Pipeline:
    """`toruspack pipeline --n 3`: run_pipeline(3, out) with all its defaults,
    seed 0 included, one fresh process per repeat.

    The seed is fixed because the pipeline's run time depends on it far
    more than on anything else: realize_embedding stops at its third
    sample, so seeds 1 and 2 take 24 s and 16.5 s.  A per-run seed would
    make the spread across runs mostly that luck.  All repeats must write
    identical files.
    """

    in_process = False
    seeded = False  # the input is the same for every --seed
    N = 3
    SEED = 0

    def __init__(self, root: str, env: dict, scratch: str):
        self.root, self.env, self.scratch = root, env, scratch
        self.sample_speed = True  # children sample the machine speed
        self.spans_path = None  # set for the traced repeat
        self.files = None
        self.case = None
        self.children: list[dict] = []

    def ensure(self, i):
        pass

    def op(self, i):
        out = tempfile.mkdtemp(prefix="pipeline-", dir=self.scratch)
        try:
            args = ["pipeline", str(self.N), out, str(self.SEED)]
            if self.spans_path:
                args += ["--trace", self.spans_path]
            elif self.sample_speed:
                args.append("--sample")
            wall, res, err = run_child(args, self.root, self.env)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if res is None:
            raise RuntimeError(err)
        self.children.append(res)
        return res

    def check(self, i, res):
        if res["error"]:
            return [res["error"]]
        if res["record"] is None:
            return ["no verdict record written"]
        errs = gate.check_pipeline(self.N, res["record"])
        if self.files is None:
            self.files = res["files"]
        elif res["files"] != self.files:
            errs.append("output files differ from the first repeat with the same seed")
        return errs

    def keep_case(self, i, res):
        if self.case is None:
            self.case = (self.N, res["record"])

    def describe(self, i):
        return f"pipeline n={self.N} seed={self.SEED} repeat {i}"

    def self_test(self):
        return gate.self_test(pipeline_case=self.case)

    def input_digest(self, seed):
        return inputs.digest([self.N, self.SEED])
