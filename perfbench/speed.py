"""Machine speed measured during a run, to scale timings to a reference speed.

On the shared two-vCPU virtual machine the bounds were set on, each vCPU
flips between a slow and a roughly twice as fast state, independently, from
tens of milliseconds to minutes at a time.  The share of fast time in one
run is luck, and the run-to-run spread it causes is wider than any
regression bound worth having.  So `Sampler` times a fixed kernel every
INTERVAL_S from a timer signal, on the same vCPU as the work and while the
work runs, and a timed span is reported as its net time (sampling removed)
times REFERENCE_S / (mean kernel time during the span).  A change to the
package cannot change the kernel, so a scaled time still moves with the
package's own speed; run.py prints the raw times beside the scaled ones.

`kernel`, `load_kernel` and this module use only builtins, `bisect`,
`marshal`, `math`, `signal` and `time`, so a fresh interpreter can sample
during `import toruspack` without importing anything that import would
otherwise pay for.

Other work slows down by other factors than `kernel` does, so two more
kernels stand for it, each with its own reference time.  Work in a fresh
interpreter (setup_s, cold_solve_s, a pipeline run) is scaled by
`load_kernel`, which unmarshals and runs a module body.  Many short calls into numpy on
tiny arrays (the solve path) are scaled by `np_kernel`, timed between
rounds of work rather than from a signal (see workloads.measure); numpy
is imported only when it runs.
"""
import bisect
import marshal
import math
import signal
import time

# slow-state kernel time on the machine the bounds were set on
# (2-vCPU shared VM, Python 3.11.7)
REFERENCE_S = 7.0e-4
INTERVAL_S = 0.02
NEIGHBOURS = 2
MIN_INSIDE = 5


def kernel() -> float:
    """Float math, calls, dict and list traffic: the interpreter work the
    package's small-array and exact-arithmetic code mostly consists of."""
    acc = 0.0
    table = {}
    items = []
    for i in range(1200):
        x = i * 0.5
        acc += math.sqrt(x * x + 1.0) - math.hypot(x, 0.5)
        table[i & 63] = acc
        items.append((x, acc))
        if len(items) > 32:
            items.clear()
    return acc + sum(table.values())


# a module body of small functions and classes, compiled once
_MODULE_CODE = marshal.dumps(compile("".join(
    f"def f{i}(a, b=({i}, 'x{i}')):\n    return [a, b, {i}.5, 'name{i}']\n"
    f"class C{i}:\n    k = {{'a': {i}, 'b': f{i}}}\n    def m(self):\n        return self.k\n"
    for i in range(40)), "<load_kernel>", "exec"))
# slow-state load_kernel time on the same machine
LOAD_REFERENCE_S = 1.0e-3


def load_kernel() -> None:
    """Unmarshal a module's code and run its body: the work of importing
    from cached bytecode, which a fresh interpreter's start mostly is."""
    exec(marshal.loads(_MODULE_CODE), {})


# a typical np_kernel time on the same machine
NP_REFERENCE_S = 3.3e-3


def np_kernel() -> float:
    """Small-array numpy traffic: array construction, meshgrid, stack, a
    2x2 matrix product, hypot, isclose and clip on a 3x3 window."""
    import numpy as np

    acc = 0.0
    basis = np.array([[1.0, 0.0], [0.3, 0.95]])
    ks = np.arange(-1, 2)
    for i in range(40):
        d = np.array([0.1 * i, 0.2])
        a, b = np.meshgrid(ks, ks, indexing="ij")
        v = d + np.stack([a.ravel(), b.ravel()], axis=1).astype(float) @ basis
        n = np.hypot(v[:, 0], v[:, 1])
        m = n.min()
        acc += float(np.isclose(n, m, atol=1e-9).sum()) + float(np.clip(m, 0.0, 1.0))
    return acc


class Sampler:
    """Kernel timings taken from SIGALRM every INTERVAL_S while started.

    Python runs the handler in the main thread between bytecodes, so a
    sample lands inside whatever the main thread is timing; `scaled`
    subtracts it again.
    """

    def __init__(self, kernel=kernel, reference_s: float = REFERENCE_S):
        self.kernel, self.reference_s = kernel, reference_s
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self.handler_s: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.kernel_s.append(t1 - t0)
        self.handler_s.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def span(self, t0: float, t1: float) -> tuple[float, float]:
        """(sampling time inside [t0, t1], kernel time that represents it).

        A span holding at least MIN_INSIDE samples may mix both states, so
        it gets the time average of the speed: the harmonic mean of its
        kernel times.  A shorter span gets the median of the samples from
        NEIGHBOURS intervals before t0 to NEIGHBOURS after t1, a few on each
        side instead of one noisy one.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = sum(self.handler_s[lo:hi])
        if hi - lo >= MIN_INSIDE:
            return inside, (hi - lo) / sum(1.0 / k for k in self.kernel_s[lo:hi])
        reach = NEIGHBOURS * INTERVAL_S
        near = sorted(self.kernel_s[bisect.bisect_left(self.starts, t0 - reach):
                                    bisect.bisect_left(self.starts, t1 + reach)])
        return inside, near[len(near) // 2] if near else self.reference_s

    def whole(self) -> tuple[float, float]:
        """(all sampling time, harmonic mean kernel time) since start."""
        n = len(self.kernel_s)
        return sum(self.handler_s), n / sum(1.0 / k for k in self.kernel_s) if n else self.reference_s

    def scaled(self, t0: float, t1: float) -> float:
        """Net time of [t0, t1] at the reference speed."""
        inside, kernel_s = self.span(t0, t1)
        return (t1 - t0 - inside) * self.reference_s / kernel_s
