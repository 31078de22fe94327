"""Seeded input generators for the four workloads.

Everything here is derived from the workload seed and nothing else, so the
same seed gives byte-identical inputs and the package only ever sees the
generated tori and bases.  `digest` fingerprints a batch of inputs so a run
can show that property instead of assuming it.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np
from toruspack.lattice import ModuliPoint
from toruspack.regions import boundary_curve, region_count, sample_boundary, sample_interior

SQRT3 = math.sqrt(3.0)


def corners(n: int) -> list[ModuliPoint]:
    """Tori at the corners of the region diagram for n: the two corners of
    the strip bottom and every end of a region boundary curve, except the
    hexagonal corner of n = 4 (see `HEX_CORNER_4`)."""
    pts = {(0.0, 1.0), (0.5, SQRT3 / 2)}
    for idx in range(1, region_count(n)):
        for x in (0.0, 0.5):
            pts.add((x, boundary_curve(n, idx, x)))
    return [ModuliPoint(x, y) for x, y in sorted(pts)
            if not (n == 4 and x == 0.5 and abs(y - SQRT3 / 2) < 1e-12)]


# The hexagonal torus (1/2, sqrt(3)/2) at n = 4, where region R1_4 pinches
# to a point: solve_report raises OverlapDetected on most rotated or scaled
# bases of it, because rounding puts the reduced point a hair off the corner
# and the region formula chosen there gives overlapping circles.  A timed
# stream on which the program fails cannot be measured, so this torus is
# kept out of the solve stream and probed on its own every run
# (`hex_corner_probe`), whose result is printed, not scored.
HEX_CORNER_4 = (ModuliPoint(0.5, SQRT3 / 2), ModuliPoint(0.5, boundary_curve(4, 1, 0.5)))
HEX_PROBE_BASES = 20


SOLVE_BLOCK = 10  # per block of 10 queries: 7 interior, 2 boundary, 1 corner
RENDER_SLOT = 4   # the query in each block that also renders SVG and JSON
SCALE_DECADES = 2.0  # input scale spans 1e-2 .. 1e2


def rng_for(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def digest(values) -> str:
    """sha256 over the repr of every float/int in a nested structure."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, (list, tuple)):
            h.update(b"[")
            for item in v:
                feed(item)
            h.update(b"]")
        elif isinstance(v, ModuliPoint):
            feed((v.x, v.y))
        else:
            h.update(repr(v).encode() + b",")

    feed(values)
    return h.hexdigest()


def _random_unimodular(rng: np.random.Generator) -> np.ndarray:
    """Product of a few elementary shears and swaps: integer, det = +-1."""
    A = np.eye(2, dtype=np.int64)
    for _ in range(int(rng.integers(1, 5))):
        k = int(rng.integers(-3, 4))
        E = np.array([[1, k], [0, 1]]) if rng.random() < 0.5 else np.array([[1, 0], [k, 1]])
        A = E @ A
    if rng.random() < 0.5:
        A = A[::-1].copy()
    return A


def disguise(m: ModuliPoint, rng: np.random.Generator) -> tuple[tuple, tuple, float]:
    """A random basis of a lattice similar to m's.

    Rows [1, 0], [x, y] go through a unimodular change of basis, a rotation,
    an optional reflection and a scale 10^U(-2, 2).  Returns (v1, v2, scale);
    the shortest lattice vector of the input basis has length `scale`.
    """
    S = np.array([[1.0, 0.0], [m.x, m.y]])
    A = _random_unimodular(rng)
    t = rng.uniform(0.0, 2 * math.pi)
    Q = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    if rng.random() < 0.5:
        Q = Q @ np.diag([1.0, -1.0])
    scale = float(10.0 ** rng.uniform(-SCALE_DECADES, SCALE_DECADES))
    B = scale * (A @ S) @ Q.T
    return (float(B[0, 0]), float(B[0, 1])), (float(B[1, 0]), float(B[1, 1])), scale


def solve_queries(rng: np.random.Generator, start: int, count: int) -> list[dict]:
    """Queries start .. start+count-1 of the seeded solve stream.

    The stream must be drawn in order from one generator; `start` only
    fixes the composition pattern (n and kind follow the query index).
    """
    out = []
    for i in range(start, start + count):
        n = (2, 3, 4)[i % 3]
        slot = i % SOLVE_BLOCK
        if slot < 7:
            kind = "interior"
            m = sample_interior(n, int(rng.integers(1, region_count(n) + 1)), rng)
        elif slot < 9:
            kind = "boundary"
            m = sample_boundary(n, int(rng.integers(1, region_count(n))), rng)
        else:
            kind = "corner"
            pool = corners(n)
            m = pool[int(rng.integers(len(pool)))]
        v1, v2, scale = disguise(m, rng)
        out.append({"n": n, "kind": kind, "m": m, "v1": v1, "v2": v2,
                    "scale": scale, "render": slot == RENDER_SLOT})
    return out


def hex_corner_probe(seed: int) -> list[dict]:
    """Seeded disguised bases of the two float spellings of the n = 4
    hexagonal corner, in the shape of `solve_queries`."""
    rng = rng_for(seed, "hex-corner")
    out = []
    for k in range(HEX_PROBE_BASES):
        m = HEX_CORNER_4[k % 2]
        v1, v2, scale = disguise(m, rng)
        out.append({"n": 4, "kind": "corner", "m": m, "v1": v1, "v2": v2,
                    "scale": scale, "render": False})
    return out


def solve_digest(queries: list[dict]) -> str:
    return digest([(q["n"], q["m"], q["v1"], q["v2"], q["scale"], q["render"]) for q in queries])


def region_round(rng: np.random.Generator, ns) -> list[tuple[int, int, ModuliPoint]]:
    """One interior torus per region of each n, interleaved across n."""
    out = []
    for idx in range(1, max(region_count(n) for n in ns) + 1):
        for n in ns:
            if idx <= region_count(n):
                out.append((n, idx, sample_interior(n, idx, rng)))
    return out


def round_digest(rounds) -> str:
    return digest([[(n, idx, m) for n, idx, m in r] for r in rounds])
