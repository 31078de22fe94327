"""Reference for the float path of `toruspack.packing` and `toruspack.rigidity`:
the numpy versions of `Packing.edge_vectors`, the strut framework and its
length check, the half-plane test and the float re-checks of a certificate,
kept verbatim from before those ran on Python floats.

test_rigidity.py holds the float path to these: the same edge vectors bit
for bit, the same verdicts and the same certificates.
"""
from __future__ import annotations

import math
from typing import NamedTuple
from unittest import mock

import numpy as np

from toruspack import rigidity
from toruspack.errors import InconsistentLengths
from toruspack.packing import ANGLE_GAP_TOL, _canonical, extract_graph, vertex_darts
from toruspack.rigidity import FLOAT_CHECK_TOL


def edge_vectors(p, g) -> np.ndarray:
    """Packing.edge_vectors: (E, 2)."""
    return _edge_vectors(p.m, _canonical(p.m, p.centers), g)


def _edge_vectors(m, canon, g) -> np.ndarray:
    pts = np.array([(c.u, c.w) for c in canon]).reshape(-1, 2)
    I, J, a, b = np.array([(i, j, d.a, d.b) for i, j, d in g.edges], int).reshape(-1, 4).T
    return pts[J] + np.stack([a + b * m.x, b * m.y], -1) - pts[I]


class StrutFramework(NamedTuple):
    """ends a (k, 2) int array and vectors a (k, 2) float array."""

    n: int
    ends: np.ndarray
    vectors: np.ndarray

    def strut_counts(self) -> np.ndarray:
        return np.bincount(self.ends.ravel(), minlength=self.n)


def framework(p, g, vectors: np.ndarray, tol: float) -> StrutFramework:
    """rigidity._framework."""
    ends = np.array([(i, j) for i, j, _ in g.edges], dtype=np.intp).reshape(-1, 2)
    strut = ends[:, 0] != ends[:, 1]  # a self-tangency is a trivial strut inequality
    target = 2 * p.radius
    length = np.hypot(vectors[:, 0], vectors[:, 1])
    bad = strut & (np.abs(length - target) > tol)
    if bad.any():
        t = int(bad.argmax())
        i, j, d = g.edges[t]
        raise InconsistentLengths(
            f"strut ({i},{j},{d.a},{d.b}) has length {length[t]}, expected {target}"
        )
    return StrutFramework(n=g.vertex_count, ends=ends[strut], vectors=vectors[strut])


def verify_flex(f: StrutFramework, flex) -> bool:
    v = np.asarray(flex.velocities, float)
    if np.abs(v).max() <= FLOAT_CHECK_TOL:
        return False
    i, j = f.ends.T
    return not (np.vecdot(v[j] - v[i], f.vectors) < -FLOAT_CHECK_TOL).any()


def verify_stress(f: StrutFramework, stress) -> bool:
    w = np.asarray(stress.coefficients, float)
    if (w > -1 + FLOAT_CHECK_TOL).any():
        return False
    i, j = f.ends.T
    we = w[:, None] * f.vectors
    resid = np.zeros((f.n, 2))
    np.add.at(resid, i, we)
    np.add.at(resid, j, -we)
    scale = float(np.abs(w) @ np.hypot(*f.vectors.T))
    return float(np.abs(resid).max()) <= FLOAT_CHECK_TOL * max(scale, 1.0)


def _cyclic_gaps(v: np.ndarray) -> np.ndarray:
    """(..., k): the differences of the sorted angles of the vectors v
    (..., k, 2), the last closing the full turn."""
    ang = np.sort(np.arctan2(v[..., 1], v[..., 0]), axis=-1)
    return np.diff(np.concatenate([ang, ang[..., :1] + 2 * math.pi], -1), axis=-1)


def has_halfplane_vertex(g, vectors: np.ndarray) -> bool:
    by_degree: dict[int, list] = {}
    for darts in vertex_darts(g.edges, g.vertex_count):
        by_degree.setdefault(len(darts), []).append(darts)
    # row d: dart d's vector, d_t for dart 2t and -d_t for dart 2t + 1
    dv = np.stack([vectors, -vectors], 1).reshape(-1, 2)
    # one gap call per degree, on the (k, deg, 2) vectors of k vertices' darts
    return 0 in by_degree or any(
        _cyclic_gaps(dv[np.array(ds)]).max() >= math.pi - ANGLE_GAP_TOL for ds in by_degree.values()
    )


def decide_rigidity(f: StrutFramework):
    """rigidity.decide_rigidity on the arrays' .tolist(), which is what its
    exact work read from them, with the numpy float re-checks above."""
    tuples = rigidity.StrutFramework(f.n, tuple(map(tuple, f.ends.tolist())),
                                     tuple(map(tuple, f.vectors.tolist())))
    with mock.patch.object(rigidity, "verify_stress", lambda _, stress: verify_stress(f, stress)), \
            mock.patch.object(rigidity, "verify_flex", lambda _, flex: verify_flex(f, flex)):
        return rigidity.decide_rigidity(tuples)


def classify_packing(p, tol: float) -> str:
    g = extract_graph(p, tol)
    vectors = edge_vectors(p, g)
    f = framework(p, g, vectors, tol)
    counts = f.strut_counts()
    if min(counts, default=0) < 3 or has_halfplane_vertex(g, vectors):
        return "free-circle"
    return "rigid-LMD" if decide_rigidity(f).rigid else "flexible"
