"""Reference for `toruspack.realization.realize_embedding`: every start
drawn one by one and solved in one batch, then screened and validated in
start order until max_samples are held.

realize_embedding solves its starts in blocks and stops at its last
sample; the property test in test_realization.py asserts that both return
the same samples.  The angle window keeps its own sort and diff on the
solved edge vectors, so that test also holds realize_embedding's gap test
(packing.has_halfplane_vertex on each candidate's contacts, in
_validate_solution) to that arithmetic.  It keeps two tests that
realize_embedding dropped, so the same test shows that dropping them
retains the same samples: the cost test (0.5 |r|^2 at most 1e-22, besides
the residual test), and the pi/3 half of the angle window (the touch test
decides it).
"""
from __future__ import annotations

import math

import numpy as np

import equal_length_reference
from toruspack import realization
from toruspack.packing import ANGLE_GAP_TOL


def _angle_window_ok(vectors_by_vertex, tol=ANGLE_GAP_TOL):
    """Per start: every cyclic gap between the tangent directions at every
    vertex lies in [pi/3, pi).  vectors_by_vertex holds (B, deg, 2) arrays."""
    ok = True
    for vecs in vectors_by_vertex:
        ang = np.sort(np.arctan2(vecs[..., 1], vecs[..., 0]), axis=1)
        gaps = np.diff(np.concatenate([ang, ang[:, :1] + 2 * math.pi], 1), axis=1)
        ok = ok & (gaps.min(1) >= math.pi / 3 - tol) & (gaps.max(1) < math.pi - tol)
    return ok


def realize_embedding(e, attempts=200, seed=0, max_samples=8, residual_tol=1e-10):
    nv = e.graph.vertex_count
    A, c, darts = realization._realization_system(e)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE)))
    u0 = np.array([
        np.concatenate(
            [
                rng.uniform(-1.0, 2.0, 2 * (nv - 1)),
                [rng.uniform(-0.9, 0.9)],
                [rng.uniform(0.5, 1.2 * nv)],
                [rng.uniform(0.4, 1.05)],
            ]
        )
        for _ in range(attempts)
    ]).reshape(attempts, 2 * nv + 1)
    Aq, cq, joined = realization._tangent_pairs(A, c, darts)
    m = len(A) + len(Aq)
    u = realization._solve_equal_lengths(
        np.concatenate([A, Aq]), np.broadcast_to(np.concatenate([c, cq]), (attempts, m, 2)),
        np.broadcast_to(np.repeat([1.0, -1.0], [len(A), len(Aq)]), (attempts, m)), u0,
    )
    d = realization._edge_vectors(u, A, c)
    q = realization._edge_vectors(u, Aq, cq)
    L = np.abs(u[:, -1])
    residual = np.abs(np.hypot(d[..., 0], d[..., 1]) - L[:, None]).max(1)
    # the solved test realize_embedding dropped, kept here: 0.5 |r|^2 of the
    # squared-length residuals, edges and hinges, at most 1e-22
    cost = 0.5 * (equal_length_reference.equal_length_terms(u, A, c, (Aq, cq))[0] ** 2).sum(1)
    keep = (cost <= 1e-22) & (L >= realization.DEGENERATE_SCALE)
    keep &= np.abs(u[:, -2]) >= realization.DEGENERATE_SCALE
    keep &= residual <= residual_tol
    # dart 2t leaves along d_t and dart 2t + 1 along -d_t
    keep &= _angle_window_ok(
        [(1 - 2 * (ds % 2))[:, None] * d[:, ds // 2] for ds in map(np.array, darts)]
    )
    touch = np.hypot(q[..., 0], q[..., 1]) < L[:, None] * (1 + realization.REALIZATION_CLEARANCE / 2)
    keep &= ~(touch & ~joined).any(1)
    samples = []
    for b in np.flatnonzero(keep):
        sample = realization._validate_solution(e, u[b], float(residual[b]))
        if sample is not None:
            samples.append(sample)
            if len(samples) >= max_samples:
                break
    return samples
