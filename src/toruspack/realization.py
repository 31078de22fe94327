"""Equal-length realization of embedded graphs: can an embedding be drawn
as an equal-length packing graph on some torus?  realize_embedding answers
with seeded samples, solved by one batched solver (_solve_equal_lengths,
which the oracle's refine shares) and checked as packings.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .embedding import EmbeddedGraph, homology_labels
from .errors import NoTorusEmbedding, OverlapDetected
from .geometry_embed import embedding_from_packing
from .lattice import LatticeBasis, ModuliPoint, TorusPoint, reduce_to_standard_basis
from .packing import Packing, PackingGraph, contacts, has_halfplane_vertex, vertex_darts
from .stream import Stream

RADIUS_CAP = 0.5  # shortest lattice vector has length 1 in the standard strip


# ---------------------------------------------------------------------------
# equal-length solver, shared with the oracle's refine
#
# One system of m rows, each a vector v_t affine in the unknowns u
# (positions with vertex 0 pinned, optionally the torus shape, and last the
# common length L): v_t = A_t u + c_t, with offsets c per start.  Each start
# signs each row: an edge row (+1) has the residual |v_t|^2 - L^2, a hinge
# row (-1) has (L^2 - |v_t|^2)_+, v_t the difference of two dart vectors at
# a vertex ("neighbours at least L apart"), and a row of sign 0 is not
# solved.  Each Jacobian row is w . A_t + s e_k, with w = 2 sign v_t and
# s = -2 sign L for a row that counts, and both 0 for a row of sign 0 or an
# off hinge.  So the Jacobian follows from the constant tensor A by
# multiply-adds, and damped Gauss-Newton runs on all starts at once.

LM_MAX_ITER = 200
LM_COST_FLOOR = 1e-30  # 0.5 |r|^2 at machine precision for lengths ~1
# Damping beyond which a start counts as stuck: a speed constant.  At 1e8,
# 1e12 and inf the samples are bit-identical; at inf the stuck starts run
# all LM_MAX_ITER steps (README, Tolerances).
LM_LAMBDA_CEIL = 1e10
# The first damping is this share of the largest diagonal entry of J^T J
# (the tau of Madsen, Nielsen and Tingleff 2004 for a start not known to be
# near a solution is 1e-3): the first steps are nearly Gauss-Newton ones.
LM_LAMBDA_INIT = 1e-3
# The damping never falls below this share of that entry (and never below
# this absolute value): J^T J is singular on the underdetermined
# realization systems, and the floor keeps the condition number of
# J^T J + lam I below about k 1e12, inside double precision: at 0 the first
# realization raises LinAlgError, and at 0.01x and 100x the samples' moduli
# move by at most 1.2e-15 (README, Tolerances).
LM_LAMBDA_FLOOR = 1e-12
# An accepted step divides the damping by LM_ACCEPT_SHRINK and a rejected
# one multiplies it by LM_REJECT_GROW.  Growth outpaces shrinking, so a
# start that alternates between the two still raises its damping (by 4/3
# per pair) until it stops or meets LM_LAMBDA_CEIL.
LM_ACCEPT_SHRINK = 3.0
LM_REJECT_GROW = 4.0


def _edge_vectors(u: np.ndarray, A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(B, E, 2) edge vectors A u + c of the starts u (B, k): one (1, k) @
    (k, 2E) product per start, so a start's vectors do not depend on the
    batch (a (B, k) @ (k, 2E) product rounds a row differently for
    different B)."""
    At = A.reshape(-1, A.shape[-1]).T
    return (u[:, None, :] @ At).reshape(len(u), *A.shape[:2]) + c


def _equal_length_terms(u, rows, offsets, sign):
    """Residuals r (B, m) of the starts u (B, k), with the factors w (B, m, 2)
    and s (B, m) of their Jacobian rows w . rows_t + s e_k.  An edge row
    (sign +1) counts, a hinge (-1) only while its gap is positive, and a row
    of sign 0 never."""
    L = u[:, -1:]
    v = _edge_vectors(u, rows, offsets)
    r = sign * (v[..., 0] ** 2 + v[..., 1] ** 2 - L**2)
    mask = (r > 0) | (sign > 0)
    r *= mask
    w = (2 * sign)[..., None] * v * mask[..., None]
    s = -2 * sign * L * mask
    return r, w, s


def _jacobian(w: np.ndarray, s: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(B, m, k) Jacobian rows w . rows_t + s e_k, by elementwise multiply-adds
    (so each start's rows are the same in any batch)."""
    J = w[..., :1] * rows[:, 0]
    J += w[..., 1:] * rows[:, 1]
    J[..., -1] += s
    return J


def _normal_equations(J: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J^T J (B, k, k) and J^T r (B, k): one BLAS product per start each."""
    Jt = J.transpose(0, 2, 1)
    return Jt @ J, (Jt @ r[..., None])[..., 0]


def _solve_equal_lengths(rows, offsets, sign, u0):
    """Levenberg-damped Gauss-Newton (More 1978, identity damping) on every
    start of u0 (B, k) at once, with one damping factor per start.

    rows (m, 2, k) and offsets (B, m, 2) define the row vectors, and sign
    (B, m) what each start solves: +1 for an edge row, -1 for a hinge row
    and 0 for a row it does not solve.  Returns the final u; its cost
    0.5 |r|^2 decides only which steps are accepted.  Identity damping keeps
    the step well posed on the underdetermined systems the realization
    solves, where J^T J is always singular.

    The kernel: the row vectors are one (1, k) @ (k, 2m) product per
    start, the Jacobian J (B, m, k) is formed from them and the constant
    blocks A by elementwise multiply-adds (_jacobian), and J^T J and J^T r
    by one BLAS product per start (_normal_equations).  Each start keeps
    its J^T J and J^T r: a rejected step changes only the damping, so a
    trial point needs its residuals for the accept test, and its Jacobian
    and normal equations only once accepted.  No reduction mixes starts,
    so each start's result is bit for bit the one it gets alone.  The live
    starts' state is one set of compact arrays (the working set), cut down
    only on an iteration where some start stops.
    """
    u = np.array(u0, dtype=float)
    k = u.shape[1]
    r, w, s = _equal_length_terms(u, rows, offsets, sign)
    JTJ, JTr = _normal_equations(_jacobian(w, s, rows), r)
    cost = 0.5 * (r**2).sum(1)
    diag = np.diagonal(JTJ, axis1=1, axis2=2).max(1)
    floor = LM_LAMBDA_FLOOR * np.maximum(diag, 1.0)
    lam = np.maximum(LM_LAMBDA_INIT * diag, floor)
    live = ~(cost <= LM_COST_FLOOR)
    idx = np.flatnonzero(live)
    U, C, JTJ, JTr, lam, floor, offsets, sign = (
        a[live] for a in (u, cost, JTJ, JTr, lam, floor, offsets, sign))
    eye = np.eye(k)
    for _ in range(LM_MAX_ITER):
        if not idx.size:
            break
        H = JTJ + lam[:, None, None] * eye
        trial = U - np.linalg.solve(H, JTr[..., None])[..., 0]
        rt, wt, st = _equal_length_terms(trial, rows, offsets, sign)
        ct = 0.5 * (rt**2).sum(1)
        ok = ct < C
        U[ok], C[ok] = trial[ok], ct[ok]
        JTJ[ok], JTr[ok] = _normal_equations(_jacobian(wt[ok], st[ok], rows), rt[ok])
        lam = np.where(ok, np.maximum(lam / LM_ACCEPT_SHRINK, floor), lam * LM_REJECT_GROW)
        go = ~((C <= LM_COST_FLOOR) | (lam > LM_LAMBDA_CEIL))
        if not go.all():
            u[idx[~go]] = U[~go]
            idx, U, C, JTJ, JTr, lam, floor, offsets, sign = (
                a[go] for a in (idx, U, C, JTJ, JTr, lam, floor, offsets, sign))
    u[idx] = U
    return u


# ---------------------------------------------------------------------------
# equal-length realization of embedded graphs


class RealizationSample(NamedTuple):
    m: ModuliPoint
    centers: tuple[TorusPoint, ...]
    edge_length: float
    residual: float
    graph: PackingGraph  # the tangencies at REALIZATION_CLEARANCE


# realize_embedding drops a solve whose common length L or torus height y
# fell below DEGENERATE_SCALE: the starts draw L from [0.4, 1.05] and y
# from [0.5, 1.2 n], and L = 0 (every edge of length zero) or y = 0 (a flat
# lattice, which reduce_to_standard_basis rejects) solve the equations
# without drawing a packing.  The bound on L also bounds the reduction's
# scale (see RESIDUAL_TOL).  Over the 47 708 solved starts of all 103 n =
# 3/4 embeddings at seeds 2026, 1 and 7, L never fell below 0.25, and every
# start the rest of the screen and the half-plane test keep had |y| >= 0.21.
DEGENERATE_SCALE = 1e-3
# A start counts as solved when its edge lengths agree with L to this, in the
# solve's units.  Solved and unsolved starts lie far apart: over 32 400
# realization starts (the 27 n = 3/4 survivors, seeds 2026, 1, 5, 7 and 11,
# 240 attempts each), every non-degenerate start had a residual of at most
# 8.4e-14 or at least 0.064, so a bound on 0.5 |r|^2 decides nothing more.
# Over all 103 n = 3/4 embeddings at seeds 2026, 1 and 7 the gap is [1.3e-12,
# 0.044], and any value in it keeps the same starts.  Under the radius cap the
# reduction to the strip scales lengths by at most 1 / L <= 1 /
# DEGENERATE_SCALE, so a kept start's edges agree with 2r to RESIDUAL_TOL /
# DEGENERATE_SCALE = 1e-7, 100x inside REALIZATION_CLEARANCE: every edge
# reads as a tangency there, and the lengths need no second check.
RESIDUAL_TOL = 1e-10
# A sample's graph is read at this tangency tolerance, 100x wider than its
# edges' error: a sample with another pair within this distance of touching
# is a limit point of a graph with more edges (seen: ECG9-3 "realized" on
# the hexagonal torus with non-edges 1.6e-7..6.5e-7 from tangency and an
# angle gap of pi - 3e-6).
REALIZATION_CLEARANCE = 1e-5
# realize_embedding solves this many starts per wanted sample before the
# rest.  The ECG2-2 probe holds its 8th sample at start 20 of 240, so its
# first block of 24 ends it in about a third of the time of all 240; a
# probe that retains nothing pays one more solver loop.  A doubling
# schedule (24, 48, 96, ...) made the 12 n = 4 probes 1.0-1.34 s against
# 0.82-1.08 s: four solver loops for each probe that retains nothing.
FIRST_BLOCK_PER_SAMPLE = 3


def _realization_system(e: EmbeddedGraph):
    """Edge-vector tensor A (E, 2, k), offsets c (E, 2) and the darts at
    each vertex.  Unknowns: p_1 .. p_{nv-1}, x, y, L."""
    g = e.graph
    nv = g.vertex_count
    labels = homology_labels(e)
    k = 2 * nv + 1
    A = np.zeros((g.edge_count, 2, k))
    c = np.zeros((g.edge_count, 2))
    for t, ((i, j), (a, b)) in enumerate(zip(g.edges, labels)):
        # d_t = p_j - p_i + (a + b x, b y)
        if j:
            A[t, :, 2 * j - 2 : 2 * j] += np.eye(2)
        if i:
            A[t, :, 2 * i - 2 : 2 * i] -= np.eye(2)
        A[t, 0, k - 3] = A[t, 1, k - 2] = b
        c[t] = (a, 0.0)
    return A, c, vertex_darts(g.edges, nv)


def _tangent_pairs(A: np.ndarray, c: np.ndarray, darts):
    """Hinge tensors (Aq, cq) of the vectors q = d1 - d2 that join two
    neighbours of a vertex, one per pair of its darts d1, d2, and whether an
    edge of the graph already joins them (those are meant to touch)."""
    d1, d2 = np.array([
        (a, b) for ds in darts for x, a in enumerate(ds) for b in ds[x + 1 :]
    ]).reshape(-1, 2).T
    # row d: dart d's tensor and offset, edge t's for d = 2t, negated for 2t + 1
    Ad, cd = (np.stack([X, -X], 1).reshape(-1, *X.shape[1:]) for X in (A, c))
    Aq, cq = Ad[d1] - Ad[d2], cd[d1] - cd[d2]
    joined = ((Aq[:, None] == Ad[None]).all((2, 3)) & (cq[:, None] == cd[None]).all(2)).any(1)
    return Aq, cq, joined


def realize_embedding(
    e: EmbeddedGraph, attempts: int, seed: int, max_samples: int
) -> list[RealizationSample]:
    """Seeded attempts to draw the embedding as an equal-length packing graph.

    Unknowns: vertex positions (vertex 0 pinned), the moduli point and the
    common length; edge offsets come from the embedding's face structure.
    Each start is solved with a hinge term per pair of darts at a vertex
    that keeps their ends at least L apart.  A solution is retained only if
    it is a genuine packing whose extracted graph reproduces the embedding
    (same canonical form) and whose tangency directions leave no gap of pi.
    The first max_samples retained starts are returned, in start order.
    The first FIRST_BLOCK_PER_SAMPLE * max_samples starts are solved as one
    batch, the rest as a second only if those fall short; each start
    solves as it would alone, so the samples are those of one batch of all
    starts.  An empty list is evidence of non-realizability, never proof.
    """
    nv = e.graph.vertex_count
    A, c, darts = _realization_system(e)
    Aq, cq, joined = _tangent_pairs(A, c, darts)
    # one system: the edges, then the hinges, signed alike in every start
    rows, offsets = np.concatenate([A, Aq]), np.concatenate([c, cq])
    sign = np.repeat([1.0, -1.0], [len(A), len(Aq)])
    # per start: positions, then x, y and L, each uniform on [lo, hi); a
    # block's starts are drawn only when it is solved
    lo = np.array([-1.0] * (2 * nv - 2) + [-0.9, 0.5, 0.4])
    hi = np.array([2.0] * (2 * nv - 2) + [0.9, 1.2 * nv, 1.05])
    stream = Stream(seed, 0xE)
    first = min(attempts, FIRST_BLOCK_PER_SAMPLE * max_samples)
    samples: list[RealizationSample] = []
    for count in (first, attempts - first):
        if not count or len(samples) >= max_samples:
            continue
        u0 = lo + (hi - lo) * np.reshape(stream.randoms(count * len(lo)), (count, len(lo)))
        shape = (count,) + offsets.shape
        u = _solve_equal_lengths(rows, np.broadcast_to(offsets, shape), np.broadcast_to(sign, shape[:2]), u0)
        # cheap rejections on the whole block: unsolved (unequal lengths),
        # degenerate, and two neighbours that are not joined but touch.
        # Within the radius cap the reduction scales lengths by at most
        # 1 / L, so such a pair comes within REALIZATION_CLEARANCE of
        # touching and _validate_solution would reject the start as well.
        # Two darts less than pi/3 apart put their ends less than L apart, so
        # the touch test also rejects every gap below pi/3 (an edge joining
        # those ends would be shorter than L, and the start unsolved).
        # d and q each from its own product: one product over all rows
        # rounds some residuals differently (by about 1e-16)
        d = _edge_vectors(u, A, c)
        q = _edge_vectors(u, Aq, cq)
        L = np.abs(u[:, -1])
        residual = np.abs(np.hypot(d[..., 0], d[..., 1]) - L[:, None]).max(1)
        keep = (residual <= RESIDUAL_TOL) & (L >= DEGENERATE_SCALE) & (np.abs(u[:, -2]) >= DEGENERATE_SCALE)
        touch = np.hypot(q[..., 0], q[..., 1]) < L[:, None] * (1 + REALIZATION_CLEARANCE / 2)
        keep &= ~(touch & ~joined).any(1)
        for b in np.flatnonzero(keep):
            sample = _validate_solution(e, u[b], float(residual[b]))
            if sample is not None:
                samples.append(sample)
                if len(samples) >= max_samples:
                    return samples
    return samples


def _validate_solution(e: EmbeddedGraph, u: np.ndarray, residual: float) -> RealizationSample | None:
    """The checks that need the packing itself: basis reduction, radius cap,
    overlap, a circle whose tangency directions fit in a half-plane
    (has_halfplane_vertex, a gap of pi), and the embedding of the graph read
    at REALIZATION_CLEARANCE, which must be e's (a loop, a missing or an
    extra edge changes it).  The block screen's RESIDUAL_TOL already makes
    every edge of e a tangency there (see RESIDUAL_TOL)."""
    nv = e.graph.vertex_count
    p = np.zeros((nv, 2))
    p[1:] = u[: 2 * (nv - 1)].reshape(-1, 2)
    x, y, L = float(u[-3]), float(u[-2]), abs(float(u[-1]))
    if y < 0:
        p[:, 1] *= -1
        y = -y
    # reduce the torus to the standard strip and map the points through (the
    # screen's |y|, L >= DEGENERATE_SCALE: a sound basis, a positive radius)
    m, rec = reduce_to_standard_basis(LatticeBasis((1.0, 0.0), (x, y)))
    pts = (np.asarray(rec.similarity) @ p.T).T
    radius = rec.scale * L / 2
    # past the cap the self translate (1, 0) is shorter than 2r: contacts
    # reads it as a loop or an overlap, but at 2r - 1 ~ REALIZATION_CLEARANCE
    # as neither, so the cap is tested exactly, with no slack
    if radius > RADIUS_CAP:
        return None
    centers = tuple(TorusPoint(*q).canonical(m) for q in pts.tolist())  # floats, as contacts reads them
    packing = Packing(m=m, centers=centers, radius=radius)
    try:
        extracted, vectors = contacts(packing, REALIZATION_CLEARANCE)
    except OverlapDetected:
        return None
    if has_halfplane_vertex(extracted, vectors):
        return None
    # the realized embedding (geometric rotation) must match e
    try:
        realized = embedding_from_packing(extracted, vectors)
    except NoTorusEmbedding:
        return None
    if realized.canonical_form != e.canonical_form:
        return None
    return RealizationSample(
        m=m,
        centers=centers,
        edge_length=2 * radius,
        residual=residual * rec.scale,
        graph=extracted,
    )
