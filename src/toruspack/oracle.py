"""Independent numerical verification.

Two engines live here: a multi-start max-min ascent that searches for
the densest n-point configuration on a given torus (lower-bound evidence
checked against the closed forms), and an equal-length realization solver
that tries to draw an embedded graph as an actual packing graph on some
torus (the evidence used to classify embeddings).
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .closed_form import optimal_radius
from .embedding import EmbeddedGraph, homology_labels
from .errors import TorusPackError
from .geometry_embed import embedding_from_packing
from .lattice import ModuliPoint, TorusPoint, reduce_to_standard_basis, LatticeBasis
from .packing import Packing, extract_graph

RADIUS_CAP = 0.5  # shortest lattice vector has length 1 in the standard strip


def _thread_count() -> int:
    env = os.environ.get("TORUSPACK_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


@dataclass(frozen=True)
class OracleResult:
    best_radius: float
    best_centers: tuple[TorusPoint, ...]
    restarts_used: int
    converged_fraction: float


# ---------------------------------------------------------------------------
# equal-length solver shared by both engines
#
# Every edge vector d_t is affine in the unknowns u (positions with vertex 0
# pinned, optionally the torus shape, and last the common length L):
# d_t = A_t u + c_t.  The residuals are |d_t|^2 - L^2, and optionally one
# squared hinge (L^2 - |q|^2)_+ per pair of tangents q = s1 d_1 - s2 d_2 at
# a vertex ("neighbours at least L apart").  Their Jacobian follows from the
# constant (E, 2, k) tensor A, so damped Gauss-Newton runs on all starts at
# once.

LM_MAX_ITER = 200
LM_COST_FLOOR = 1e-30  # 0.5 |r|^2 at machine precision for lengths ~1
LM_LAMBDA_CEIL = 1e10  # damping beyond which a start counts as stuck


def _edge_vectors(u: np.ndarray, A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(B, E, 2) edge vectors A u + c of the starts u (B, k)."""
    return (u @ A.reshape(-1, A.shape[-1]).T).reshape(len(u), *c.shape) + c


def _equal_length_terms(u, A, c, hinge):
    """Residuals (B, m) and Jacobian (B, m, k) for the starts u (B, k)."""
    L = u[:, -1:]
    d = _edge_vectors(u, A, c)
    r = (d**2).sum(-1) - L**2
    J = 2 * np.einsum("bet,etk->bek", d, A)
    J[:, :, -1] -= 2 * L
    if hinge is None:
        return r, J
    Aq, cq = hinge
    q = _edge_vectors(u, Aq, cq)
    gap = L**2 - (q**2).sum(-1)
    on = gap > 0
    Jq = -2 * np.einsum("bpt,ptk->bpk", q, Aq)
    Jq[:, :, -1] += 2 * L
    Jq *= on[..., None]
    return np.concatenate([r, gap * on], 1), np.concatenate([J, Jq], 1)


def _solve_equal_lengths(A, c, u0, hinge=None):
    """Levenberg-damped Gauss-Newton (More 1978, identity damping) on every
    start of u0 (B, k) at once, with one damping factor per start.

    A (E, 2, k) and c (E, 2) define the edge vectors; hinge, if given, is
    the pair (Aq, cq) of the same shapes defining the tangent-pair vectors
    q.  Returns the final u and its cost 0.5 |r|^2 per start.  Identity
    damping keeps the step well posed on the underdetermined systems the
    realization solves, where J^T J is always singular.
    """
    u = np.array(u0, dtype=float)
    k = u.shape[1]
    r, J = _equal_length_terms(u, A, c, hinge)
    cost = 0.5 * (r**2).sum(1)
    diag = np.einsum("bmk,bmk->bk", J, J).max(1)
    floor = 1e-12 * np.maximum(diag, 1.0)  # keeps J^T J + lam I invertible
    lam = np.maximum(1e-3 * diag, floor)
    done = cost <= LM_COST_FLOOR
    eye = np.eye(k)
    for _ in range(LM_MAX_ITER):
        live = np.flatnonzero(~done)
        if not live.size:
            break
        Jl, rl = J[live], r[live]
        H = np.einsum("bmi,bmj->bij", Jl, Jl) + lam[live, None, None] * eye
        g = np.einsum("bmi,bm->bi", Jl, rl)
        trial = u[live] - np.linalg.solve(H, g[..., None])[..., 0]
        rt, Jt = _equal_length_terms(trial, A, c, hinge)
        ct = 0.5 * (rt**2).sum(1)
        ok = ct < cost[live]
        acc, rej = live[ok], live[~ok]
        u[acc], r[acc], J[acc], cost[acc] = trial[ok], rt[ok], Jt[ok], ct[ok]
        lam[acc] = np.maximum(lam[acc] / 3, floor[acc])
        lam[rej] *= 4
        done[live] = (cost[live] <= LM_COST_FLOOR) | (lam[live] > LM_LAMBDA_CEIL)
    return u, cost


# ---------------------------------------------------------------------------
# max-min distance ascent

_OFFSETS = np.array(
    [[a, b] for a in range(-2, 3) for b in range(-2, 3)], dtype=float
)


def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    iu = np.triu_indices(n, k=1)
    return iu[0], iu[1]


def _min_pair_distance(pts: np.ndarray, basis: np.ndarray) -> float:
    """Minimum pairwise toroidal distance; the self distance is the constant
    shortest lattice vector and is handled by the caller's cap."""
    n = len(pts)
    if n == 1:
        return math.inf
    I, J = _pair_indices(n)
    delta = pts[J] - pts[I]
    off = _OFFSETS @ basis
    d = delta[:, None, :] + off[None, :, :]
    return float(np.sqrt((d**2).sum(-1)).min())


def _ascent_batch(T: np.ndarray, basis: np.ndarray, iters: int = 220) -> np.ndarray:
    """Soft-min gradient ascent on the minimum pairwise distance.

    T: (R, n, 2) fractional coordinates.  The sharpness doubles from 64 to
    65536 over the schedule; steps are taken in plane coordinates and mapped
    back to fractional coordinates.
    """
    R, n, _ = T.shape
    if n == 1:
        return T
    I, J = _pair_indices(n)
    binv = np.linalg.inv(basis)
    off = (_OFFSETS @ basis)[None, None, :, :]
    beta = 64.0
    step = 0.08
    for it in range(iters):
        pts = T @ basis
        delta = pts[:, J] - pts[:, I]
        vecs = delta[:, :, None, :] + off
        dist = np.sqrt((vecs**2).sum(-1) + 1e-18)
        dmin = dist.min(axis=(1, 2), keepdims=True)
        w = np.exp(-beta * (dist - dmin))
        w /= w.sum(axis=(1, 2), keepdims=True)
        unit = vecs / dist[..., None]
        contrib = (w[..., None] * unit).sum(2)  # (R, P, 2)
        grad = np.zeros_like(pts)
        np.add.at(grad, (slice(None), J), contrib)
        np.add.at(grad, (slice(None), I), -contrib)
        norm = np.sqrt((grad**2).sum(-1, keepdims=True)) + 1e-15
        pts = pts + step * grad / norm
        T = (pts @ binv) % 1.0
        if (it + 1) % (iters // 10 or 1) == 0:
            beta = min(beta * 2, 65536.0)
            step *= 0.75
    return T


def _polish(pts: np.ndarray, basis: np.ndarray, sweeps: int = 80) -> np.ndarray:
    """Exact local improvement: move each point to grow its distance to its
    nearest neighbors (active-set direction, adaptive step)."""
    n = len(pts)
    if n == 1:
        return pts
    off = _OFFSETS @ basis
    binv = np.linalg.inv(basis)
    rest_idx = [np.delete(np.arange(n), k) for k in range(n)]
    last_step = np.full(n, 0.05)

    def vecs_from(k, P):
        return P[rest_idx[k]][:, None, :] + off[None, :, :] - P[k]

    for _ in range(sweeps):
        improved = False
        for k in range(n):
            v = vecs_from(k, pts)
            d = np.sqrt((v**2).sum(-1))
            dmin = d.min()
            mask = d <= dmin + 1e-12
            units = (v[mask] / d[mask][:, None])
            # candidates: straight away from each active constraint, and
            # bisectors of active pairs; best worst-case growth rate wins
            cands = list(-units)
            for i in range(len(units)):
                for j in range(i + 1, len(units)):
                    s = units[i] + units[j]
                    nrm = float(np.hypot(*s))
                    if nrm > 1e-12:
                        cands.append(-s / nrm)
            best_dir, best_rate = None, 1e-9
            for cand in cands:
                rate = float((-units @ cand).min())
                if rate > best_rate:
                    best_rate, best_dir = rate, cand
            if best_dir is None:
                continue
            stepk = min(last_step[k], dmin * 0.5)
            while stepk > 1e-14:
                trial = pts.copy()
                trial[k] = ((pts[k] + stepk * best_dir) @ binv % 1.0) @ basis
                d2 = np.sqrt((vecs_from(k, trial) ** 2).sum(-1))
                if d2.min() > dmin + 1e-15:
                    pts = trial
                    last_step[k] = stepk * 1.5
                    improved = True
                    break
                stepk *= 0.5
            else:
                last_step[k] = 0.05
        if not improved:
            break
    return pts


def _active_refine(pts: np.ndarray, basis: np.ndarray, slack: float = 2e-3) -> np.ndarray:
    """Equalize the near-minimal distances with an equal-length solve.

    At a max-min optimum the active tangencies share one length; solving
    |p_j + t - p_i|^2 = d^2 over the active set polishes the configuration
    to machine precision.  The result is only adopted by the caller if it
    actually improves the minimum distance.
    """
    n = len(pts)
    if n == 1:
        return pts
    I, J = _pair_indices(n)
    delta = pts[J] - pts[I]
    vec = delta[:, None, :] + (_OFFSETS @ basis)[None, :, :]
    dist = np.sqrt((vec**2).sum(-1))
    dmin = dist.min()
    pair, off = np.nonzero(dist <= dmin + slack)
    # unknowns: p_1 .. p_{n-1} (p_0 pinned), then the common length d
    A = np.zeros((len(pair), 2, 2 * n - 1))
    for t, (i, j) in enumerate(zip(I[pair], J[pair])):
        A[t, :, 2 * j - 2 : 2 * j] = np.eye(2)  # j > i >= 0
        if i:
            A[t, :, 2 * i - 2 : 2 * i] = -np.eye(2)
    shift = pts - pts[0]
    u0 = np.concatenate([shift[1:].ravel(), [dmin]])[None]
    u, _ = _solve_equal_lengths(A, _OFFSETS[off] @ basis, u0)
    return np.vstack([[0.0, 0.0], u[0, :-1].reshape(-1, 2)]) + pts[0]


def maximize_min_distance(
    n: int,
    m: ModuliPoint,
    restarts: int = 200,
    seed: int = 0,
    polish_top: int = 12,
) -> OracleResult:
    """Best max-min configuration of n points on the torus over seeded
    multi-start ascent.  Deterministic for fixed (seed, restarts)."""
    m.validate()
    basis = m.basis
    cap = m.shortest_vector()
    if n == 1:
        return OracleResult(
            best_radius=cap / 2,
            best_centers=(TorusPoint(0.0, 0.0),),
            restarts_used=restarts,
            converged_fraction=1.0,
        )
    # per-restart deterministic starts
    T0 = np.empty((restarts, n, 2))
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence((seed, r)))
        T0[r] = rng.random((n, 2))
    T0[:, 0] = 0.0  # translation quotient

    workers = _thread_count()
    if workers > 1 and restarts > 1:
        chunks = np.array_split(np.arange(restarts), workers)
        out = [None] * len(chunks)
        with ThreadPoolExecutor(max_workers=workers) as ex:
            futs = {
                ex.submit(_ascent_batch, T0[c], basis): k
                for k, c in enumerate(chunks)
                if len(c)
            }
            for f, k in futs.items():
                out[k] = f.result()
        T = np.concatenate([o for o in out if o is not None])
    else:
        T = _ascent_batch(T0, basis)

    scores = np.array(
        [min(_min_pair_distance(T[r] @ basis, basis), cap) for r in range(restarts)]
    )
    order = np.argsort(-scores, kind="stable")
    best_d, best_pts = -1.0, None
    for r in order[: max(1, polish_top)]:
        pts = _polish(T[r] @ basis, basis)
        refined = _active_refine(pts, basis)
        if _min_pair_distance(refined, basis) > _min_pair_distance(pts, basis):
            pts = refined
        d = min(_min_pair_distance(pts, basis), cap)
        if d > best_d:
            best_d, best_pts = d, pts
    # fraction of restarts whose ascent landed in the winning basin
    # (pre-polish values sit a few 1e-3 below the polished optimum)
    converged = float((scores >= best_d - 5e-3).mean())
    centers = tuple(TorusPoint(*p).canonical(m) for p in best_pts)
    return OracleResult(
        best_radius=best_d / 2,
        best_centers=centers,
        restarts_used=restarts,
        converged_fraction=converged,
    )


@dataclass(frozen=True)
class ComparisonReport:
    n: int
    m: ModuliPoint
    formula_radius: float
    oracle_radius: float
    gap: float
    oracle_within_bound: bool
    restarts: int
    seed: int


def compare_with_closed_form(
    n: int, m: ModuliPoint, restarts: int = 200, seed: int = 0
) -> ComparisonReport:
    r_formula = optimal_radius(n, m)
    res = maximize_min_distance(n, m, restarts=restarts, seed=seed)
    return ComparisonReport(
        n=n,
        m=m,
        formula_radius=r_formula,
        oracle_radius=res.best_radius,
        gap=abs(res.best_radius - r_formula),
        oracle_within_bound=res.best_radius <= r_formula + 1e-6,
        restarts=restarts,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# equal-length realization of embedded graphs


@dataclass(frozen=True)
class RealizationSample:
    embedding_form: bytes
    m: ModuliPoint
    centers: tuple[TorusPoint, ...]
    edge_length: float
    residual: float


ANGLE_LO = math.pi / 3
ANGLE_HI = math.pi
SOLVED_COST = 1e-22  # 0.5 |r|^2 of a start that counts as solved
# A realization must stay a realization of the same graph when tangency is
# read 100x more loosely than at extraction (1e-7): a sample with another
# pair within this distance of touching is a limit point of a graph with
# more edges (seen: ECG9-3 "realized" on the hexagonal torus with non-edges
# 1.6e-7..6.5e-7 from tangency and an angle gap of pi - 3e-6).
REALIZATION_CLEARANCE = 1e-5


def _angle_window_ok(vectors_by_vertex: list[np.ndarray], tol: float = 1e-9) -> np.ndarray:
    """Per start: every cyclic gap between the tangent directions at every
    vertex lies in [pi/3, pi).  vectors_by_vertex holds (B, deg, 2) arrays."""
    ok = True
    for vecs in vectors_by_vertex:
        ang = np.sort(np.arctan2(vecs[..., 1], vecs[..., 0]), axis=1)
        gaps = np.diff(np.concatenate([ang, ang[:, :1] + 2 * math.pi], 1), axis=1)
        ok = ok & (gaps.min(1) >= ANGLE_LO - tol) & (gaps.max(1) < ANGLE_HI - tol)
    return ok


def _realization_system(e: EmbeddedGraph):
    """Edge-vector tensor A (E, 2, k), offsets c (E, 2) and the tangents
    (edge, sign) at each vertex.  Unknowns: p_1 .. p_{nv-1}, x, y, L."""
    g = e.graph
    nv = g.vertex_count
    labels = homology_labels(e)
    k = 2 * nv + 1
    A = np.zeros((g.edge_count, 2, k))
    c = np.zeros((g.edge_count, 2))
    tangents: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for t, ((i, j), (a, b)) in enumerate(zip(g.edges, labels)):
        # d_t = p_j - p_i + (a + b x, b y)
        if j:
            A[t, :, 2 * j - 2 : 2 * j] += np.eye(2)
        if i:
            A[t, :, 2 * i - 2 : 2 * i] -= np.eye(2)
        A[t, 0, k - 3] = A[t, 1, k - 2] = b
        c[t] = (a, 0.0)
        tangents[i].append((t, 1))
        tangents[j].append((t, -1))
    return A, c, tangents


def _tangent_pairs(A: np.ndarray, c: np.ndarray, tangents):
    """Hinge tensors (Aq, cq) of the vectors q = s1 d1 - s2 d2 that join
    two neighbours of a vertex, one per pair of tangents there, and whether
    an edge of the graph already joins them (those are meant to touch)."""
    e1, s1, e2, s2 = np.array([
        (t1, s1, t2, s2)
        for tv in tangents
        for a, (t1, s1) in enumerate(tv)
        for t2, s2 in tv[a + 1 :]
    ]).reshape(-1, 4).T
    Aq = s1[:, None, None] * A[e1] - s2[:, None, None] * A[e2]
    cq = s1[:, None] * c[e1] - s2[:, None] * c[e2]
    joined = np.zeros(len(Aq), dtype=bool)
    for s in (1, -1):
        same = (Aq[:, None] == s * A[None]).all((2, 3)) & (cq[:, None] == s * c[None]).all(2)
        joined |= same.any(1)
    return Aq, cq, joined


def realize_embedding(
    e: EmbeddedGraph,
    attempts: int = 200,
    seed: int = 0,
    max_samples: int = 8,
    residual_tol: float = 1e-10,
) -> list[RealizationSample]:
    """Seeded attempts to draw the embedding as an equal-length packing graph.

    Unknowns: vertex positions (vertex 0 pinned), the moduli point and the
    common length; edge offsets come from the embedding's face structure.
    All starts are solved as one batch, with a hinge term per pair of
    tangents at a vertex that keeps their angle at least pi/3.  A solution
    is retained only if it is a genuine packing whose extracted graph
    reproduces the embedding (same canonical form) and whose tangency
    angles lie in the admissible window.  An empty list is evidence of
    non-realizability, never proof.
    """
    nv = e.graph.vertex_count
    A, c, tangents = _realization_system(e)
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
    Aq, cq, joined = _tangent_pairs(A, c, tangents)
    u, cost = _solve_equal_lengths(A, c, u0, (Aq, cq))
    # cheap rejections on the whole batch: unsolved, degenerate, unequal
    # lengths, tangent angles outside the window, and two neighbours that
    # are not joined but touch.  Within the radius cap the reduction scales
    # lengths by less than 2 / L, so such a pair comes within
    # REALIZATION_CLEARANCE of touching and _validate_solution would reject
    # the start as well.
    d = _edge_vectors(u, A, c)
    q = _edge_vectors(u, Aq, cq)
    L = np.abs(u[:, -1])
    residual = np.abs(np.hypot(d[..., 0], d[..., 1]) - L[:, None]).max(1)
    keep = (cost <= SOLVED_COST) & (L >= 1e-3) & (np.abs(u[:, -2]) >= 1e-3)
    keep &= residual <= residual_tol
    keep &= _angle_window_ok(
        [np.array([s for _, s in tv])[:, None] * d[:, [t for t, _ in tv]] for tv in tangents]
    )
    touch = np.hypot(q[..., 0], q[..., 1]) < L[:, None] * (1 + REALIZATION_CLEARANCE / 2)
    keep &= ~(touch & ~joined).any(1)
    samples: list[RealizationSample] = []
    for b in np.flatnonzero(keep):
        sample = _validate_solution(e, u[b], float(residual[b]))
        if sample is not None:
            samples.append(sample)
            if len(samples) >= max_samples:
                break
    return samples


def _validate_solution(e: EmbeddedGraph, u: np.ndarray, residual: float) -> RealizationSample | None:
    """The checks that need the packing itself: basis reduction, radius cap,
    overlap, the extracted graph (also at REALIZATION_CLEARANCE) and its
    embedding."""
    g = e.graph
    nv = g.vertex_count
    p = np.zeros((nv, 2))
    p[1:] = u[: 2 * (nv - 1)].reshape(-1, 2)
    x, y, L = float(u[-3]), float(u[-2]), abs(float(u[-1]))
    if y < 0:
        p[:, 1] *= -1
        y = -y
    # reduce the torus to the standard strip and map the points through
    try:
        m, rec = reduce_to_standard_basis(LatticeBasis((1.0, 0.0), (x, y)))
    except (TorusPackError, ValueError, np.linalg.LinAlgError):
        return None
    pts = (np.asarray(rec.similarity) @ p.T).T
    radius = rec.scale * L / 2
    if radius > RADIUS_CAP + 1e-9:
        return None
    centers = tuple(TorusPoint(*q).canonical(m) for q in pts)
    packing = Packing(m=m, centers=centers, radius=radius)
    try:
        packing.validate(tol=1e-7)
        extracted = extract_graph(packing, tol=1e-7)
        loose = extract_graph(packing, tol=REALIZATION_CLEARANCE)
    except (TorusPackError, ValueError, np.linalg.LinAlgError):
        return None
    if extracted.loop_count() or extracted.vertex_count != nv:
        return None
    if len(extracted.edges) != g.edge_count:
        return None
    if loose.loop_count() or len(loose.edges) != g.edge_count:
        return None
    # the realized embedding (geometric rotation) must match e
    try:
        realized = embedding_from_packing(packing, extracted)
    except (TorusPackError, ValueError, np.linalg.LinAlgError):
        return None
    if realized.canonical_form != e.canonical_form:
        return None
    return RealizationSample(
        embedding_form=e.canonical_form,
        m=m,
        centers=centers,
        edge_length=2 * radius,
        residual=residual * rec.scale,
    )
