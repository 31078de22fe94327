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
from functools import lru_cache

import numpy as np

from .closed_form import optimal_radius
from .embedding import EmbeddedGraph, homology_labels
from .errors import TorusPackError
from .geometry_embed import embedding_from_packing
from .lattice import (
    LatticeBasis,
    ModuliPoint,
    TorusPoint,
    reduce_to_standard_basis,
    wrapped_translates,
)
from .packing import SAMPLE_TANGENCY_TOL, Packing, extract_graph

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
    return (u @ A.reshape(-1, A.shape[-1]).T).reshape(len(u), *A.shape[:2]) + c


def _equal_length_terms(u, A, c, hinge, active=None):
    """Residuals (B, m) and Jacobian (B, m, k) for the starts u (B, k)."""
    L = u[:, -1:]
    d = _edge_vectors(u, A, c)
    r = (d**2).sum(-1) - L**2
    J = 2 * np.einsum("bet,etk->bek", d, A)
    J[:, :, -1] -= 2 * L
    if active is not None:
        r *= active
        J *= active[..., None]
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


def _solve_equal_lengths(A, c, u0, hinge=None, active=None):
    """Levenberg-damped Gauss-Newton (More 1978, identity damping) on every
    start of u0 (B, k) at once, with one damping factor per start.

    A (E, 2, k) and c (E, 2), or one c (B, E, 2) per start, define the edge
    vectors; active, if given, is a (B, E) 0/1 mask of the edges each start
    solves for.  hinge, if given, is the pair (Aq, cq) of shared shapes
    defining the tangent-pair vectors q.  Returns the final u and its cost
    0.5 |r|^2 per start.  Identity damping keeps the step well posed on the
    underdetermined systems the realization solves, where J^T J is always
    singular.
    """
    u = np.array(u0, dtype=float)
    k = u.shape[1]
    r, J = _equal_length_terms(u, A, c, hinge, active)
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
        rt, Jt = _equal_length_terms(
            trial, A, c[live] if c.ndim == 3 else c, hinge,
            None if active is None else active[live],
        )
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
#
# Points are held in fractional coordinates; every distance comes from
# lattice.wrapped_translates, whose 9 translates hold each nearest one.


@lru_cache(maxsize=None)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    I, J = np.triu_indices(n, k=1)
    I.flags.writeable = J.flags.writeable = False  # shared by every caller
    return I, J


def _incidence(n: int) -> np.ndarray:
    """(n, pairs): +1 at each pair's head j, -1 at its tail i."""
    I, J = _pair_indices(n)
    return np.eye(n)[:, J] - np.eye(n)[:, I]


def _lengths(v: np.ndarray) -> np.ndarray:
    return np.sqrt(v[0] ** 2 + v[1] ** 2)


def _min_distances(F: np.ndarray, m: ModuliPoint) -> np.ndarray:
    """Minimum pairwise toroidal distance of each configuration F (..., n, 2)
    (n >= 2); the self distance is the shortest lattice vector, capped by
    the caller."""
    I, J = _pair_indices(F.shape[-2])
    _, v = wrapped_translates(F[..., J, :] - F[..., I, :], m)
    return _lengths(v).min((-2, -1))


def _ascent_batch(T: np.ndarray, m: ModuliPoint, iters: int = 220) -> np.ndarray:
    """Soft-min gradient ascent on the minimum pairwise distance.

    T: (R, n, 2) fractional coordinates.  The sharpness doubles from 64 to
    65536 over the schedule; steps are taken in plane coordinates and mapped
    back to fractional coordinates.
    """
    I, J = _pair_indices(T.shape[1])
    incidence = _incidence(T.shape[1])
    binv = np.linalg.inv(m.basis)
    beta = 64.0
    step = 0.08
    for it in range(iters):
        _, v = wrapped_translates(T[:, J] - T[:, I], m)
        dist = np.sqrt(v[0] ** 2 + v[1] ** 2 + 1e-18)
        dmin = dist.min(axis=(1, 2), keepdims=True)
        w = np.exp(-beta * (dist - dmin))
        w /= w.sum(axis=(1, 2), keepdims=True) * dist
        contrib = np.einsum("rpt,crpt->rpc", w, v)  # soft-min of the unit vectors
        grad = np.einsum("np,rpc->rnc", incidence, contrib)
        norm = np.sqrt((grad**2).sum(-1, keepdims=True)) + 1e-15
        T = (T + (step * grad / norm) @ binv) % 1.0
        if (it + 1) % (iters // 10 or 1) == 0:
            beta = min(beta * 2, 65536.0)
            step *= 0.75
    return T


def _active_refine(F: np.ndarray, m: ModuliPoint, slack: float = 2e-3) -> np.ndarray:
    """Equalize the near-minimal distances with an equal-length solve.

    At a max-min optimum the active tangencies share one length; solving
    |p_j + t - p_i|^2 = d^2 over the active set lands the configuration on
    it to machine precision.  The active set is every translate within
    slack of the minimum, and at least the 2n - 1 shortest: a local optimum
    is an infinitesimally rigid strut framework, which needs one more
    contact than its 2(n - 1) degrees of freedom.  F and the result are
    fractional coordinates (K, n, 2), all K solved in one batch; a result
    is only adopted by the caller if it actually improves the minimum
    distance.
    """
    K, n, _ = F.shape
    I, J = _pair_indices(n)
    shifts, v = wrapped_translates(F[:, J] - F[:, I], m)
    dist = _lengths(v).reshape(K, -1)  # (pair, translate) flattened
    dmin = dist.min(1)
    cut = np.maximum(dmin + slack, np.partition(dist, 2 * n - 2, axis=1)[:, 2 * n - 2])
    active = (dist <= cut[:, None]).astype(float)
    # unknowns: p_1 .. p_{n-1} (p_0 pinned), then the common length d; the
    # 9 translates of a pair share its rows of A
    A = np.kron(_incidence(n)[1:].T, np.eye(2)).reshape(len(I), 2, 2 * n - 2)
    A = np.repeat(np.concatenate([A, np.zeros((len(I), 2, 1))], 2), shifts.shape[-1], axis=0)
    basis = m.basis
    c = np.moveaxis(shifts, 0, -1).reshape(K, -1, 2) @ basis
    pts = F @ basis
    u0 = np.concatenate([(pts[:, 1:] - pts[:, :1]).reshape(K, -1), dmin[:, None]], 1)
    u, _ = _solve_equal_lengths(A, c, u0, active=active)
    refined = np.concatenate([np.zeros((K, 1, 2)), u[:, :-1].reshape(K, -1, 2)], 1) + pts[:, :1]
    return refined @ np.linalg.inv(basis)


# Each refine lands on the tangency configuration of the active set read
# from its input.  From an ascent output that set can miss a contact of the
# optimum, and the landed configuration then has other shortest translates;
# reading the set again and solving again picks them up.  On the 180
# criterion-3 tori (200 restarts, seed 101) one round leaves 2 of them up
# to 4.1e-4 short of the closed form, three rounds land all 180 within 1e-9.
REFINE_ROUNDS = 3


def maximize_min_distance(
    n: int,
    m: ModuliPoint,
    restarts: int = 200,
    seed: int = 0,
    refine_top: int = 12,
) -> OracleResult:
    """Best max-min configuration of n points on the torus over seeded
    multi-start ascent, the refine_top best of them refined by up to
    REFINE_ROUNDS active-set solves.  Deterministic for fixed
    (seed, restarts)."""
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
    T0 = np.array(
        [np.random.default_rng(np.random.SeedSequence((seed, r))).random((n, 2)) for r in range(restarts)]
    )
    T0[:, 0] = 0.0  # translation quotient
    # each restart's ascent is independent of the batch it runs in
    chunks = np.array_split(T0, min(_thread_count(), restarts))
    with ThreadPoolExecutor(max_workers=len(chunks)) as ex:
        T = np.concatenate(list(ex.map(_ascent_batch, chunks, [m] * len(chunks))))

    scores = np.minimum(_min_distances(T, m), cap)
    order = np.argsort(-scores, kind="stable")
    top = T[order[: max(1, refine_top)]]
    d = _min_distances(top, m)
    live = np.arange(len(top))
    for _ in range(REFINE_ROUNDS):
        refined = _active_refine(top[live], m)
        d_refined = _min_distances(refined, m)
        better = d_refined > d[live]  # a round is kept only if it gains
        live = live[better]
        top[live], d[live] = refined[better], d_refined[better]
        if not live.size:
            break
    d = np.minimum(d, cap)
    best = int(np.argmax(d))  # the first of the best candidates
    best_d = float(d[best])
    # fraction of restarts whose ascent landed in the winning basin (ascent
    # values sit a few 1e-3 below the refined optimum)
    converged = float((scores >= best_d - 5e-3).mean())
    centers = tuple(TorusPoint(*p).canonical(m) for p in top[best] @ basis)
    return OracleResult(
        best_radius=best_d / 2,
        best_centers=centers,
        restarts_used=restarts,
        converged_fraction=converged,
    )


# The oracle is lower-bound evidence: a seeded multi-start may stop short of
# the optimum, and more than 1e-3 short means it missed the optimum's basin.
ORACLE_GAP_TOL = 1e-3
# Its configurations are packings up to rounding, so a radius above the
# closed form by more than rounding (~1e-15) would refute the formula.
ORACLE_OVERSHOOT_TOL = 1e-6


def oracle_agrees(formula_radius: float, oracle_radius: float) -> bool:
    """The oracle-agreement rule: close to the closed form, never above it."""
    return (
        abs(oracle_radius - formula_radius) <= ORACLE_GAP_TOL
        and oracle_radius <= formula_radius + ORACLE_OVERSHOOT_TOL
    )


@dataclass(frozen=True)
class ComparisonReport:
    n: int
    m: ModuliPoint
    formula_radius: float
    oracle_radius: float
    gap: float
    restarts: int
    seed: int

    @property
    def agrees(self) -> bool:
        return oracle_agrees(self.formula_radius, self.oracle_radius)


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
# read 100x more loosely than at extraction (SAMPLE_TANGENCY_TOL): a sample
# with another pair within this distance of touching is a limit point of a
# graph with more edges (seen: ECG9-3 "realized" on the hexagonal torus with
# non-edges 1.6e-7..6.5e-7 from tangency and an angle gap of pi - 3e-6).
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
        packing.validate(tol=SAMPLE_TANGENCY_TOL)
        extracted = extract_graph(packing, tol=SAMPLE_TANGENCY_TOL)
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
