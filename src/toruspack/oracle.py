"""Independent numerical verification.

Two engines live here: a multi-start max-min ascent that searches for
the densest n-point configuration on a given torus (lower-bound evidence
checked against the closed forms), and an equal-length realization solver
that tries to draw an embedded graph as an actual packing graph on some
torus (the evidence used to classify embeddings).
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .closed_form import optimal_radius
from .embedding import EmbeddedGraph, homology_labels
from .errors import NoTorusEmbedding, OverlapDetected
from .geometry_embed import embedding_from_packing
from .lattice import (
    LatticeBasis,
    ModuliPoint,
    TorusPoint,
    pair_indices,
    reduce_to_standard_basis,
    wrapped_translates,
)
from .packing import (
    ANGLE_GAP_TOL,
    SAMPLE_TANGENCY_TOL,
    Packing,
    PackingGraph,
    contacts,
    cyclic_gaps,
    dart_vectors,
    vertex_darts,
)

RADIUS_CAP = 0.5  # shortest lattice vector has length 1 in the standard strip


@dataclass(frozen=True)
class OracleResult:
    best_radius: float
    best_centers: tuple[TorusPoint, ...]
    converged_fraction: float


# ---------------------------------------------------------------------------
# equal-length solver shared by both engines
#
# One system of m rows, each a vector v_t affine in the unknowns u
# (positions with vertex 0 pinned, optionally the torus shape, and last the
# common length L): v_t = A_t u + c_t, with offsets c per start.  An edge
# row (sign +1) has the residual |v_t|^2 - L^2.  A hinge row (sign -1) has
# (L^2 - |v_t|^2)_+, v_t the difference of two dart vectors at a vertex
# ("neighbours at least L apart").  A 0/1 mask per start switches rows off.
# Each Jacobian row is w . A_t + s e_k, with w = 2 sign v_t and
# s = -2 sign L for a row that counts, and both 0 for a masked row or an off
# hinge.  So the Jacobian follows from the constant tensor A by
# multiply-adds, and damped Gauss-Newton runs on all starts at once.

LM_MAX_ITER = 200
LM_COST_FLOOR = 1e-30  # 0.5 |r|^2 at machine precision for lengths ~1
LM_LAMBDA_CEIL = 1e10  # damping beyond which a start counts as stuck
# The first damping is this share of the largest diagonal entry of J^T J
# (the tau of Madsen, Nielsen and Tingleff 2004 for a start not known to be
# near a solution is 1e-3): the first steps are nearly Gauss-Newton ones.
LM_LAMBDA_INIT = 1e-3
# The damping never falls below this share of that entry (and never below
# this absolute value): J^T J is singular on the underdetermined
# realization systems, and the floor keeps the condition number of
# J^T J + lam I below about k 1e12, inside double precision.
LM_LAMBDA_FLOOR = 1e-12
# An accepted step divides the damping by LM_ACCEPT_SHRINK and a rejected
# one multiplies it by LM_REJECT_GROW.  Growth outpaces shrinking, so a
# start that alternates between the two still raises its damping (by 4/3
# per pair) until it stops or meets LM_LAMBDA_CEIL.
LM_ACCEPT_SHRINK = 3.0
LM_REJECT_GROW = 4.0
# What the callers read from a solve.  _active_refine takes every translate
# within REFINE_SLACK of the shortest as a contact to hold at one length.
# A translate that is no contact of the refined optimum sits within 2e-3
# of the shortest in 0.7% of the ranked ascent endpoints (within 5e-3 in
# 4.2%; 432 endpoints of 36 interior tori, n = 2-4, 200 restarts).  The
# contacts it misses (most endpoints have one up to ~2e-2 out) are added
# by the 2n - 1 floor and by the next of REFINE_ROUNDS.
REFINE_SLACK = 2e-3
# realize_embedding drops a solve whose common length L or torus height y
# fell below DEGENERATE_SCALE: the starts draw L from [0.4, 1.05] and y
# from [0.5, 1.2 n], and L = 0 (every edge of length zero) or y = 0 (a flat
# lattice) solve the equations without drawing a packing.
DEGENERATE_SCALE = 1e-3


def _edge_vectors(u: np.ndarray, A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(B, E, 2) edge vectors A u + c of the starts u (B, k): one (1, k) @
    (k, 2E) product per start, so a start's vectors do not depend on the
    batch (a (B, k) @ (k, 2E) product rounds a row differently for
    different B)."""
    At = A.reshape(-1, A.shape[-1]).T
    return (u[:, None, :] @ At).reshape(len(u), *A.shape[:2]) + c


def _equal_length_terms(u, rows, offsets, sign, active):
    """Residuals r (B, m) of the starts u (B, k), with the factors w (B, m, 2)
    and s (B, m) of their Jacobian rows w . rows_t + s e_k.  A row counts
    while its active entry is 1, and a hinge only while its gap is positive."""
    L = u[:, -1:]
    v = _edge_vectors(u, rows, offsets)
    r = sign * (v[..., 0] ** 2 + v[..., 1] ** 2 - L**2)
    mask = ((r > 0) | (sign > 0)) * active
    r *= mask
    w = (2 * sign)[:, None] * v * mask[..., None]
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


def _solve_equal_lengths(rows, offsets, sign, active, u0):
    """Levenberg-damped Gauss-Newton (More 1978, identity damping) on every
    start of u0 (B, k) at once, with one damping factor per start.

    rows (m, 2, k) and offsets (B, m, 2) define the row vectors; sign (m,)
    is +1 for an edge and -1 for a hinge, and active (B, m) is the 0/1 mask
    of the rows each start solves for.  Returns the final u; its cost
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
    so each start's result is bit for bit the one it gets alone.
    """
    u = np.array(u0, dtype=float)
    k = u.shape[1]
    r, w, s = _equal_length_terms(u, rows, offsets, sign, active)
    JTJ, JTr = _normal_equations(_jacobian(w, s, rows), r)
    cost = 0.5 * (r**2).sum(1)
    diag = np.diagonal(JTJ, axis1=1, axis2=2).max(1)
    floor = LM_LAMBDA_FLOOR * np.maximum(diag, 1.0)
    lam = np.maximum(LM_LAMBDA_INIT * diag, floor)
    done = cost <= LM_COST_FLOOR
    eye = np.eye(k)
    for _ in range(LM_MAX_ITER):
        live = np.flatnonzero(~done)
        if not live.size:
            break
        H = JTJ[live] + lam[live, None, None] * eye
        trial = u[live] - np.linalg.solve(H, JTr[live][..., None])[..., 0]
        rt, wt, st = _equal_length_terms(trial, rows, offsets[live], sign, active[live])
        ct = 0.5 * (rt**2).sum(1)
        ok = ct < cost[live]
        acc, rej = live[ok], live[~ok]
        u[acc], cost[acc] = trial[ok], ct[ok]
        JTJ[acc], JTr[acc] = _normal_equations(_jacobian(wt[ok], st[ok], rows), rt[ok])
        lam[acc] = np.maximum(lam[acc] / LM_ACCEPT_SHRINK, floor[acc])
        lam[rej] *= LM_REJECT_GROW
        done[live] = (cost[live] <= LM_COST_FLOOR) | (lam[live] > LM_LAMBDA_CEIL)
    return u


# ---------------------------------------------------------------------------
# max-min distance ascent
#
# Points are held in fractional coordinates.  The ascent runs every torus of
# a table at once: the tori share the seeded starts, and each torus's
# iterates read only its own moduli and basis, so a torus ascends the same
# alone or in any batch.  Ranking and refining read lattice.wrapped_translates.

ASCENT_ITERS = 220
# The soft-min sharpness starts at 64 and doubles every tenth of the
# schedule up to 65536; the plane step starts at 0.08 and shrinks by 0.75
# every tenth, to 0.08 * 0.75^9 = 6.0e-3 in the last one.
ASCENT_BETA = (64.0, 65536.0)
ASCENT_STEP = (0.08, 0.75)
# Added to every squared translate length: two coincident points then sit
# 1e-9 apart, not 0, so the weight w / dist of their pair stays finite.
DIST_FLOOR_SQ = 1e-18
# Added to each point's gradient length before the step is normalized: a
# point with no contact within reach of the soft-min (its weights underflow
# to 0) has a zero gradient and stays put instead of dividing 0 by 0.
NORM_FLOOR = 1e-15
# Soft-min exponents are clamped here before exp: e^-700 = 1e-304 changes
# no sum that holds the nearest translate's weight 1, and exp of anything
# below -708 underflows through a path about ten times slower.
EXP_FLOOR = -700.0
# A restart counts as converged (converged_fraction) when its ascent
# endpoint's minimum distance is within this of the refined optimum.  The
# last tenth's steps of 6.0e-3 leave endpoints a median 4.0e-3 below their
# basin's refined optimum (p90 8.7e-3, p99 1.4e-2; 48 interior tori, 16 per
# n, 200 restarts), so the fraction is a share of the basin, not its size.
BASIN_WINDOW = 5e-3
# maximize_min_distances ascends a table in blocks of tori whose 4 P K R
# arrays hold at most this many bytes each, near the cache: at n = 4 and 200
# restarts a torus takes 31/46, 22/26, 23/24, 23/23, 23/24, 21/22, 22/22 and
# 26/24 ms in blocks of 1, 4, 8, 12, 20, 27, 40 and 80 tori (best of 6, two
# runs, 2-vCPU VM, 4 MiB L2), and this budget gives blocks of 27.  Tori
# ascend alike in any block.
ASCENT_BLOCK_BYTES = 1 << 20


def _lengths(v: np.ndarray) -> np.ndarray:
    return np.sqrt(v[0] ** 2 + v[1] ** 2)


def _min_distances(F: np.ndarray, m: ModuliPoint) -> np.ndarray:
    """Minimum pairwise toroidal distance of each configuration F (..., n, 2)
    (n >= 2); the self distance is the shortest lattice vector, capped by
    the caller."""
    I, J = pair_indices(F.shape[-2], 1)
    _, v = wrapped_translates(F[..., J, :] - F[..., I, :], m)
    return _lengths(v).min((-2, -1))


def _corner_sum(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """((p00 + p01) + p10) + p11 over the corner axes of p (2, 2, ...)."""
    np.add(p[0, 0], p[0, 1], out=out)
    out += p[1, 0]
    out += p[1, 1]
    return out


def _ascent(T0: np.ndarray, tori: Sequence[ModuliPoint]) -> np.ndarray:
    """Soft-min gradient ascent on the minimum pairwise distance.

    T0: (R, n, 2) fractional starts, shared by the K tori; returns the
    (K, R, n, 2) endpoints.  Steps are taken in plane coordinates and
    mapped back to fractional coordinates.

    A pair reads the 4 corners of its lattice cell: after the wrap
    f = d - rint(d), with s = copysign(1, f), the translates (t1, t2) in
    {f1, f1 - s1} x {f2, f2 - s2}, the corners of the cell holding -f.
    Each rounds d plus an integer once, as lattice.wrapped_translates does,
    so they are 4 of its 9 bit for bit; and they hold the nearest, as a
    point's nearest lattice point is a vertex of its Delaunay cell (Conway
    & Sloane, Sphere Packings, Lattices and Groups, ch. 2).  In the strip
    the shorter diagonal cuts a cell into two non-obtuse triangles (0, v1,
    v2 has angle cosines in the ratios x : 1 - x : x^2 + y^2 - x >= 0; the
    other cells hold translates of it, or of its mirror image when x < 0),
    and in a non-obtuse lattice triangle each vertex's convex Voronoi cell
    holds the vertex, the circumcenter and its edges' midpoints (whose
    diametral disks lie in empty circumdisks), hence its share of it.

    Every array is allocated once; five hold 4 P K R floats (P = n(n - 1)/2
    pairs), laid out (a, b, pair, torus, restart): broadcasts, minima and
    corner sums are elementwise passes, and every reduction stays within one
    torus and one restart, in an order that does not depend on K.
    """
    K = len(tori)
    R, n, _ = T0.shape
    I, J = pair_indices(n, 1)
    P = len(I)
    x, y = np.array([(m.x, m.y) for m in tori]).T[..., None]
    binv = np.linalg.inv(np.array([m.basis for m in tori]))
    T = np.repeat(T0.transpose(2, 1, 0)[:, :, None], K, axis=2)  # (2, n, K, R)
    # corner (a, b) is (t[0, a] + x t[1, b], y t[1, b]), t[c] = (f_c, f_c - s_c)
    t, xyt, v0, dist, w = (np.empty((2, 2, P, K, R)) for _ in range(5))
    f, xy = t[:, 0], np.stack([x, y])[:, None, None]  # xyt = (x t[1], y t[1])
    dmin, total, pair_total = np.empty((K, R)), np.empty((K, R)), np.empty((P, K, R))
    contrib, grad, grad_sq = np.empty((2, P, K, R)), np.empty((2, n, K, R)), np.empty((2, n, K, R))
    norm, plane_step = np.empty((n, K, R)), np.empty((K, R, n, 2))
    move = np.empty((K, R * n, 2))
    beta, beta_cap = ASCENT_BETA
    step, decay = ASCENT_STEP
    for it in range(ASCENT_ITERS):
        # wrapped differences f - rint(f), then the corners of their cells
        np.subtract(T[:, J], T[:, I], out=f)
        np.rint(f, out=t[:, 1])
        f -= t[:, 1]
        np.copysign(1.0, f, out=t[:, 1])
        np.subtract(f, t[:, 1], out=t[:, 1])
        np.multiply(t[1], xy, out=xyt)
        np.add(t[0][:, None], xyt[0][None], out=v0)
        np.multiply(v0, v0, out=dist)
        np.multiply(xyt[1], xyt[1], out=xyt[0])
        dist += xyt[0][None]
        dist += DIST_FLOOR_SQ
        np.sqrt(dist, out=dist)
        # soft-min weights exp(-beta (dist - dmin)) / (total dist); total
        # adds each pair's corners, then the pairs in turn
        np.min(dist.reshape(4 * P, K, R), axis=0, out=dmin)
        np.subtract(dist, dmin, out=w)
        w *= -beta
        np.maximum(w, EXP_FLOOR, out=w)
        np.exp(w, out=w)
        np.sum(_corner_sum(w, pair_total), axis=0, out=total)
        dist *= total
        w /= dist
        # soft-min of the unit vectors of each pair, then of each point
        _corner_sum(np.multiply(w, v0, out=v0), contrib[0])
        _corner_sum(np.multiply(w, xyt[1][None], out=dist), contrib[1])
        grad.fill(0.0)
        for p in range(P):
            grad[:, J[p]] += contrib[:, p]
            grad[:, I[p]] -= contrib[:, p]
        np.multiply(grad, grad, out=grad_sq)
        np.add(grad_sq[0], grad_sq[1], out=norm)
        np.sqrt(norm, out=norm)
        norm += NORM_FLOOR
        grad *= step
        grad /= norm
        # the step in fractional coordinates, through inv(basis)
        np.copyto(plane_step, grad.transpose(2, 3, 1, 0))
        np.matmul(plane_step.reshape(K, R * n, 2), binv, out=move)
        T += move.reshape(K, R, n, 2).transpose(3, 2, 0, 1)
        np.floor(T, out=grad_sq)
        T -= grad_sq  # T % 1.0
        if (it + 1) % (ASCENT_ITERS // 10) == 0:
            beta = min(beta * 2, beta_cap)
            step *= decay
    return T.transpose(2, 3, 1, 0)


def _active_refine(Fs: Sequence[np.ndarray], tori: Sequence[ModuliPoint]) -> list[np.ndarray]:
    """Equalize the near-minimal distances with an equal-length solve.

    At a max-min optimum the active tangencies share one length; solving
    |p_j + t - p_i|^2 = d^2 over the active set lands the configuration on
    it to machine precision.  The active set is every translate within
    REFINE_SLACK of the minimum, and at least the 2n - 1 shortest: a local
    optimum is an infinitesimally rigid strut framework, which needs one
    more contact than its 2(n - 1) degrees of freedom.  Each F of Fs and
    its result are fractional coordinates (K, n, 2) on its torus; all are
    solved in one batch, each as it would be alone, with each torus's basis
    products taken per torus.  A result is only adopted by the caller if it
    actually improves the minimum distance.
    """
    n = Fs[0].shape[1]
    I, J = pair_indices(n, 1)
    # unknowns: p_1 .. p_{n-1} (p_0 pinned), then the common length d; the
    # 9 translates of a pair share its rows of A
    incidence = np.eye(n)[:, J] - np.eye(n)[:, I]  # +1 at each pair's head j, -1 at its tail i
    A = np.kron(incidence[1:].T, np.eye(2)).reshape(len(I), 2, 2 * n - 2)
    A = np.repeat(np.concatenate([A, np.zeros((len(I), 2, 1))], 2), 9, axis=0)
    c, dmin, active, pts = [], [], [], []
    for F, m in zip(Fs, tori):
        shifts, v = wrapped_translates(F[:, J] - F[:, I], m)
        dist = _lengths(v).reshape(len(F), -1)  # (pair, translate) flattened
        dmin.append(dist.min(1))
        cut = np.maximum(dmin[-1] + REFINE_SLACK, np.partition(dist, 2 * n - 2, axis=1)[:, 2 * n - 2])
        active.append(dist <= cut[:, None])
        c.append(np.moveaxis(shifts, 0, -1).reshape(len(F), -1, 2) @ m.basis)
        pts.append(F @ m.basis)
    pts = np.concatenate(pts)
    u0 = np.concatenate([(pts[:, 1:] - pts[:, :1]).reshape(len(pts), -1), np.concatenate(dmin)[:, None]], 1)
    u = _solve_equal_lengths(A, np.concatenate(c), np.ones(len(A)), np.concatenate(active).astype(float), u0)
    refined = np.concatenate([np.zeros((len(u), 1, 2)), u[:, :-1].reshape(len(u), -1, 2)], 1) + pts[:, :1]
    parts = np.split(refined, np.cumsum([len(F) for F in Fs])[:-1])
    return [r @ np.linalg.inv(m.basis) for r, m in zip(parts, tori)]


# Each refine lands on the tangency configuration of the active set read
# from its input.  From an ascent output that set can miss a contact of the
# optimum, and the landed configuration then has other shortest translates;
# reading the set again and solving again picks them up.  On the 180
# criterion-3 tori (200 restarts, seed 101) one round lands all 180 within
# 1e-9; the later rounds run only while some candidate gains.
REFINE_ROUNDS = 3
# The ascent endpoints refined per torus, best first by min distance.
REFINE_TOP = 12


def maximize_min_distances(
    n: int,
    tori: Sequence[ModuliPoint],
    restarts: int,
    seed: int,
) -> list[OracleResult]:
    """Best max-min configuration of n points on each torus, over seeded
    multi-start ascent, the REFINE_TOP best of them refined by up to
    REFINE_ROUNDS active-set solves, each one batch for the whole table.

    One ascent runs every torus; the starts depend on (seed, restart) only.
    Each torus's result is the one it gets alone, so it is deterministic
    for fixed (seed, restarts) whatever the other tori.
    """
    if n == 1:
        one = OracleResult(RADIUS_CAP, (TorusPoint(0.0, 0.0),), converged_fraction=1.0)
        return [one for _ in tori]
    if not tori:
        return []
    # per-restart deterministic starts
    T0 = np.array(
        [np.random.default_rng(np.random.SeedSequence((seed, r))).random((n, 2)) for r in range(restarts)]
    )
    T0[:, 0] = 0.0  # translation quotient
    P = n * (n - 1) // 2
    block = max(1, ASCENT_BLOCK_BYTES // (4 * P * restarts * T0.itemsize))
    ends = [T for at in range(0, len(tori), block) for T in _ascent(T0, tori[at : at + block])]
    return _best_of(ends, tori)


def _best_of(ends: Sequence[np.ndarray], tori: Sequence[ModuliPoint]) -> list[OracleResult]:
    """Rank each torus's ascent endpoints T (R, n, 2), refine the best of
    every torus in one _active_refine per round, and return the winners.
    A torus takes part in a round while some candidate of it gained in the
    last one."""
    cap = 2 * RADIUS_CAP
    scores = [np.minimum(_min_distances(T, m), cap) for T, m in zip(ends, tori)]
    tops = [T[np.argsort(-s, kind="stable")[:REFINE_TOP]] for T, s in zip(ends, scores)]
    ds = [_min_distances(top, m) for top, m in zip(tops, tori)]
    lives = [np.arange(len(top)) for top in tops]
    for _ in range(REFINE_ROUNDS):
        on = [k for k, live in enumerate(lives) if live.size]
        if not on:
            break
        refined = _active_refine([tops[k][lives[k]] for k in on], [tori[k] for k in on])
        for k, r in zip(on, refined):
            d_refined = _min_distances(r, tori[k])
            better = d_refined > ds[k][lives[k]]  # a round is kept only if it gains
            live = lives[k] = lives[k][better]
            tops[k][live], ds[k][live] = r[better], d_refined[better]
    results = []
    for m, s, top, d in zip(tori, scores, tops, ds):
        best = int(np.argmax(np.minimum(d, cap)))  # the first of the best candidates
        best_d = min(float(d[best]), cap)
        results.append(OracleResult(
            best_radius=best_d / 2,
            best_centers=tuple(TorusPoint(*p).canonical(m) for p in top[best] @ m.basis),
            converged_fraction=float((s >= best_d - BASIN_WINDOW).mean()),
        ))
    return results


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
    formula_radius: float
    oracle_radius: float
    gap: float
    restarts: int


def compare_with_closed_forms(
    n: int, tori: Sequence[ModuliPoint], restarts: int, seed: int
) -> list[ComparisonReport]:
    """Closed form against the oracle on each torus, one ascent for all."""
    results = maximize_min_distances(n, tori, restarts, seed)
    reports = []
    for m, res in zip(tori, results):
        r_formula = optimal_radius(n, m)
        reports.append(ComparisonReport(
            formula_radius=r_formula,
            oracle_radius=res.best_radius,
            gap=abs(res.best_radius - r_formula),
            restarts=restarts,
        ))
    return reports


def compare_with_closed_form(n: int, m: ModuliPoint, restarts: int, seed: int) -> ComparisonReport:
    return compare_with_closed_forms(n, [m], restarts, seed)[0]


# ---------------------------------------------------------------------------
# equal-length realization of embedded graphs


@dataclass(frozen=True)
class RealizationSample:
    m: ModuliPoint
    centers: tuple[TorusPoint, ...]
    edge_length: float
    residual: float
    graph: PackingGraph  # the tangencies at SAMPLE_TANGENCY_TOL


ANGLE_LO = math.pi / 3
ANGLE_HI = math.pi
# A start counts as solved when its edge lengths agree with L to this, in the
# solve's units.  Solved and unsolved starts lie far apart: over 32 400
# realization starts (the 27 n = 3/4 survivors, seeds 2026, 1, 5, 7 and 11,
# 240 attempts each), every non-degenerate start had a residual of at most
# 8.4e-14 or at least 0.064, so a bound on 0.5 |r|^2 decides nothing more.
RESIDUAL_TOL = 1e-10
# A realization must stay a realization of the same graph when tangency is
# read 100x more loosely than at extraction (SAMPLE_TANGENCY_TOL): a sample
# with another pair within this distance of touching is a limit point of a
# graph with more edges (seen: ECG9-3 "realized" on the hexagonal torus with
# non-edges 1.6e-7..6.5e-7 from tangency and an angle gap of pi - 3e-6).
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
    Ad = np.stack([A, -A], 1).reshape(-1, *A.shape[1:])
    cd = dart_vectors(c)
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
    that keeps their angle at least pi/3.  A solution is retained only if
    it is a genuine packing whose extracted graph reproduces the embedding
    (same canonical form) and whose tangency angles lie in the admissible
    window.  The first max_samples retained starts are returned, in start
    order.  The first FIRST_BLOCK_PER_SAMPLE * max_samples starts are
    solved as one batch, the rest as a second only if those fall short;
    each start solves as it would alone, so the samples are those of one
    batch of all starts.  An empty list is evidence of non-realizability,
    never proof.
    """
    nv = e.graph.vertex_count
    A, c, darts = _realization_system(e)
    Aq, cq, joined = _tangent_pairs(A, c, darts)
    # one system: the edges, then the hinges; every row active in every start
    rows, offsets = np.concatenate([A, Aq]), np.concatenate([c, cq])
    sign = np.repeat([1.0, -1.0], [len(A), len(Aq)])
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE)))
    # per start: positions, then x, y and L, each uniform on [lo, hi)
    lo = np.array([-1.0] * (2 * nv - 2) + [-0.9, 0.5, 0.4])
    hi = np.array([2.0] * (2 * nv - 2) + [0.9, 1.2 * nv, 1.05])
    starts = lo + (hi - lo) * rng.random((attempts, 2 * nv + 1))
    samples: list[RealizationSample] = []
    for u0 in np.split(starts, [FIRST_BLOCK_PER_SAMPLE * max_samples]):
        shape = (len(u0),) + offsets.shape
        u = _solve_equal_lengths(rows, np.broadcast_to(offsets, shape), sign, np.ones(shape[:2]), u0)
        # cheap rejections on the whole block: unsolved (unequal lengths),
        # degenerate, tangent angles outside the window, and two neighbours
        # that are not joined but touch.  Within the radius cap the
        # reduction scales lengths by less than 2 / L, so such a pair comes
        # within REALIZATION_CLEARANCE of touching and _validate_solution
        # would reject the start as well.
        # d and q each from its own product: one product over all rows
        # rounds some residuals differently (by about 1e-16)
        d = _edge_vectors(u, A, c)
        q = _edge_vectors(u, Aq, cq)
        L = np.abs(u[:, -1])
        residual = np.abs(np.hypot(d[..., 0], d[..., 1]) - L[:, None]).max(1)
        keep = (residual <= RESIDUAL_TOL) & (L >= DEGENERATE_SCALE) & (np.abs(u[:, -2]) >= DEGENERATE_SCALE)
        dv = dart_vectors(d)
        for ds in darts:
            gaps = cyclic_gaps(dv[:, ds])
            keep &= (gaps.min(1) >= ANGLE_LO - ANGLE_GAP_TOL) & (gaps.max(1) < ANGLE_HI - ANGLE_GAP_TOL)
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
    overlap, the graph at REALIZATION_CLEARANCE (g's edge count, every edge
    a tangency to SAMPLE_TANGENCY_TOL) and its embedding."""
    g = e.graph
    nv = g.vertex_count
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
    centers = tuple(TorusPoint(*q).canonical(m) for q in pts)
    packing = Packing(m=m, centers=centers, radius=radius)
    try:
        extracted, vectors = contacts(packing, REALIZATION_CLEARANCE)
    except OverlapDetected:
        return None
    if extracted.loop_count() or len(extracted.edges) != g.edge_count:
        return None
    if np.abs(np.hypot(vectors[:, 0], vectors[:, 1]) - 2 * radius).max() > SAMPLE_TANGENCY_TOL:
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
