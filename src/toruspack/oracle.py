"""Independent numerical verification of the closed forms.

A seeded multi-start max-min ascent searches for the densest n-point
configuration on each torus of a table; its best endpoints are ranked and
refined by active-set solves on realization's equal-length solver, and the
oracle-agreement rule reads the result as lower-bound evidence against the
closed forms.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .closed_form import optimal_radius
from .lattice import ModuliPoint, TorusPoint
from .realization import RADIUS_CAP, _solve_equal_lengths
from .realization import realize_embedding  # noqa: F401
from .stream import Stream


class OracleResult(NamedTuple):
    best_radius: float
    best_centers: tuple[TorusPoint, ...]


# _active_refine takes every translate within REFINE_SLACK of the shortest
# as a contact to hold at one length.
# A translate that is no contact of the refined optimum sits within 2e-3
# of the shortest in 0.7% of the ranked ascent endpoints (within 5e-3 in
# 4.2%; 432 endpoints of 36 interior tori, n = 2-4, 200 restarts).  The
# contacts it misses (most endpoints have one up to ~2e-2 out) are added
# by the 2n - 1 floor and by the next of REFINE_ROUNDS.
REFINE_SLACK = 2e-3


# ---------------------------------------------------------------------------
# max-min distance ascent
#
# Points are held in fractional coordinates.  The ascent runs every torus of
# a table at once: the tori share the seeded starts, and each torus's
# iterates read only its own moduli and basis, so a torus ascends the same
# alone or in any batch.  Ranking and refining read _corner_arrays.

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
# maximize_min_distances ascends a table in blocks of tori whose 4 P K R
# arrays hold at most this many bytes each, near the cache: at n = 4 and 200
# restarts a torus takes 31/46, 22/26, 23/24, 23/23, 23/24, 21/22, 22/22 and
# 26/24 ms in blocks of 1, 4, 8, 12, 20, 27, 40 and 80 tori (best of 6, two
# runs, 2-vCPU VM, 4 MiB L2), and this budget gives blocks of 27.  Tori
# ascend alike in any block.
ASCENT_BLOCK_BYTES = 1 << 20


def _basis(m: ModuliPoint) -> np.ndarray:
    """Row-stacked generators [[1, 0], [x, y]]."""
    return np.array([[1.0, 0.0], [m.x, m.y]])


def _corner_arrays(frac: np.ndarray, m: ModuliPoint) -> tuple[np.ndarray, np.ndarray]:
    """lattice.corner_translates of the differences frac (..., 2), on arrays:
    the shifts and the vectors, both (2, ..., 4), the corners last, in order."""
    f = np.moveaxis(frac, -1, 0)
    r = np.rint(f)
    f = f - r
    g = np.copysign(1.0, f)
    t, s = np.stack([f, f - g]), np.stack([-r, -r - g])  # (value, coordinate, ...)
    a, b = [0, 0, 1, 1], [0, 1, 0, 1]  # corner (a, b) takes value a of t1, value b of t2
    v = np.stack([t[a, 0] + m.x * t[b, 1], m.y * t[b, 1]])
    return np.moveaxis(np.stack([s[a, 0], s[b, 1]]), 1, -1), np.moveaxis(v, 1, -1)


def _lengths(v: np.ndarray) -> np.ndarray:
    return np.sqrt(v[0] ** 2 + v[1] ** 2)


def _min_distances(F: np.ndarray, m: ModuliPoint) -> np.ndarray:
    """Minimum pairwise toroidal distance of each configuration F (..., n, 2)
    (n >= 2); the self distance is the shortest lattice vector, capped by
    the caller."""
    I, J = np.triu_indices(F.shape[-2], 1)
    _, v = _corner_arrays(F[..., J, :] - F[..., I, :], m)
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

    A pair reads the 4 corners of its lattice cell, _corner_arrays's bit
    for bit, which hold its nearest translate (lattice's docstring).

    Every array is allocated once; five hold 4 P K R floats (P = n(n - 1)/2
    pairs), laid out (a, b, pair, torus, restart): broadcasts, minima and
    corner sums are elementwise passes, and every reduction stays within one
    torus and one restart, in an order that does not depend on K.
    """
    K = len(tori)
    R, n, _ = T0.shape
    I, J = np.triu_indices(n, 1)
    P = len(I)
    x, y = np.array([(m.x, m.y) for m in tori]).T[..., None]
    binv = np.linalg.inv(np.array([_basis(m) for m in tori]))
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
    it to machine precision.  The active set is every cell corner within
    REFINE_SLACK of the minimum, and at least the 2n - 1 shortest: a local
    optimum is an infinitesimally rigid strut framework, which needs one
    more contact than its 2(n - 1) degrees of freedom.  Each F of Fs and
    its result are fractional coordinates (K, n, 2) on its torus; all are
    solved in one batch, each as it would be alone, with each torus's basis
    products taken per torus.  A result is only adopted by the caller if it
    actually improves the minimum distance.
    """
    n = Fs[0].shape[1]
    I, J = np.triu_indices(n, 1)
    # unknowns: p_1 .. p_{n-1} (p_0 pinned), then the common length d; the
    # 4 corners of a pair share its rows of A
    incidence = np.eye(n)[:, J] - np.eye(n)[:, I]  # +1 at each pair's head j, -1 at its tail i
    A = np.kron(incidence[1:].T, np.eye(2)).reshape(len(I), 2, 2 * n - 2)
    A = np.repeat(np.concatenate([A, np.zeros((len(I), 2, 1))], 2), 4, axis=0)
    c, dmin, active, pts = [], [], [], []
    for F, m in zip(Fs, tori):
        shifts, v = _corner_arrays(F[:, J] - F[:, I], m)
        dist = _lengths(v).reshape(len(F), -1)  # (pair, corner) flattened
        dmin.append(dist.min(1))
        cut = np.maximum(dmin[-1] + REFINE_SLACK, np.partition(dist, 2 * n - 2, axis=1)[:, 2 * n - 2])
        active.append(dist <= cut[:, None])
        basis = _basis(m)
        c.append(np.moveaxis(shifts, 0, -1).reshape(len(F), -1, 2) @ basis)
        pts.append(F @ basis)
    pts = np.concatenate(pts)
    u0 = np.concatenate([(pts[:, 1:] - pts[:, :1]).reshape(len(pts), -1), np.concatenate(dmin)[:, None]], 1)
    u = _solve_equal_lengths(A, np.concatenate(c), np.ones(len(A)), np.concatenate(active).astype(float), u0)
    refined = np.concatenate([np.zeros((len(u), 1, 2)), u[:, :-1].reshape(len(u), -1, 2)], 1) + pts[:, :1]
    parts = np.split(refined, np.cumsum([len(F) for F in Fs])[:-1])
    return [r @ np.linalg.inv(_basis(m)) for r, m in zip(parts, tori)]


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
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if n == 1:
        one = OracleResult(RADIUS_CAP, (TorusPoint(0.0, 0.0),))
        return [one for _ in tori]
    if not tori:
        return []
    # per-restart deterministic starts
    T0 = np.array([Stream(seed, r).randoms(2 * n) for r in range(restarts)]).reshape(restarts, n, 2)
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
    tops = [T[np.argsort(-np.minimum(_min_distances(T, m), cap), kind="stable")[:REFINE_TOP]]
            for T, m in zip(ends, tori)]
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
    for m, top, d in zip(tori, tops, ds):
        best = int(np.argmax(np.minimum(d, cap)))  # the first of the best candidates
        results.append(OracleResult(
            best_radius=min(float(d[best]), cap) / 2,
            best_centers=tuple(TorusPoint(*p).canonical(m) for p in top[best] @ _basis(m)),
        ))
    return results


# The oracle is lower-bound evidence: a seeded multi-start may stop short of
# the optimum, and more than 1e-3 short means it missed the optimum's basin.
ORACLE_GAP_TOL = 1e-3
# Its configurations are packings up to rounding, so a radius above the
# closed form by more than rounding (~1e-15) would refute the formula.
ORACLE_OVERSHOOT_TOL = 1e-12


def oracle_agrees(formula_radius: float, oracle_radius: float) -> bool:
    """The oracle-agreement rule: close to the closed form, never above it."""
    return (
        abs(oracle_radius - formula_radius) <= ORACLE_GAP_TOL
        and oracle_radius <= formula_radius + ORACLE_OVERSHOOT_TOL
    )


# The package's one dataclass: the benchmark's gate self-test corrupts a
# ComparisonReport with dataclasses.replace (perfbench/gate.py).
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

