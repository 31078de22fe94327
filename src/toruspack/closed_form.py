"""Closed-form optimal radii and circle centers for 2, 3 and 4 circles.

Each moduli region carries its own radius formula; the center lists are
expressed through the auxiliary quantity R = sqrt(16 r^2 - 1) (real since
every optimal radius is at least 1/4).  In the topmost region of each strip
the radius is 1/2, the optimum is highly non-unique, and a canonical layered
self-tangent witness is returned instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice import ModuliPoint, TorusPoint
from .regions import RegionId, SQRT3, classify


def _r2_1(x: float, y: float) -> float:
    return math.sqrt(x * x + y * y) * math.sqrt((x - 1) ** 2 + y * y) / (4 * y)


def _r3_1(x: float, y: float) -> float:
    return (
        math.sqrt(x * x + y * y)
        * math.sqrt((x + 0.5) ** 2 + (y - SQRT3 / 2) ** 2)
        / (2 * (y + SQRT3 * x))
    )


def _r3_2(x: float, y: float) -> float:
    inner = math.sqrt(max(3 + 4 * y * y - 12 * x * x, 0.0))
    return math.sqrt(9 * x * x + (y - inner) ** 2) / 6


# The hexagonal point h = (1/2, sqrt3/2), where R1_4 pinches to a point and
# meets R2_4, has height SQRT3 / 2 + _HEX_Y_LO to twice double precision.
_HEX_Y_LO = 5.0175421109034514e-17


def _aux_r4_1(x: float, y: float) -> float:
    """R = sqrt(16 r^2 - 1) on R1_4.  The branch |z| |z - h| / (2 (y - sqrt3 x))
    is 0/0 at h; about h it reads r = sqrt(1 + R^2) / 4 with the ratio below,
    whose numerator vanishes to second order along the region.  Over R1_4,
    |z - h| / 2 <= R <= |z - h|, so a float point classified into R1_4 a
    rounding from h, outside that cusp, is clamped into it."""
    u, v = x - 0.5, (y - SQRT3 / 2) - _HEX_Y_LO
    den = v - SQRT3 * u
    R = (u + SQRT3 * v + 2 * (u * u + v * v)) / den if den else 0.0
    return min(max(R, 0.0), math.hypot(u, v))


def _r4_1(x: float, y: float) -> float:
    R = _aux_r4_1(x, y)
    return math.sqrt(1 + R * R) / 4


def _r4_2_terms(x: float, y: float) -> tuple[float, float]:
    a = 2 * (y * SQRT3 - x) ** 2 - ((x - 1) * SQRT3 + y) ** 2 + 3
    b = (x * x + y * y) * ((x - 1.5) ** 2 + (y - SQRT3 / 2) ** 2)
    return a, math.sqrt(max(a * a - 16 * b, 0.0))


def _r4_2(x: float, y: float) -> float:
    a, disc = _r4_2_terms(x, y)
    return math.sqrt(max(a - disc, 0.0)) / (4 * math.sqrt(2))


def _aux_r4_2(x: float, y: float) -> float:
    """R on R2_4: 16 r^2 - 1 = 2 N / (a - 2 + disc) with N = 4b - a + 1, which
    vanishes to second order at h; about h, N = (3u + sqrt3 v)^2 + 4 p q with
    p = |z|^2 - 1 and q = |z - (3/2, sqrt3/2)|^2 - 1."""
    a, disc = _r4_2_terms(x, y)
    u, v = x - 0.5, (y - SQRT3 / 2) - _HEX_Y_LO
    N = (3 * u + SQRT3 * v) ** 2 + 4 * (u * (u + 1) + v * (v + SQRT3)) * (u * (u - 2) + v * v)
    return math.sqrt(max(2 * N / (a - 2 + disc), 0.0))


def _r4_3(x: float, y: float) -> float:
    a = 9 + 5 * y * y - (2 * x - 1) ** 2
    b = ((x - 2) ** 2 + y * y) * ((x + 1) ** 2 + y * y)
    disc = math.sqrt(max(a * a - 16 * b, 0.0))
    return math.sqrt(max(a - disc, 0.0)) / (8 * math.sqrt(2))


_BRANCHES = {
    2: [_r2_1, lambda x, y: 0.5],
    3: [_r3_1, _r3_2, lambda x, y: 0.5],
    4: [_r4_1, _r4_2, _r4_3, lambda x, y: 0.5],
}


def radius_branch(n: int, index: int, x: float, y: float) -> float:
    """Evaluate the radius formula of one region without classifying."""
    return _BRANCHES[n][index - 1](x, y)


def optimal_radius(n: int, m: ModuliPoint) -> float:
    """Largest radius of n equal circles packable on the torus m."""
    # The region's own branch, on its lower boundary too: adjacent branches
    # agree on the curve, but a neighbour's layout a rounding above it can
    # overlap (by up to 3e-4 near the hexagonal point within BOUNDARY_TOL).
    return radius_branch(n, classify(n, m).index, m.x, m.y)


@dataclass(frozen=True)
class OptimalSolution:
    n: int
    m: ModuliPoint
    region: RegionId
    radius: float
    centers: tuple[TorusPoint, ...]
    aux_R: float


def layered_centers(n: int) -> list[TorusPoint]:
    """Radius-1/2 witness: one self-tangent layer per circle, consecutive
    layers doubly tangent, stacked as in the triangular close packing."""
    return [TorusPoint(0.5 * ((k % 2)), k * SQRT3 / 2) for k in range(n)]


def optimal_centers(n: int, m: ModuliPoint) -> OptimalSolution:
    """Centers of an optimal arrangement (first circle at the origin).

    In the free region the optimum is far from unique; the canonical layered
    witness is returned, with the single top tangency at the wrap angle
    appearing exactly on the region's lower boundary.
    """
    region = classify(n, m)
    r = optimal_radius(n, m)
    if n == 4 and region.index < 3:
        # near h, where r comes down to 1/4, sqrt(16 r^2 - 1) would turn one
        # rounding of r into an error of 4 ulp(r) / R: R from the branch
        R = (_aux_r4_1, _aux_r4_2)[region.index - 1](m.x, m.y)
    else:
        R = math.sqrt(max(16 * r * r - 1.0, 0.0))
    if region.is_free:
        centers = layered_centers(n)
    else:
        if n == 2:
            pts = [(0.0, 0.0), (0.5, R / 2)]
        elif n == 3:
            if region.index == 1:
                pts = [
                    (0.0, 0.0),
                    (0.5, -R / 2),
                    ((SQRT3 * R + 1) / 4, (SQRT3 - R) / 4),
                ]
            else:
                pts = [(0.0, 0.0), (0.5, -R / 2), (0.5, R / 2)]
        else:
            if region.index in (1, 2):
                pts = [
                    (0.0, 0.0),
                    (0.5, R / 2),
                    ((1 - SQRT3 * R) / 4, (R + SQRT3) / 4),
                    ((3 - SQRT3 * R) / 4, (3 * R + SQRT3) / 4),
                ]
            else:
                pts = [(0.0, 0.0), (0.5, R / 2), (0.0, R), (0.5, 3 * R / 2)]
        centers = [TorusPoint(u, w) for u, w in pts]
    centers = [c.canonical(m) for c in centers]
    return OptimalSolution(
        n=n,
        m=m,
        region=region,
        radius=r,
        centers=tuple(centers),
        aux_R=R,
    )


def tangency_census(n: int, m: ModuliPoint, tol: float = 1e-9) -> int:
    """Number of edges of the optimal packing's graph at m."""
    from .packing import Packing, extract_graph

    sol = optimal_centers(n, m)
    p = Packing(m=m, centers=sol.centers, radius=sol.radius)
    return len(extract_graph(p, tol=tol).edges)
