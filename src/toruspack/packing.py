"""Packings, packing graphs with displacement labels, density and validity.

Edge-ends are darts throughout the package (vertex_darts, dart_angles):
dart 2t leaves i along d_t and dart 2t + 1 leaves j along -d_t, for edge
t = (i, j, ...) with vector d_t.
"""
from __future__ import annotations

import json
import math
from typing import NamedTuple

from .errors import OverlapDetected
from .lattice import (DEFAULT_TOL, LOOP_SHIFTS, TOL_CEIL, Displacement, ModuliPoint, TorusPoint, corner_translates,
                      fundamental_domain_area)

TRIANGULAR_DENSITY = math.pi / math.sqrt(12.0)


class Packing(NamedTuple):
    m: ModuliPoint
    centers: tuple[TorusPoint, ...]
    radius: float

    @property
    def n(self) -> int:
        return len(self.centers)

    def validate(self, tol: float = DEFAULT_TOL) -> "Packing":
        _check_reading(self.radius, tol)
        _check_overlap(_pair_translates(self.m, _canonical(self.m, self.centers)), self.radius, tol)
        return self

    def edge_vectors(self, g: "PackingGraph") -> tuple[tuple[float, float], ...]:
        """The plane vector (x, y) of every tangency (i, j, d) of g, in g's
        order: from center i to the d-translate of center j, both canonical."""
        return _edge_vectors(self.m, _canonical(self.m, self.centers), g)


def _canonical(m: ModuliPoint, centers) -> tuple[TorusPoint, ...]:
    """The centers' canonical representatives, read by both the graph and its edge vectors."""
    return tuple(c.canonical(m) for c in centers)


def _edge_vectors(m: ModuliPoint, canon: tuple[TorusPoint, ...],
                  g: "PackingGraph") -> tuple[tuple[float, float], ...]:
    return tuple(((canon[j].u + (d.a + d.b * m.x)) - canon[i].u, (canon[j].w + d.b * m.y) - canon[i].w)
                 for i, j, d in g.edges)


def _pair_translates(m: ModuliPoint, canon: tuple[TorusPoint, ...]) -> list[tuple[int, int, int, int, float]]:
    """Per pair i <= j of the canonical centers, lattice's window of
    translates of center j from center i, as (i, j, s1, s2, length) with the
    integer shift (s1, s2): the 4 corners for i < j, the LOOP_SHIFTS for i = j."""
    frac = [c.lattice_coords(m) for c in canon]
    loops = [(s1, s2, math.hypot(s1 + m.x * s2, m.y * s2)) for s1, s2 in LOOP_SHIFTS]
    out = []
    for i, (p1, p2) in enumerate(frac):
        out += [(i, i, s1, s2, length) for s1, s2, length in loops]
        out += [(i, j, s1, s2, math.hypot(x, y)) for j, (q1, q2) in enumerate(frac[i + 1:], i + 1)
                for s1, s2, x, y in corner_translates(q1 - p1, q2 - p2, m)]
    return out


def _check_reading(radius: float, tol: float) -> None:
    """The arguments validate and extract_graph accept: a positive, finite
    radius and a tangency tolerance in [0, TOL_CEIL] (a NaN fails both)."""
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    if not 0 <= tol <= TOL_CEIL:
        raise ValueError(f"tangency tolerance {tol!r} outside [0, {TOL_CEIL:g}]: "
                         f"above {TOL_CEIL:g} is past the translate window's reach")


def _check_overlap(translates: list[tuple[int, int, int, int, float]], r: float, tol: float) -> None:
    closest = min((t[4] for t in translates), default=math.inf)
    if closest < 2 * r - tol:
        raise OverlapDetected(f"centers at distance {closest:.12g} < 2r = {2 * r:.12g}")


class PackingGraph(NamedTuple):
    """Multigraph on circle indices; each edge carries its lattice witness.

    Edges (i, j, d) with i <= j are identified with (j, i, -d); loops (i = i)
    are self-tangencies and store the representative of the +-d pair that
    lattice.LOOP_SHIFTS holds.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, Displacement], ...]

    def loop_count(self) -> int:
        return sum(1 for i, j, _ in self.edges if i == j)


def extract_graph(p: Packing, tol: float = DEFAULT_TOL) -> PackingGraph:
    """All tangencies of the packing, deterministically ordered.  Raises
    OverlapDetected when two circles come closer than 2r - tol."""
    return _extract(p, _canonical(p.m, p.centers), tol)


def contacts(p: Packing, tol: float = DEFAULT_TOL) -> tuple[PackingGraph, tuple[tuple[float, float], ...]]:
    """extract_graph and the edge vectors of its graph (Packing.edge_vectors)
    from one canonicalization of the centers."""
    canon = _canonical(p.m, p.centers)
    g = _extract(p, canon, tol)
    return g, _edge_vectors(p.m, canon, g)


def _extract(p: Packing, canon: tuple[TorusPoint, ...], tol: float) -> PackingGraph:
    _check_reading(p.radius, tol)
    translates = _pair_translates(p.m, canon)
    _check_overlap(translates, p.radius, tol)
    edges = [(i, j, Displacement(s1, s2)) for i, j, s1, s2, length in translates
             if abs(length - 2 * p.radius) <= tol]
    edges.sort(key=lambda e: (e[0], e[1], e[2].a, e[2].b))
    return PackingGraph(vertex_count=p.n, edges=tuple(edges))


def density(p: Packing) -> float:
    return p.n * math.pi * p.radius**2 / fundamental_domain_area(p.m)


def max_radius_for_centers(m: ModuliPoint, centers: list[TorusPoint]) -> float:
    """Largest radius for which the centers form a valid packing."""
    return min(t[4] for t in _pair_translates(m, _canonical(m, centers))) / 2


# Slack, in radians, on a gap of pi between consecutive tangency
# directions: the half-plane test, read by rigidity and by realization.
# A gap that is exactly pi (a straight row of circles) must read as pi: in
# the closed forms it reads exactly pi (all 240 gaps within 1e-6 of pi at 40
# interior and 40 boundary tori per region), and a solved start's edge
# lengths agree to 1.3e-12 at worst.  A gap of pi - 1e-8 is no
# half-plane, and 1e-9 reads it so.
ANGLE_GAP_TOL = 1e-9


def vertex_darts(edges, n: int) -> list[list[int]]:
    """The darts leaving each of n vertices, in edge order: along edge
    t = (i, j, ...), dart 2t leaves i and dart 2t + 1 leaves j, so a loop
    gives both."""
    out: list[list[int]] = [[] for _ in range(n)]
    for t, (i, j, *_) in enumerate(edges):
        out[i].append(2 * t)
        out[j].append(2 * t + 1)
    return out


def dart_angles(g: PackingGraph, vectors) -> list[list[tuple[float, int]]]:
    """Per vertex, its darts as (math.atan2 angle, dart) in counterclockwise
    order from -pi, from the edge vectors of g (contacts,
    Packing.edge_vectors): dart 2t along d_t, dart 2t + 1 along -d_t."""
    out: list[list[tuple[float, int]]] = [[] for _ in range(g.vertex_count)]
    for t, ((i, j, _), (x, y)) in enumerate(zip(g.edges, vectors)):
        out[i].append((math.atan2(y, x), 2 * t))
        out[j].append((math.atan2(-y, -x), 2 * t + 1))
    return [sorted(darts) for darts in out]


def angle_gaps(g: PackingGraph, vectors) -> list[list[float]]:
    """Sorted cyclic gaps between consecutive tangency directions, per
    vertex (dart_angles), the last one closing the full turn."""
    out = []
    for darts in dart_angles(g, vectors):
        ang = [a for a, _ in darts]
        out.append(sorted(b - a for a, b in zip(ang, ang[1:] + [x + 2 * math.pi for x in ang[:1]])))
    return out


def has_halfplane_vertex(g: PackingGraph, vectors) -> bool:
    """Some circle's tangency directions fit in a closed half-plane; vectors
    are the edge vectors of g (Packing.edge_vectors)."""
    return any(not gaps or gaps[-1] >= math.pi - ANGLE_GAP_TOL for gaps in angle_gaps(g, vectors))


# ---------------------------------------------------------------------------
# JSON serialization (schema versioned; see the reporting module)

SCHEMA_VERSION = 1


def packing_to_dict(p: Packing) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "moduli": {"x": p.m.x, "y": p.m.y},
        "radius": p.radius,
        "centers": [[c.u, c.w] for c in p.centers],
    }


def packing_from_dict(d: dict) -> Packing:
    m = ModuliPoint(d["moduli"]["x"], d["moduli"]["y"])
    return Packing(
        m=m,
        centers=tuple(TorusPoint(u, w) for u, w in d["centers"]),
        radius=d["radius"],
    )


def graph_to_dict(g: PackingGraph) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "vertex_count": g.vertex_count,
        "edges": [[i, j, d.a, d.b] for i, j, d in g.edges],
    }


def graph_from_dict(d: dict) -> PackingGraph:
    return PackingGraph(
        vertex_count=d["vertex_count"],
        edges=tuple((i, j, Displacement(a, b)) for i, j, a, b in d["edges"]),
    )


def to_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
