"""Packings, packing graphs with displacement labels, density and validity."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import OverlapDetected
from .lattice import (
    DEFAULT_TOL,
    Displacement,
    ModuliPoint,
    TorusPoint,
    fundamental_domain_area,
    tangency_displacements,
    torus_distance,
)

TRIANGULAR_DENSITY = math.pi / math.sqrt(12.0)

# Tangency tolerance for packings that come out of a numerical solve (the
# realization samples, their frameworks and rigidity witnesses): a sample's
# edge lengths agree to realize_embedding's residual_tol (1e-10) before the
# basis reduction rescales them, so 1e-7 reads every solved edge as a
# tangency with a wide margin for that rescaling, while
# oracle.REALIZATION_CLEARANCE keeps every other pair 100x farther away.
SAMPLE_TANGENCY_TOL = 1e-7


@dataclass(frozen=True)
class Packing:
    m: ModuliPoint
    centers: tuple[TorusPoint, ...]
    radius: float

    @property
    def n(self) -> int:
        return len(self.centers)

    def validate(self, tol: float = DEFAULT_TOL) -> "Packing":
        lo = 2 * self.radius - tol
        for i, p in enumerate(self.centers):
            if self.m.shortest_vector() < lo:
                raise OverlapDetected("radius exceeds half the shortest lattice vector")
            for q in self.centers[i + 1 :]:
                if torus_distance(p, q, self.m) < lo:
                    raise OverlapDetected(f"circles {i} overlap at radius {self.radius}")
        return self


@dataclass(frozen=True)
class PackingGraph:
    """Multigraph on circle indices; each edge carries its lattice witness.

    Edges (i, j, d) with i <= j are identified with (j, i, -d); loops (i = i)
    are self-tangencies and store one representative of the +-d pair.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, Displacement], ...]

    def degree(self, v: int) -> int:
        deg = 0
        for i, j, _ in self.edges:
            if i == v:
                deg += 1
            if j == v:
                deg += 1  # loops count both tangency directions
        return deg

    def pair_multiplicity(self, i: int, j: int) -> int:
        a, b = min(i, j), max(i, j)
        return sum(1 for u, v, _ in self.edges if (u, v) == (a, b))

    def loop_count(self) -> int:
        return sum(1 for i, j, _ in self.edges if i == j)


@dataclass(frozen=True)
class TangencyReport:
    degrees: tuple[int, ...]
    pair_multiplicities: dict
    loop_count: int
    total_edges: int
    merged_within_tol: bool


def extract_graph(p: Packing, tol: float = DEFAULT_TOL) -> PackingGraph:
    """All tangencies of the packing, deterministically ordered."""
    edges = []
    for i in range(p.n):
        for j in range(i, p.n):
            disps = tangency_displacements(
                p.centers[i], p.centers[j], p.m, p.radius, tol=tol
            )
            for d in disps:
                edges.append((i, j, d))
    edges.sort(key=lambda e: (e[0], e[1], e[2].a, e[2].b))
    return PackingGraph(vertex_count=p.n, edges=tuple(edges))


def tangency_report(
    g: PackingGraph, p: Packing | None = None, tol: float = DEFAULT_TOL
) -> TangencyReport:
    """Summary statistics; with the packing given, flags tangencies that sit
    away from the exact distance (merges that exact arithmetic might split)."""
    degs = tuple(g.degree(v) for v in range(g.vertex_count))
    mult = {}
    for i, j, _ in g.edges:
        mult[(i, j)] = mult.get((i, j), 0) + 1
    merged = False
    if p is not None:
        for i, j, d in g.edges:
            vec = (
                p.centers[j].canonical(p.m).coords()
                + d.vector(p.m)
                - p.centers[i].canonical(p.m).coords()
            )
            if abs(float(np.hypot(*vec)) - 2 * p.radius) > tol * 0.1:
                merged = True
                break
    return TangencyReport(
        degrees=degs,
        pair_multiplicities=mult,
        loop_count=g.loop_count(),
        total_edges=len(g.edges),
        merged_within_tol=merged,
    )


def density(p: Packing) -> float:
    return p.n * math.pi * p.radius**2 / fundamental_domain_area(p.m)


def max_radius_for_centers(m: ModuliPoint, centers: list[TorusPoint]) -> float:
    """Largest radius for which the centers form a valid packing."""
    best = m.shortest_vector()
    for i, p in enumerate(centers):
        for q in centers[i + 1 :]:
            best = min(best, torus_distance(p, q, m))
    return best / 2


def tangency_directions(g: PackingGraph, p: Packing, vertex: int) -> np.ndarray:
    """Unit direction of every tangency at one circle (loops give both signs)."""
    dirs = []
    for i, j, d in g.edges:
        vec = (
            p.centers[j].canonical(p.m).coords()
            + d.vector(p.m)
            - p.centers[i].canonical(p.m).coords()
        )
        if i == j == vertex:
            dirs += [vec, -vec]
        elif i == vertex:
            dirs.append(vec)
        elif j == vertex:
            dirs.append(-vec)
    out = np.asarray(dirs, float)
    return out / np.linalg.norm(out, axis=1, keepdims=True) if len(out) else out.reshape(0, 2)


def angle_spectrum(g: PackingGraph, p: Packing) -> list[list[float]]:
    """Sorted cyclic gaps between consecutive tangency directions, per vertex."""
    out = []
    for v in range(g.vertex_count):
        dirs = tangency_directions(g, p, v)
        if len(dirs) == 0:
            out.append([])
            continue
        ang = np.sort(np.arctan2(dirs[:, 1], dirs[:, 0]))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * math.pi]]))
        out.append(sorted(float(t) for t in gaps))
    return out


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
