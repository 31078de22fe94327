import math

import pytest

from toruspack.closed_form import optimal_centers
from toruspack.geometry_embed import embedding_from_packing
from toruspack.lattice import ModuliPoint, TorusPoint
from toruspack.packing import Packing, PackingGraph, extract_graph
from toruspack.regions import boundary_curve

SQRT3 = math.sqrt(3.0)


def embed_at(n, m, tol=1e-9):
    sol = optimal_centers(n, m)
    p = Packing(m=m, centers=sol.centers, radius=sol.radius)
    g = extract_graph(p, tol=tol)
    return embedding_from_packing(g, p.edge_vectors(g))


def test_face_vectors_of_published_optima():
    # interior R1_4: two triangles and three rhombi
    assert embed_at(4, ModuliPoint(0.1, 1.0)).face_vector == (3, 3, 4, 4, 4)
    # top edge of R1_3: two equilateral triangles and a hexagon
    e = embed_at(3, ModuliPoint(0.15, boundary_curve(3, 1, 0.15)))
    assert e.face_vector == (3, 3, 6)
    # right edge of R2_3: a union of rhombi
    assert embed_at(3, ModuliPoint(0.5, 1.5)).face_vector == (4, 4, 4)
    # top edge of R2_4: four triangles and a hexagon
    e = embed_at(4, ModuliPoint(0.25, boundary_curve(4, 2, 0.25)))
    assert e.face_vector == (3, 3, 3, 3, 6)
    # triangular close packings: all triangles
    assert embed_at(3, ModuliPoint(0.5, SQRT3 / 2)).face_vector == (3,) * 6
    assert embed_at(4, ModuliPoint(0.0, 2 / SQRT3)).face_vector == (3,) * 8


def test_rejects_loops():
    p = Packing(m=ModuliPoint(0, 2), centers=(TorusPoint(0, 0),), radius=0.5)
    g = extract_graph(p)
    with pytest.raises(ValueError):
        embedding_from_packing(g, p.edge_vectors(g))


def test_rejects_edges_out_of_pair_order():
    # edge t of the packing graph must be edge t of its multigraph
    sol = optimal_centers(4, ModuliPoint(0.1, 1.0))
    p = Packing(m=sol.m, centers=sol.centers, radius=sol.radius)
    g = extract_graph(p, tol=1e-9)
    embedding_from_packing(g, p.edge_vectors(g))
    reversed_g = PackingGraph(g.vertex_count, g.edges[::-1])
    with pytest.raises(ValueError, match="vertex-pair order"):
        embedding_from_packing(reversed_g, p.edge_vectors(reversed_g))


def test_matches_enumerated_catalog(catalog4):
    e = embed_at(4, ModuliPoint(0.25, 2.0))  # interior R3_4
    entry = catalog4.by_name("ECG7-1")
    assert e.canonical_form == entry.embedding.canonical_form
