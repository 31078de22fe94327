"""Recover the abstract toroidal embedding of a geometric packing.

The rotation system is read off the tangency directions at each circle:
its darts, sorted counterclockwise by the angles of their vectors.  Edge t
of the packing graph is edge t of the multigraph, since both list edges by
vertex pair; the result is comparable (via canonical forms) with the
combinatorially enumerated embeddings.
"""
from __future__ import annotations

from .census import Multigraph, vertex_pairs
from .embedding import EmbeddedGraph, euler_characteristic, make_embedding
from .errors import NoTorusEmbedding
from .packing import PackingGraph, dart_angles


def embedding_from_packing(g: PackingGraph, vectors) -> EmbeddedGraph:
    """EmbeddedGraph carried by a packing's straight-segment drawing: its
    graph g and the edge vectors of g (packing.contacts).

    Loops are not supported (self-tangent packings are handled analytically
    elsewhere); raises NoTorusEmbedding on loops or non-2-cell drawings, and
    ValueError when g's edges are not in extract_graph's order.
    """
    if any(i == j for i, j, _ in g.edges):
        raise NoTorusEmbedding("loop edges have no rotation-system embedding here")
    n = g.vertex_count
    pairs = tuple((i, j) for i, j, _ in g.edges)
    mg = Multigraph(n, tuple(map(pairs.count, vertex_pairs(n))))
    if pairs != mg.edges:
        raise ValueError("packing graph edges are not in vertex-pair order")
    # rotation: counterclockwise angular order at each vertex.  Tangent
    # neighbours of a circle are at least 60 degrees apart, so no order
    # rests on the last bits of an angle
    rotation = [0] * (2 * len(pairs))
    for darts in dart_angles(g, vectors):
        order = [d for _, d in darts]
        for d, succ in zip(order, order[1:] + order[:1]):
            rotation[d] = succ
    emb = make_embedding(mg, rotation)
    if euler_characteristic(mg, emb.faces) != 0:
        raise NoTorusEmbedding("packing drawing is not a 2-cell torus embedding")
    return emb
