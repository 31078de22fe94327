"""Recover the abstract toroidal embedding of a geometric packing.

The rotation system is read off the tangency directions at each circle;
the result is comparable (via canonical forms) with the combinatorially
enumerated embeddings.
"""
from __future__ import annotations

import numpy as np

from .census import Multigraph, vertex_pairs
from .embedding import EmbeddedGraph, euler_characteristic, instance_slots, make_embedding
from .errors import NoTorusEmbedding
from .packing import Packing, PackingGraph


def embedding_from_packing(p: Packing, g: PackingGraph) -> EmbeddedGraph:
    """EmbeddedGraph carried by the packing's straight-segment drawing.

    Loops are not supported (self-tangent packings are handled analytically
    elsewhere); raises NoTorusEmbedding on loops or non-2-cell drawings.
    """
    if any(i == j for i, j, _ in g.edges):
        raise NoTorusEmbedding("loop edges have no rotation-system embedding here")
    n = g.vertex_count
    mult = [0] * len(vertex_pairs(n))
    pair_index = {pr: k for k, pr in enumerate(vertex_pairs(n))}
    for i, j, _ in g.edges:
        mult[pair_index[(i, j)]] += 1
    mg = Multigraph(n, tuple(mult))
    # instance order within a pair follows the packing graph's edge order
    abstract_edges = list(mg.edges)
    slots = instance_slots([(i, j) for i, j, _ in g.edges], abstract_edges)
    dart_vec: dict[int, np.ndarray] = {}
    for k, vec in zip(slots, p.edge_vectors(g)):
        dart_vec[2 * k] = vec
        dart_vec[2 * k + 1] = -vec
    # rotation: counterclockwise angular order at each vertex
    rotation = [0] * (2 * len(abstract_edges))
    for v in range(n):
        darts = [
            2 * k if abstract_edges[k][0] == v else 2 * k + 1
            for k in range(len(abstract_edges))
            if v in abstract_edges[k]
        ]
        ang = {d: float(np.arctan2(dart_vec[d][1], dart_vec[d][0])) for d in darts}
        order = sorted(darts, key=lambda d: ang[d])
        for t, d in enumerate(order):
            rotation[d] = order[(t + 1) % len(order)]
    emb = make_embedding(mg, rotation)
    if euler_characteristic(mg, emb.faces) != 0:
        raise NoTorusEmbedding("packing drawing is not a 2-cell torus embedding")
    return emb
