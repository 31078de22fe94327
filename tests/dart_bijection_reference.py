"""Reference for `toruspack.embedding._dart_bijections`: the per-matching
builder it replaced, kept verbatim.

One Python loop over itertools.product of every vertex pair's matchings of
parallel instances, one dart map built per matching; the gather in
`toruspack.embedding` builds the same rows in the same order, which the
test in test_embedding.py asserts.
"""
from __future__ import annotations

import itertools

from toruspack.census import Multigraph


def dart_bijections(g: Multigraph, h: tuple[int, ...], perm) -> list[tuple[int, ...]]:
    """Every dart bijection from g onto the graph with multiplicities h that
    sends each vertex v to perm[v]: one per matching of the parallel
    instances of each vertex pair."""
    src: dict[tuple[int, int], list[int]] = {}
    for k, pair in enumerate(g.edges):
        src.setdefault(pair, []).append(k)
    dst: dict[tuple[int, int], list[int]] = {}
    for k, pair in enumerate(Multigraph(g.vertex_count, h).edges):
        dst.setdefault(pair, []).append(k)
    pair_list = list(src)
    choices = [
        itertools.permutations(dst[tuple(sorted((perm[i], perm[j])))])
        for (i, j) in pair_list
    ]
    out = []
    for combo in itertools.product(*choices):
        dmap = [0] * (2 * g.edge_count)
        for (i, j), targets in zip(pair_list, combo):
            flip = int(perm[i] > perm[j])
            for k, t in zip(src[(i, j)], targets):
                dmap[2 * k], dmap[2 * k + 1] = 2 * t + flip, 2 * t + 1 - flip
        out.append(tuple(dmap))
    return out
