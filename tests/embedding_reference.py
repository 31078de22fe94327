"""Reference for the face readings of `toruspack.embedding`: the homology
labelling, corner profiles and parallel-chain filter they replaced, kept
verbatim.

Each builds its own dart -> face map; the labels come from a fixpoint that
rescans every face until one unknown cotree edge is left in it, and the
chain test decodes every dart it visits through `_dart_info`.  The test in
test_embedding.py asserts that the package gives the same labels, profiles
and verdicts on every embedding of n = 3 and 4, with and without bigons.
"""
from __future__ import annotations

from toruspack.embedding import (
    EmbeddedGraph,
    FilterVerdict,
    _congruence_pairs,
    _face_spike_pairs,
    _ParityUnionFind,
)
from toruspack.packing import vertex_darts


def homology_labels(e: EmbeddedGraph) -> tuple[tuple[int, int], ...]:
    g = e.graph
    E = g.edge_count
    adj: dict[int, list[tuple[int, int]]] = {}
    for k, (i, j) in enumerate(g.edges):
        adj.setdefault(i, []).append((j, k))
        adj.setdefault(j, []).append((i, k))
    tree: set[int] = set()
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop(0)
        for w, k in adj[v]:
            if w not in seen:
                seen.add(w)
                tree.add(k)
                frontier.append(w)
    dart_face = {}
    for fi, f in enumerate(e.faces):
        for d in f:
            dart_face[d] = fi
    cotree: set[int] = set()
    dual_seen = {0}
    nontree = [k for k in range(E) if k not in tree]
    changed = True
    while changed:
        changed = False
        for k in nontree:
            if k in cotree:
                continue
            f1, f2 = dart_face[2 * k], dart_face[2 * k + 1]
            if (f1 in dual_seen) ^ (f2 in dual_seen):
                cotree.add(k)
                dual_seen.update((f1, f2))
                changed = True
    leftover = [k for k in nontree if k not in cotree]
    if len(leftover) != 2:
        raise ValueError("embedding is not a 2-cell torus embedding")
    lab = {k: (0, 0) for k in range(E)}
    lab[leftover[0]] = (1, 0)
    lab[leftover[1]] = (0, 1)
    unknown = set(cotree)
    while unknown:
        progressed = False
        for f in e.faces:
            unk = [d for d in f if d // 2 in unknown]
            if len(unk) != 1:
                continue
            sa = sb = 0
            for d in f:
                if d // 2 in unknown:
                    continue
                a, b = lab[d // 2]
                s = 1 if d % 2 == 0 else -1
                sa += s * a
                sb += s * b
            d = unk[0]
            lab[d // 2] = (-sa, -sb) if d % 2 == 0 else (sa, sb)
            unknown.discard(d // 2)
            progressed = True
        if not progressed:
            raise ValueError("face closure did not determine all labels")
    for f in e.faces:
        sa = sb = 0
        for d in f:
            a, b = lab[d // 2]
            s = 1 if d % 2 == 0 else -1
            sa += s * a
            sb += s * b
        if sa or sb:
            raise AssertionError("face closure violated")
    return tuple(lab[k] for k in range(E))


def corner_profiles(e: EmbeddedGraph) -> list[list[int]]:
    flen = {}
    for f in e.faces:
        for d in f:
            flen[d] = len(f)
    g = e.graph
    return [sorted(flen[d] for d in darts) for darts in vertex_darts(g.edges, g.vertex_count)]


def _dart_info(d: int, edges, labels):
    k, s = d // 2, d % 2
    i, j = edges[k]
    a, b = labels[k]
    return (i, j, a, b) if s == 0 else (j, i, -a, -b)


def _chain_test(e: EmbeddedGraph, labels, relations) -> FilterVerdict:
    edges = e.graph.edges
    E = len(edges)
    uf = _ParityUnionFind(2 * E)
    for d in range(2 * E):
        uf.union(d, d ^ 1, 1)
    for a, b, p in relations:
        uf.union(a, b, p)
    if uf.contradiction:
        return FilterVerdict(False, "parity contradiction")
    inst: dict[tuple[int, int], list[tuple[int, tuple[int, int]]]] = {}
    for d in range(2 * E):
        t, h, a, b = _dart_info(d, edges, labels)
        inst.setdefault((t, h), []).append((d, (a, b)))
    while True:
        grew = False
        for u in range(2 * E):
            tu, hu, au, bu = _dart_info(u, edges, labels)
            for w in range(2 * E):
                if w in (u, u ^ 1):
                    continue
                ru, pu = uf.find(u)
                rw, pw = uf.find(w)
                if ru != rw or (pu ^ pw) != 1:
                    continue
                tw, hw, aw, bw = _dart_info(w, edges, labels)
                for mdart, (am, bm) in inst.get((hu, tw), []):
                    if mdart in (u, u ^ 1, w, w ^ 1):
                        continue
                    req = (-(au + am + aw), -(bu + bm + bw))
                    hit = [d for d, lab in inst.get((hw, tu), []) if lab == req]
                    if not hit:
                        return FilterVerdict(
                            False, "forced edge missing", (u, mdart, w, req)
                        )
                    if uf.union(hit[0], mdart, 1):
                        grew = True
                    if uf.contradiction:
                        return FilterVerdict(False, "parity contradiction")
        if not grew:
            return FilterVerdict(True)


def _rhombus_sources(e: EmbeddedGraph):
    sources = []
    for f in e.faces:
        if len(f) == 4:
            sources.append([(f[0], f[2], 1), (f[1], f[3], 1)])
    tri = [f for f in e.faces if len(f) == 3]
    owner = {}
    for f in tri:
        for d in f:
            owner[d] = f
    handled = set()
    for f in tri:
        for pos, d in enumerate(f):
            gface = owner.get(d ^ 1)
            if gface is None or id(gface) == id(f):
                continue
            shared = {x // 2 for x in f} & {x // 2 for x in gface}
            if len(shared) != 1 or min(d, d ^ 1) in handled:
                continue
            handled.add(min(d, d ^ 1))
            qos = gface.index(d ^ 1)
            b1, c1 = f[(pos + 1) % 3], f[(pos + 2) % 3]
            b2, c2 = gface[(qos + 1) % 3], gface[(qos + 2) % 3]
            sources.append([(b1, b2, 1), (c1, c2, 1)])
    return sources


def parallel_chain_filter(e: EmbeddedGraph) -> FilterVerdict:
    labels = homology_labels(e)
    for source in _rhombus_sources(e):
        verdict = _chain_test(e, labels, source)
        if not verdict.keep:
            return FilterVerdict(False, "chain: " + (verdict.reason or ""), verdict.witness)
    cps = _congruence_pairs(e, labels)
    if len(cps) == 1:
        pa, pb, (k1a, k2a), (k1b, k2b) = cps[0]
        spikes = _face_spike_pairs(e)
        if any(pa in s and pb in s for s in spikes):
            branch_same = [(2 * k1a, 2 * k1b, 0), (2 * k2a, 2 * k2b, 0)]
            branch_refl = [(2 * k1a, 2 * k2b, 1), (2 * k2a, 2 * k1b, 1)]
            verdicts = [_chain_test(e, labels, br) for br in (branch_same, branch_refl)]
            if all(not v.keep for v in verdicts):
                return FilterVerdict(
                    False,
                    "congruence split: both orientations force a missing edge",
                    (pa, pb),
                )
    return FilterVerdict(True)
