"""2-cell toroidal embeddings of the census graphs via rotation systems.

Edges carry two darts (2k for i->j, 2k+1 for j->i); a rotation system is the
permutation sending each dart to the next dart out of the same vertex, and
faces are the orbits of d -> rotation[rev(d)].  Enumeration scans every
cyclic-order combination (quotiented at one vertex by its stabilizer),
keeps Euler characteristic zero, and deduplicates up to graph automorphism
and orientation reversal.

Embeddings with a face of length two are excluded by default: a bigon's two
parallel edges would be homotopic, so the two tangency witnesses of an
equal-length realization would coincide.  Table-style counts match the
published census under this convention; pass include_bigons=True for the
unrestricted dedup count.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .census import Multigraph

# A rotation system assigns each vertex a cyclic order of its incident
# edge-ends; it is stored flat, as the permutation mapping every dart to the
# next dart leaving the same vertex.
RotationSystem = tuple[int, ...]

# ---------------------------------------------------------------------------
# dart structure


@dataclass(frozen=True)
class DartStructure:
    edges: tuple[tuple[int, int], ...]
    n: int

    @property
    def count(self) -> int:
        return 2 * len(self.edges)

    def rev(self, d: int) -> int:
        return d ^ 1

    def tail(self, d: int) -> int:
        i, j = self.edges[d // 2]
        return i if d % 2 == 0 else j

    def head(self, d: int) -> int:
        return self.tail(d ^ 1)

    def vertex_darts(self) -> list[list[int]]:
        out = [[] for _ in range(self.n)]
        for k, (i, j) in enumerate(self.edges):
            out[i].append(2 * k)
            out[j].append(2 * k + 1)
        return out


def dart_structure(g: Multigraph) -> DartStructure:
    return DartStructure(edges=g.edges, n=g.vertex_count)


@lru_cache(maxsize=None)
def _dart_automorphisms_cached(n: int, mult: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    g = Multigraph(n, mult)
    ds = dart_structure(g)
    prs = {}
    for k, (i, j) in enumerate(ds.edges):
        prs.setdefault((i, j), []).append(k)
    midx = {p: len(ks) for p, ks in prs.items()}
    auts = []
    for perm in itertools.permutations(range(n)):
        ok = all(
            midx.get(tuple(sorted((perm[i], perm[j]))), 0) == m
            for (i, j), m in midx.items()
        )
        if not ok:
            continue
        pair_list = list(prs)
        choices = [
            itertools.permutations(prs[tuple(sorted((perm[i], perm[j])))])
            for (i, j) in pair_list
        ]
        for combo in itertools.product(*choices):
            dmap = [0] * ds.count
            for (i, j), targets in zip(pair_list, combo):
                flip = perm[i] > perm[j]
                for k, t in zip(prs[(i, j)], targets):
                    dmap[2 * k] = 2 * t + 1 if flip else 2 * t
                    dmap[2 * k + 1] = 2 * t if flip else 2 * t + 1
            auts.append(tuple(dmap))
    return tuple(auts)


def dart_automorphisms(g: Multigraph) -> tuple[tuple[int, ...], ...]:
    """All dart permutations induced by graph automorphisms (including
    permutations of parallel edges)."""
    return _dart_automorphisms_cached(g.vertex_count, g.multiplicities)


# ---------------------------------------------------------------------------
# rotation systems and faces


def trace_faces(g: Multigraph, rotation) -> tuple[tuple[int, ...], ...]:
    """Orbits of d -> rotation[rev(d)], each starting at its smallest dart."""
    ds = dart_structure(g)
    rot = list(rotation)
    seen = [False] * ds.count
    faces = []
    for d0 in range(ds.count):
        if seen[d0]:
            continue
        walk = []
        d = d0
        while not seen[d]:
            seen[d] = True
            walk.append(d)
            d = rot[d ^ 1]
        faces.append(tuple(walk))
    return tuple(faces)


def euler_characteristic(g: Multigraph, faces) -> int:
    return g.vertex_count - g.edge_count + len(faces)


@dataclass(frozen=True)
class EmbeddedGraph:
    graph: Multigraph
    rotation: RotationSystem
    faces: tuple[tuple[int, ...], ...]
    canonical_form: bytes

    @property
    def face_vector(self) -> tuple[int, ...]:
        return tuple(sorted(len(f) for f in self.faces))

    def has_bigon(self) -> bool:
        return any(len(f) < 3 for f in self.faces)


def _sigma_inverse(sig: np.ndarray) -> np.ndarray:
    inv = np.empty_like(sig)
    inv[sig] = np.arange(len(sig))
    return inv


@lru_cache(maxsize=None)
def _canonical_vertex_relabeling_cached(n: int, mult: tuple[int, ...]) -> tuple[int, ...]:
    return canonical_vertex_relabeling(Multigraph(n, mult), _cached=False)


def canonical_vertex_relabeling(g: Multigraph, _cached: bool = True) -> tuple[int, ...]:
    """A vertex permutation carrying g onto its canonically labeled copy."""
    from .census import vertex_pairs

    if _cached:
        return _canonical_vertex_relabeling_cached(g.vertex_count, g.multiplicities)
    n = g.vertex_count
    prs = vertex_pairs(n)
    idx = {p: k for k, p in enumerate(prs)}
    best, best_perm = None, None
    for perm in itertools.permutations(range(n)):
        key = tuple(
            g.multiplicities[idx[tuple(sorted((perm.index(i), perm.index(j))))]]
            for (i, j) in prs
        )
        if best is None or key < best:
            best, best_perm = key, perm
    return best_perm


def instance_slots(pairs, edges) -> list[int]:
    """Index in edges of each vertex pair in pairs, in order: the t-th
    occurrence of a pair in pairs goes to its t-th instance in edges."""
    free: dict[tuple[int, int], list[int]] = {}
    for k in range(len(edges) - 1, -1, -1):
        free.setdefault(edges[k], []).append(k)
    return [free[pair].pop() for pair in pairs]


def relabel_embedding_data(g: Multigraph, rotation, perm) -> tuple[Multigraph, list[int]]:
    """Apply a vertex permutation to (graph, rotation); instances of a pair
    keep their relative order."""
    from .census import vertex_pairs

    n = g.vertex_count
    prs = vertex_pairs(n)
    idx = {p: k for k, p in enumerate(prs)}
    new_mult = [0] * len(prs)
    for (i, j), m in zip(prs, g.multiplicities):
        new_mult[idx[tuple(sorted((perm[i], perm[j])))]] += m
    new_g = Multigraph(n, tuple(new_mult))
    moved = [(perm[i], perm[j]) for i, j in g.edges]
    slots = instance_slots([(min(a, b), max(a, b)) for a, b in moved], new_g.edges)
    dart_map = [0] * (2 * g.edge_count)
    for k, ((a, b), k2) in enumerate(zip(moved, slots)):
        flip = a > b
        dart_map[2 * k] = 2 * k2 + 1 if flip else 2 * k2
        dart_map[2 * k + 1] = 2 * k2 if flip else 2 * k2 + 1
    new_rot = [0] * len(dart_map)
    for d, nd in enumerate(dart_map):
        new_rot[nd] = dart_map[rotation[d]]
    return new_g, new_rot


def canonical_embedding_form(g: Multigraph, rotation) -> bytes:
    """Labeling-invariant byte form of an embedding.

    The graph is first carried onto its canonically labeled copy, then the
    successor map is minimized over that copy's dart automorphisms and over
    orientation reversal.
    """
    perm = canonical_vertex_relabeling(g)
    gc, rot = relabel_embedding_data(g, rotation, perm)
    auts = np.array(dart_automorphisms(gc), dtype=np.int64)
    inv = np.empty_like(auts)
    rows = np.arange(len(auts))[:, None]
    inv[rows, auts] = np.arange(auts.shape[1])[None, :]
    best = None
    sig = np.asarray(rot, dtype=np.int64)
    for s in (sig, _sigma_inverse(sig)):
        conj = auts[rows, s[inv]]  # (P, 2E): a . s . a^-1
        enc = np.ascontiguousarray(conj.astype(np.uint8))
        cand = min(enc[i].tobytes() for i in range(len(enc)))
        if best is None or cand < best:
            best = cand
    return best


def make_embedding(g: Multigraph, rotation) -> EmbeddedGraph:
    faces = trace_faces(g, rotation)
    return EmbeddedGraph(
        graph=g,
        rotation=tuple(int(d) for d in rotation),
        faces=faces,
        canonical_form=canonical_embedding_form(g, rotation),
    )


# ---------------------------------------------------------------------------
# enumeration


def _cyclic_orders(darts: list[int]) -> list[dict[int, int]]:
    d0 = darts[0]
    out = []
    for perm in itertools.permutations(darts[1:]):
        cyc = [d0, *perm]
        out.append({cyc[i]: cyc[(i + 1) % len(cyc)] for i in range(len(cyc))})
    return out


def _order_reps_at_vertex(g: Multigraph, v: int, vdarts, orders):
    """Orbit representatives of the cyclic orders at v under the stabilizer
    of v in the dart automorphism group, together with inversion."""
    dartset = set(vdarts[v])
    stab = [a for a in dart_automorphisms(g) if all(a[d] in dartset for d in dartset)]
    seen: set[tuple] = set()
    reps = []

    def key(succ):
        return tuple(succ[d] for d in sorted(succ))

    for succ in orders:
        if key(succ) in seen:
            continue
        reps.append(succ)
        for a in stab:
            mapped = {a[d]: a[succ[d]] for d in succ}
            seen.add(key(mapped))
            seen.add(key({w: u for u, w in mapped.items()}))
    return reps


def _count_cycles(nxt: np.ndarray) -> np.ndarray:
    """Number of cycles per row of a batch of permutations (pointer doubling)."""
    B, m = nxt.shape
    f = nxt
    lab = np.broadcast_to(np.arange(m, dtype=nxt.dtype), (B, m)).copy()
    step = 1
    while step < m:
        lab = np.minimum(lab, np.take_along_axis(lab, f, axis=1))
        f = np.take_along_axis(f, f, axis=1)
        step *= 2
    lab = np.minimum(lab, np.take_along_axis(lab, f, axis=1))
    return (lab == np.arange(m, dtype=nxt.dtype)).sum(axis=1)


def enumerate_toroidal(
    g: Multigraph,
    include_bigons: bool = False,
    batch: int = 1 << 19,
) -> tuple[EmbeddedGraph, ...]:
    """All distinct unlabeled, unoriented 2-cell embeddings on the torus.

    Scans every rotation system (cyclic orders quotiented at one vertex by
    its stabilizer), keeps chi = 0, drops bigon faces unless requested, and
    deduplicates by the canonical embedding form.
    """
    ds = dart_structure(g)
    vdarts = ds.vertex_darts()
    n = g.vertex_count
    E = g.edge_count
    m = ds.count
    orders = [_cyclic_orders(vd) for vd in vdarts]
    # quotient at the vertex where it saves the most work
    best_q, best_cost = 0, None
    for q in range(n):
        reps = _order_reps_at_vertex(g, q, vdarts, orders[q])
        cost = len(reps) * int(
            np.prod([len(orders[v]) for v in range(n) if v != q], dtype=np.int64)
        )
        if best_cost is None or cost < best_cost:
            best_q, best_cost, best_reps = q, cost, reps
    q = best_q
    choice_lists = [best_reps if v == q else orders[v] for v in range(n)]
    counts = [len(c) for c in choice_lists]
    varrs = [
        np.array([[succ[d] for d in vdarts[v]] for succ in choice_lists[v]], np.int16)
        for v in range(n)
    ]
    rev = (np.arange(m) ^ 1).astype(np.int16)
    total = int(np.prod(counts, dtype=np.int64))
    target_faces = E - n  # chi = 0
    found: dict[bytes, np.ndarray] = {}
    for start in range(0, total, batch):
        idx = np.arange(start, min(start + batch, total), dtype=np.int64)
        B = len(idx)
        sig = np.empty((B, m), np.int16)
        rem = idx
        for v in range(n - 1, -1, -1):
            sel = rem % counts[v]
            rem = rem // counts[v]
            sig[:, vdarts[v]] = varrs[v][sel]
        nxt = sig[:, rev]
        if not include_bigons:
            # bigon <=> some face orbit of length 2
            two = np.take_along_axis(nxt, nxt, axis=1) == np.arange(m, dtype=np.int16)
            keep = ~two.any(axis=1)
            sig = sig[keep]
            nxt = nxt[keep]
            if not len(sig):
                continue
        F = _count_cycles(nxt)
        good = np.nonzero(F == target_faces)[0]
        for k in good:
            row = sig[k].astype(np.int64)
            c = canonical_embedding_form(g, row)
            if c not in found:
                found[c] = row
    return tuple(make_embedding(g, found[c]) for c in sorted(found))


# ---------------------------------------------------------------------------
# homology labels (tree-cotree) and filters


def homology_labels(e: EmbeddedGraph) -> tuple[tuple[int, int], ...]:
    """Integer lattice offsets per edge making every face walk close.

    Tree edges carry (0,0); the two edges outside both the spanning tree and
    the dual spanning tree carry the homology basis (1,0), (0,1); the rest
    are solved from face closure.  The orientation convention: dart 2k adds
    the label, dart 2k+1 subtracts it.
    """
    g = e.graph
    ds = dart_structure(g)
    E = g.edge_count
    adj: dict[int, list[tuple[int, int]]] = {}
    for k, (i, j) in enumerate(ds.edges):
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


@dataclass(frozen=True)
class FilterVerdict:
    keep: bool
    reason: str | None = None
    witness: tuple | None = None


# forbidden corner patterns: exact multiset of face lengths around a vertex
def corner_profiles(e: EmbeddedGraph) -> list[list[int]]:
    ds = dart_structure(e.graph)
    flen = {}
    for f in e.faces:
        for d in f:
            flen[d] = len(f)
    prof: list[list[int]] = [[] for _ in range(e.graph.vertex_count)]
    for d in range(ds.count):
        prof[ds.tail(d)].append(flen[d])
    return [sorted(p) for p in prof]


def forbidden_face_filter(e: EmbeddedGraph) -> FilterVerdict:
    """Eliminate when some vertex is surrounded by a forbidden corner
    pattern (triangle-heavy or overcrowded neighborhoods)."""
    for v, p in enumerate(corner_profiles(e)):
        deg = len(p)
        tri = p.count(3)
        quad = p.count(4)
        pattern = None
        if deg >= 7:
            pattern = "seven or more polygons"
        elif deg == 3:
            if tri >= 2:
                pattern = "two triangles and a polygon"
            elif tri == 1 and quad >= 1:
                pattern = "a triangle, a quadrilateral and a polygon"
            elif quad == 3:
                pattern = "three quadrilaterals"
        elif deg == 4:
            if tri >= 3:
                pattern = "three triangles and a polygon"
            elif tri == 2 and quad == 2:
                pattern = "two triangles and two quadrilaterals"
        elif deg == 5:
            if tri == 5:
                pattern = "five triangles"
            elif tri == 4 and quad == 1:
                pattern = "four triangles and a quadrilateral"
        elif deg == 6:
            if tri < 6:
                pattern = "six polygons with at least one non-triangle"
        if pattern:
            return FilterVerdict(False, pattern, (v, tuple(p)))
    return FilterVerdict(True)


# parallel-chain (rhombus / forced tangency) filter


class _ParityUnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.offset = [0] * n
        self.contradiction = False

    def find(self, x: int) -> tuple[int, int]:
        if self.parent[x] == x:
            return x, 0
        r, p = self.find(self.parent[x])
        self.parent[x] = r
        self.offset[x] ^= p
        return r, self.offset[x]

    def union(self, a: int, b: int, parity: int) -> bool:
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            if pa ^ pb != parity:
                self.contradiction = True
            return False
        self.parent[ra] = rb
        self.offset[ra] = pa ^ pb ^ parity
        return True


def _dart_info(d: int, edges, labels):
    k, s = d // 2, d % 2
    i, j = edges[k]
    a, b = labels[k]
    return (i, j, a, b) if s == 0 else (j, i, -a, -b)


def _chain_test(e: EmbeddedGraph, labels, relations) -> FilterVerdict:
    """Saturating forced-edge test from one set of parallel relations.

    Anti-parallel darts u: A->B and w: C->D with a middle edge B-C force a
    tangency D-A at the displacement closing the quadrilateral; if no edge
    instance carries that displacement the embedding cannot be a packing
    graph.  Forced edges found present join the relation closure.
    """
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
    """Parallel relations, one source per rhombus.

    Quadrilateral faces are rhombi (opposite sides anti-parallel); so is the
    union of two triangle faces sharing exactly one edge.
    """
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


def _congruence_pairs(e: EmbeddedGraph, labels):
    """Pairs of doubled vertex-pairs whose instances differ by the same
    lattice offset (up to sign) -- the congruent-triangle configuration."""
    doubles: dict[tuple[int, int], list[int]] = {}
    for k, (i, j) in enumerate(e.graph.edges):
        doubles.setdefault((i, j), []).append(k)
    items = []
    for p, ks in doubles.items():
        if len(ks) != 2:
            continue
        k1, k2 = ks
        t = (labels[k2][0] - labels[k1][0], labels[k2][1] - labels[k1][1])
        items.append((p, k1, k2, t))
    out = []
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            pa, k1a, k2a, ta = items[a]
            pb, k1b, k2b, tb = items[b]
            if ta == tb:
                out.append((pa, pb, (k1a, k2a), (k1b, k2b)))
            elif ta == (-tb[0], -tb[1]):
                out.append((pa, pb, (k1a, k2a), (k2b, k1b)))
    return out


def _face_spike_pairs(e: EmbeddedGraph):
    """Per face: doubled vertex-pairs traversed by two consecutive darts."""
    edges = e.graph.edges
    out = []
    for f in e.faces:
        s = set()
        for t in range(len(f)):
            k1, k2 = f[t] // 2, f[(t + 1) % len(f)] // 2
            if k1 != k2 and tuple(sorted(edges[k1])) == tuple(sorted(edges[k2])):
                s.add(tuple(sorted(edges[k1])))
        out.append(s)
    return out


def parallel_chain_filter(e: EmbeddedGraph) -> FilterVerdict:
    """Forced-tangency eliminations from rhombus-derived parallels.

    Each rhombus (quadrilateral face, or two triangles glued along an edge)
    is taken as an independent parallel source and saturated through the
    chain rule.  When the embedding carries exactly one congruent-triangle
    configuration and its two doubled pairs spike inside a common face (the
    corner structure exhibits the congruence), the two possible relative
    orientations are case-split; the embedding is eliminated only if both
    branches force a missing edge.  Remaining ambiguous configurations are
    left to the numerical realization stage.
    """
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
