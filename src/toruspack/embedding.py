"""2-cell toroidal embeddings of the census graphs via rotation systems.

Edges carry two darts (2k for i->j, 2k+1 for j->i: packing.vertex_darts);
a rotation system is the permutation sending each dart to the next dart out
of the same vertex, and faces are the orbits of d -> rotation[rev(d)].
Enumeration is a depth-first search over the cyclic orders at each vertex
(quotiented at one vertex by its stabilizer), in place of a scan of every
rotation system; it prunes as soon as Euler characteristic zero is out of
reach and deduplicates up to graph automorphism and orientation reversal.

The search dedupes by orbit: the conjugates phi sigma^+-1 phi^-1 of a
class's first rotation over the dart automorphisms phi.  The form, computed
once per class, is the smallest conjugate over the dart isomorphisms onto
the canonical copy: the vertex permutations census.relabelings finds, each
expanded over every matching of parallel instances.  They are
Aut(canonical copy) . phi_0 for any one phi_0, so the form is invariant.
A graph has at most 24 darts, so a dart map is a byte string, kept as the
`bytes.translate` tables of phi and phi^-1, and a conjugate is three
translates; the module runs on the standard library alone.

Embeddings with a face of length two are excluded by default: a bigon's two
parallel edges would be homotopic, so the two tangency witnesses of an
equal-length realization would coincide.  Table-style counts match the
published census under this convention; pass include_bigons=True for the
unrestricted dedup count.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

from .census import Multigraph, relabelings
from .packing import vertex_darts

# A rotation system assigns each vertex a cyclic order of its incident
# edge-ends; it is stored flat, as the permutation mapping every dart to the
# next dart leaving the same vertex.
RotationSystem = tuple[int, ...]

# ---------------------------------------------------------------------------
# darts


def _dart_bijections(g: Multigraph, h: tuple[int, ...], perm) -> list[bytes]:
    """Every dart bijection from g onto the graph with multiplicities h that
    sends each vertex v to perm[v], one per matching of the parallel
    instances of each vertex pair, in itertools.product's order.  A vertex
    pair's edges are consecutive in g.edges, so its darts are one block."""

    def instances(mult):  # the numbers of each vertex pair's edges
        edges = enumerate(Multigraph(g.vertex_count, mult).edges)
        return {pair: [k for k, _ in ks] for pair, ks in itertools.groupby(edges, lambda e: e[1])}

    dst = instances(h)
    blocks = []
    for i, j in instances(g.multiplicities):
        flip = int(perm[i] > perm[j])
        image = dst[tuple(sorted((perm[i], perm[j])))]
        blocks.append([bytes(x for t in targets for x in (2 * t + flip, 2 * t + 1 - flip))
                       for targets in itertools.permutations(image)])
    return [b"".join(p) for p in itertools.product(*blocks)]


@lru_cache(maxsize=None)
def _dart_maps(g: Multigraph) -> tuple[list[tuple[bytes, bytes]], list[tuple[bytes, bytes]]]:
    """The dart automorphisms of g, and its dart isomorphisms onto the
    canonical copy, each phi as the translate tables of phi and phi^-1."""
    rel = relabelings(g)
    darts = bytes(range(2 * g.edge_count))

    def onto(target):
        return [(bytes.maketrans(darts, phi), bytes.maketrans(phi, darts))
                for perm, h in rel if h == target for phi in _dart_bijections(g, h, perm)]

    return onto(g.multiplicities), onto(min(h for _, h in rel))


def _conjugates(sigma, maps) -> list[bytes]:
    """phi sigma phi^-1 for each (phi, phi^-1) of maps, then phi sigma^-1
    phi^-1 for each.  A dart that sigma leaves unset (255) maps to 255, and
    the tables keep 255 at 255."""
    darts = bytes(range(len(sigma)))
    forward, backward = bytearray(b"\xff" * 256), bytearray(b"\xff" * 256)
    for d, s in enumerate(sigma):
        if s != 255:
            forward[d], backward[s] = s, d
    return [darts.translate(inv).translate(t).translate(phi)
            for t in (forward, backward) for phi, inv in maps]


# ---------------------------------------------------------------------------
# rotation systems and faces


def trace_faces(g: Multigraph, rotation) -> tuple[tuple[int, ...], ...]:
    """Orbits of d -> rotation[rev(d)], each starting at its smallest dart."""
    rot = list(rotation)
    seen = [False] * (2 * g.edge_count)
    faces = []
    for d0 in range(len(seen)):
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


class EmbeddedGraph(NamedTuple):
    graph: Multigraph
    rotation: RotationSystem
    faces: tuple[tuple[int, ...], ...]
    canonical_form: bytes

    @property
    def face_vector(self) -> tuple[int, ...]:
        return tuple(sorted(len(f) for f in self.faces))


def canonical_embedding_form(g: Multigraph, rotation) -> bytes:
    """Labeling-invariant byte form of an embedding.

    The successor map sigma is carried onto g's canonically labeled copy by
    every dart isomorphism phi onto it; the form is the smallest of
    phi sigma phi^-1 and phi sigma^-1 phi^-1 (orientation reversal).
    """
    return min(_conjugates(rotation, _dart_maps(g)[1]))


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
    at_v = set(vdarts[v])
    stab = [(phi, inv) for phi, inv in _dart_maps(g)[0] if all(phi[d] in at_v for d in at_v)]
    seen: set[bytes] = set()
    reps = []
    for succ in orders:
        sig = bytearray(b"\xff" * (2 * g.edge_count))
        for d, s in succ.items():
            sig[d] = s
        if bytes(sig) in seen:
            continue
        reps.append(succ)
        seen.update(_conjugates(sig, stab))
    return reps


def enumerate_toroidal(g: Multigraph, include_bigons: bool = False) -> tuple[EmbeddedGraph, ...]:
    """All distinct unlabeled, unoriented 2-cell embeddings on the torus.

    A depth-first search over each vertex's cyclic orders, vertex 0 first
    and dart by dart, in the order a scan of every rotation system takes.
    Setting sigma[x] = y closes a face or extends an open chain of
    phi(d) = sigma[d ^ 1].  With E - n faces needed (chi = 0) and
    short = 3 (2 with include_bigons), a partial rotation is dropped when
      - a face closes with fewer than short darts;
      - the faces still needed are none while darts are open, or more than
        the unset darts or than open darts // short;
      - an open chain is longer than the open darts less short darts per
        other face still needed.
    The first rotation found of each class is kept: a leaf outside the
    orbits reached so far starts a class, and its orbit joins them.
    """
    vdarts = vertex_darts(g.edges, g.vertex_count)
    n = g.vertex_count
    choices = [_cyclic_orders(vd) for vd in vdarts]
    reps = [_order_reps_at_vertex(g, v, vdarts, choices[v]) for v in range(n)]
    total = math.prod(map(len, choices))
    q = min(range(n), key=lambda v: len(reps[v]) * total // len(choices[v]))
    choices[q] = reps[q]  # quotient where it saves the most work
    # one prefix tree of (dart, successor) pairs over all orders; the last
    # pair at vertex v leads to the orders at v + 1, or to None at the end
    tree = None
    for orders in reversed(choices):
        root: dict = {}
        for succ in orders:
            *pairs, last = succ.items()
            node = root
            for pair in pairs:
                node = node.setdefault(pair, {})
            node[last] = tree
        tree = root
    need = g.edge_count - n  # faces at chi = 0
    short = 2 if include_bigons else 3
    sigma = [-1] * (2 * g.edge_count)
    back = list(sigma)  # back[sigma[x]] = x
    reached: set[bytes] = set()
    found: list[list[int]] = []

    def place(x, y, closed, free, unset):
        """Set sigma[x] = y: the new (closed, open, unset) counts, or None."""
        sigma[x], back[y] = y, x
        unset -= 1
        a, d, length = x ^ 1, y, 1
        while d != a and sigma[d ^ 1] >= 0:
            d = sigma[d ^ 1]
            length += 1
        if d == a:  # phi(a) = y closes a face
            if length < short:
                return None
            closed, free = closed + 1, free - length
        else:
            d, length = a, length + 1  # a, then back to its chain's start
            while back[d] >= 0:
                d = back[d] ^ 1
                length += 1
            if length > free - short * (need - closed - 1):
                return None
        if not min(free, 1) <= need - closed <= min(unset, free // short):
            return None
        return closed, free, unset

    def search(node, state):
        for (x, y), child in node.items():
            after = place(x, y, *state)
            if after and child is None:
                if bytes(sigma) not in reached:
                    found.append(list(sigma))
                    reached.update(_conjugates(sigma, _dart_maps(g)[0]))
            elif after:
                search(child, after)
            sigma[x] = back[y] = -1

    search(tree, (0, len(sigma), len(sigma)))
    return tuple(sorted((make_embedding(g, s) for s in found), key=lambda e: e.canonical_form))


# ---------------------------------------------------------------------------
# homology labels (tree-cotree) and filters


def _face_of(e: EmbeddedGraph) -> list[int]:
    """The index in e.faces of each dart's face."""
    face_of = [0] * (2 * e.graph.edge_count)
    for fi, f in enumerate(e.faces):
        for d in f:
            face_of[d] = fi
    return face_of


def homology_labels(e: EmbeddedGraph) -> tuple[tuple[int, int], ...]:
    """Integer lattice offsets per edge making every face walk close.

    Tree edges carry (0,0); the two edges outside both the spanning tree and
    the dual spanning tree carry the homology basis (1,0), (0,1); the rest
    are solved from face closure.  The orientation convention: dart 2k adds
    the label, dart 2k+1 subtracts it.
    """
    g = e.graph
    E = g.edge_count
    vdarts = vertex_darts(g.edges, g.vertex_count)
    tree: set[int] = set()
    seen = {0}
    frontier = [0]
    while frontier:
        for d in vdarts[frontier.pop(0)]:
            w = g.edges[d // 2][1 - d % 2]  # the head of d
            if w not in seen:
                seen.add(w)
                tree.add(d // 2)
                frontier.append(w)
    face_of = _face_of(e)
    # the dual tree: each cotree edge with the dart that brought its face in
    grown: list[tuple[int, int]] = []
    dual_seen = {0}
    nontree = [k for k in range(E) if k not in tree]
    changed = True
    while changed:
        changed = False
        for k in nontree:
            f1, f2 = face_of[2 * k], face_of[2 * k + 1]
            if (f1 in dual_seen) ^ (f2 in dual_seen):
                d = 2 * k + (f1 in dual_seen)
                grown.append((k, d))
                dual_seen.add(face_of[d])
                changed = True
    cotree = {k for k, _ in grown}
    leftover = [k for k in nontree if k not in cotree]
    if len(leftover) != 2:
        raise ValueError("embedding is not a 2-cell torus embedding")
    lab = [(0, 0)] * E
    lab[leftover[0]] = (1, 0)
    lab[leftover[1]] = (0, 1)

    def closure(f):
        sa = sb = 0
        for d in f:
            a, b = lab[d // 2]
            s = 1 if d % 2 == 0 else -1
            sa += s * a
            sb += s * b
        return sa, sb

    # a face's other cotree edges bring in faces grown after it, so in
    # reverse order each face's one unknown is its own edge (still (0, 0))
    for k, d in reversed(grown):
        sa, sb = closure(e.faces[face_of[d]])
        lab[k] = (-sa, -sb) if d % 2 == 0 else (sa, sb)
    if any(any(closure(f)) for f in e.faces):
        raise AssertionError("face closure violated")
    return tuple(lab)


class FilterVerdict(NamedTuple):
    keep: bool
    reason: str | None = None
    witness: tuple | None = None


# forbidden corner patterns: exact multiset of face lengths around a vertex
def corner_profiles(e: EmbeddedGraph) -> list[list[int]]:
    g = e.graph
    flen = [len(e.faces[f]) for f in _face_of(e)]
    return [sorted(flen[d] for d in darts) for darts in vertex_darts(g.edges, g.vertex_count)]


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


def _signed_darts(e: EmbeddedGraph, labels):
    """Per dart (tail, head, a, b), its label (a, b) signed by direction, and
    the darts with their labels listed by (tail, head)."""
    darts = []
    for (i, j), (a, b) in zip(e.graph.edges, labels):
        darts += [(i, j, a, b), (j, i, -a, -b)]
    inst: dict[tuple[int, int], list[tuple[int, tuple[int, int]]]] = {}
    for d, (t, h, a, b) in enumerate(darts):
        inst.setdefault((t, h), []).append((d, (a, b)))
    return darts, inst


def _chain_test(darts, inst, relations) -> FilterVerdict:
    """Saturating forced-edge test from one set of parallel relations.

    Anti-parallel darts u: A->B and w: C->D with a middle edge B-C force a
    tangency D-A at the displacement closing the quadrilateral; if no edge
    instance carries that displacement the embedding cannot be a packing
    graph.  Forced edges found present join the relation closure.
    """
    uf = _ParityUnionFind(len(darts))
    for d in range(len(darts)):
        uf.union(d, d ^ 1, 1)
    for a, b, p in relations:
        uf.union(a, b, p)
    if uf.contradiction:
        return FilterVerdict(False, "parity contradiction")
    while True:
        grew = False
        for u, (tu, hu, au, bu) in enumerate(darts):
            for w in range(len(darts)):
                if w in (u, u ^ 1):
                    continue
                # a union below can move u's root, so find it again for each w
                ru, pu = uf.find(u)
                rw, pw = uf.find(w)
                if ru != rw or (pu ^ pw) != 1:
                    continue
                tw, hw, aw, bw = darts[w]
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
    face_of = _face_of(e)
    handled = set()
    for f in e.faces:
        for pos, d in enumerate(f):
            gface = e.faces[face_of[d ^ 1]]
            if len(f) != 3 or len(gface) != 3 or gface == f:
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
    darts, inst = _signed_darts(e, labels)
    for source in _rhombus_sources(e):
        verdict = _chain_test(darts, inst, source)
        if not verdict.keep:
            return FilterVerdict(False, "chain: " + (verdict.reason or ""), verdict.witness)
    cps = _congruence_pairs(e, labels)
    if len(cps) == 1:
        pa, pb, (k1a, k2a), (k1b, k2b) = cps[0]
        spikes = _face_spike_pairs(e)
        if any(pa in s and pb in s for s in spikes):
            branch_same = [(2 * k1a, 2 * k1b, 0), (2 * k2a, 2 * k2b, 0)]
            branch_refl = [(2 * k1a, 2 * k2b, 1), (2 * k2a, 2 * k1b, 1)]
            verdicts = [_chain_test(darts, inst, br) for br in (branch_same, branch_refl)]
            if all(not v.keep for v in verdicts):
                return FilterVerdict(
                    False,
                    "congruence split: both orientations force a missing edge",
                    (pa, pb),
                )
    return FilterVerdict(True)
