"""Reference for `toruspack.embedding.enumerate_toroidal`: the rotation-system
scan it replaced, kept verbatim.

Every rotation system (cyclic orders quotiented at one vertex by its
stabilizer) is decoded in numpy batches and its faces are counted by pointer
doubling.  The search in `toruspack.embedding` visits the same rotations in
the same order and prunes the ones that cannot reach Euler characteristic 0;
the property test in test_embedding.py asserts that both give identical
embeddings.

The vertex quotient, the canonical form and the dedup are the scan's own:
per-order dicts for the quotient, conjugation on plain lists for the form,
and a form at every chi = 0 rotation, independent of the conjugation kernel
that the search uses for all three.  So are the dart maps: the automorphisms
and the isomorphisms onto the canonical copy are built by the per-matching
reference (dart_bijection_reference.py) over census.relabelings, not by the
package's `_dart_maps`.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from dart_bijection_reference import dart_bijections
from toruspack.census import Multigraph, relabelings
from toruspack.embedding import EmbeddedGraph, _cyclic_orders, trace_faces
from toruspack.packing import vertex_darts


@lru_cache(maxsize=None)
def dart_maps(g: Multigraph) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The dart automorphisms of g, and its dart isomorphisms onto the
    canonical copy, one tuple per dart map."""
    rel = relabelings(g)

    def onto(target):
        return [phi for perm, h in rel if h == target for phi in dart_bijections(g, h, perm)]

    return onto(g.multiplicities), onto(min(h for _, h in rel))


def conjugate(phi, sigma) -> list[int]:
    """phi sigma phi^-1 of a full successor map sigma, as a list."""
    out = [0] * len(sigma)
    for d, s in enumerate(sigma):
        out[phi[d]] = phi[s]
    return out


def inverse(sigma) -> list[int]:
    out = [0] * len(sigma)
    for d, s in enumerate(sigma):
        out[s] = d
    return out


def _order_reps_at_vertex(g: Multigraph, v: int, vdarts, orders):
    """Orbit representatives of the cyclic orders at v under the stabilizer
    of v in the dart automorphism group, together with inversion."""
    dartset = set(vdarts[v])
    darts = sorted(dartset)  # the keys of every order at v, mapped or not
    stab = [a for a in dart_maps(g)[0] if all(a[d] in dartset for d in dartset)]
    seen: set[tuple] = set()
    reps = []

    def key(succ):
        return tuple(succ[d] for d in darts)

    for succ in orders:
        if key(succ) in seen:
            continue
        reps.append(succ)
        for a in stab:
            mapped = {a[d]: a[succ[d]] for d in succ}
            seen.add(key(mapped))
            seen.add(key({w: u for u, w in mapped.items()}))
    return reps


def canonical_embedding_form(g: Multigraph, rotation) -> bytes:
    """The smallest of phi sigma phi^-1 and phi sigma^-1 phi^-1 over the
    dart isomorphisms phi onto g's canonical copy."""
    sigma = [int(d) for d in rotation]
    both = (sigma, inverse(sigma))
    return min(bytes(conjugate(phi, s)) for phi in dart_maps(g)[1] for s in both)


def make_embedding(g: Multigraph, rotation) -> EmbeddedGraph:
    faces = trace_faces(g, rotation)
    return EmbeddedGraph(
        graph=g,
        rotation=tuple(int(d) for d in rotation),
        faces=faces,
        canonical_form=canonical_embedding_form(g, rotation),
    )


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


# rotation systems decoded and scanned per numpy batch
SCAN_BATCH = 1 << 19


def enumerate_toroidal(g: Multigraph, include_bigons: bool = False) -> tuple[EmbeddedGraph, ...]:
    """All distinct unlabeled, unoriented 2-cell embeddings on the torus.

    Scans every rotation system (cyclic orders quotiented at one vertex by
    its stabilizer), keeps chi = 0, drops bigon faces unless requested, and
    deduplicates by the canonical embedding form.
    """
    vdarts = vertex_darts(g.edges, g.vertex_count)
    n = g.vertex_count
    E = g.edge_count
    m = 2 * g.edge_count
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
    for start in range(0, total, SCAN_BATCH):
        idx = np.arange(start, min(start + SCAN_BATCH, total), dtype=np.int64)
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
