"""Census of candidate packing multigraphs on 3 and 4 vertices.

Stage 1 keeps connected loopless multigraphs with between 2n-1 and 3n
edges; stage 2 additionally bounds every vertex degree (incident edge
ends) to [3, 6]; stage 3 caps pair multiplicities at 2, carving out the
one triple-edge triangle on 3 vertices whose packing is the triangular
close packing.  Graphs are deduplicated by a relabeling-canonical form.
"""
from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import UnsupportedN


def vertex_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


class _MultigraphFields(NamedTuple):
    vertex_count: int
    multiplicities: tuple[int, ...]


class Multigraph(_MultigraphFields):
    """Loopless multigraph held as pair multiplicities in vertex_pairs order.
    No __slots__: canonical_form is cached in the instance dict."""

    @property
    def edge_count(self) -> int:
        return sum(self.multiplicities)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for (i, j), m in zip(vertex_pairs(self.vertex_count), self.multiplicities):
            out.extend([(i, j)] * m)
        return tuple(out)

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return tuple(deg)

    def is_connected(self) -> bool:
        n = self.vertex_count
        adj = {v: set() for v in range(n)}
        for (i, j), m in zip(vertex_pairs(n), self.multiplicities):
            if m:
                adj[i].add(j)
                adj[j].add(i)
        seen, stack = {0}, [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    @cached_property
    def canonical_form(self) -> bytes:
        """The canonicalize form, computed once per graph and kept with it."""
        return canonicalize(self, relabelings(self))


def relabelings(g: Multigraph) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(p, h) for every vertex permutation p, where h is the multiplicity
    tuple of g with each vertex v renamed p[v].

    The one loop over vertex permutations: the smallest h is the canonical
    copy and the p that reach it are the isomorphisms onto it; the p with
    h == g.multiplicities are the automorphisms of g.  Not kept: only the
    census loop and embedding's dart maps (cached per graph) read them.
    """
    n = g.vertex_count
    prs = vertex_pairs(n)
    idx = {p: k for k, p in enumerate(prs)}
    out = []
    for perm in itertools.permutations(range(n)):
        h = [0] * len(prs)
        for (i, j), m in zip(prs, g.multiplicities):
            h[idx[tuple(sorted((perm[i], perm[j])))]] = m
        out.append((perm, tuple(h)))
    return tuple(out)


def canonicalize(g: Multigraph, rel) -> bytes:
    """Relabeling-invariant byte form (minimum over all vertex permutations),
    from g's relabelings rel."""
    return bytes([g.vertex_count]) + bytes(min(h for _, h in rel))


class CensusResult(NamedTuple):
    """Each stage in (edge count, canonical form) order, which the CG
    numbering of ecg reads as it is."""
    n: int
    stage1: tuple[Multigraph, ...]
    stage2: tuple[Multigraph, ...]
    stage3: tuple[Multigraph, ...]

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.stage1), len(self.stage2), len(self.stage3))


def _is_triangular_close_packing_graph(g: Multigraph) -> bool:
    # the single n=3 exception: triple edges between every pair, all degrees 6
    return (
        g.vertex_count == 3
        and all(m == 3 for m in g.multiplicities)
    )


@lru_cache(maxsize=None)
def enumerate_census(n: int) -> CensusResult:
    if n not in (3, 4):
        raise UnsupportedN(f"census is defined for n in {{3, 4}}, got {n}")
    prs = vertex_pairs(n)
    lo, hi = 2 * n - 1, 3 * n
    stage1: dict[bytes, Multigraph] = {}
    stage2: dict[bytes, Multigraph] = {}
    stage3: dict[bytes, Multigraph] = {}
    # relabelings of the classes found: each class keeps its first composition
    reached: set[tuple[int, ...]] = set()
    for total in range(lo, hi + 1):
        for mult in _compositions(total, len(prs)):
            if mult in reached:
                continue
            g = Multigraph(n, mult)
            if not g.is_connected():
                continue
            rel = relabelings(g)
            reached.update(h for _, h in rel)
            # the form from the same loop, kept where cached_property keeps it
            c = g.__dict__["canonical_form"] = canonicalize(g, rel)
            stage1[c] = g
            if not all(3 <= d <= 6 for d in g.degrees()):
                continue
            stage2[c] = g
            if all(m <= 2 for m in mult) or _is_triangular_close_packing_graph(g):
                stage3[c] = g

    def ordered(d: dict[bytes, Multigraph]) -> tuple[Multigraph, ...]:
        return tuple(
            g for _, g in sorted(d.items(), key=lambda kv: (kv[1].edge_count, kv[0]))
        )

    return CensusResult(n, ordered(stage1), ordered(stage2), ordered(stage3))


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def write_census_file(path: str, res: CensusResult) -> None:
    """One canonical form per line with its highest surviving stage."""
    s2 = {g.canonical_form for g in res.stage2}
    s3 = {g.canonical_form for g in res.stage3}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={res.n} counts={res.counts}\n")
        for g in res.stage1:
            c = g.canonical_form
            stage = 3 if c in s3 else (2 if c in s2 else 1)
            fh.write(f"{c.hex()} stage={stage} edges={g.edge_count}\n")
