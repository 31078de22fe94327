import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dart_bijection_reference
import embedding_reference
import rotation_scan_reference as reference

from toruspack import embedding
from toruspack.census import Multigraph, enumerate_census, relabelings, vertex_pairs
from toruspack.embedding import (
    canonical_embedding_form,
    enumerate_toroidal,
    euler_characteristic,
    forbidden_face_filter,
    homology_labels,
    parallel_chain_filter,
    trace_faces,
)

THETA = Multigraph(2, (3,))  # two vertices, three parallel edges


class TestFaceTracing:
    def test_theta_planar(self):
        # rotation (0,2,4) at one vertex, (1,3,5) reversed at the other
        rot = [2, 5, 4, 1, 0, 3]
        faces = trace_faces(THETA, rot)
        assert len(faces) == 3
        assert euler_characteristic(THETA, faces) == 2

    def test_theta_toroidal(self):
        rot = [2, 3, 4, 5, 0, 1]
        faces = trace_faces(THETA, rot)
        assert len(faces) == 1
        assert euler_characteristic(THETA, faces) == 0

    def test_face_lengths_sum(self):
        rng = np.random.default_rng(73)
        for g in enumerate_census(3).stage3:
            for e in enumerate_toroidal(g):
                assert sum(len(f) for f in e.faces) == 2 * g.edge_count

    def test_chi_even_and_bounded(self):
        import itertools

        # all rotation systems of the theta graph
        for p0 in itertools.permutations([2, 4]):
            for p1 in itertools.permutations([3, 5]):
                cyc0 = [0, *p0]
                cyc1 = [1, *p1]
                rot = [0] * 6
                for c in (cyc0, cyc1):
                    for i, d in enumerate(c):
                        rot[d] = c[(i + 1) % len(c)]
                chi = euler_characteristic(THETA, trace_faces(THETA, rot))
                assert chi <= 2 and chi % 2 == 0


def _relabeled(g: Multigraph, rotation, perm, instance_order, reverse):
    """Reference relabeling of an embedding: vertex v becomes perm[v], the
    t-th instance of a pair of g goes to instance instance_order[pair][t] of
    its image pair, and reverse inverts the successor map."""
    prs = vertex_pairs(g.vertex_count)
    mult = [0] * len(prs)
    for (i, j), m in zip(prs, g.multiplicities):
        mult[prs.index(tuple(sorted((perm[i], perm[j]))))] = m
    h = Multigraph(g.vertex_count, tuple(mult))
    slots: dict[tuple[int, int], list[int]] = {}
    for k, pair in enumerate(h.edges):
        slots.setdefault(pair, []).append(k)
    used: dict[tuple[int, int], int] = {}
    dart_map = [0] * (2 * g.edge_count)
    for k, (i, j) in enumerate(g.edges):
        t = used[(i, j)] = used.get((i, j), -1) + 1
        image = tuple(sorted((perm[i], perm[j])))
        k2 = slots[image][instance_order[image][t]]
        flip = int(perm[i] > perm[j])
        dart_map[2 * k], dart_map[2 * k + 1] = 2 * k2 + flip, 2 * k2 + 1 - flip
    sig = list(rotation)
    if reverse:
        sig = [sig.index(d) for d in range(len(sig))]
    new_rot = [0] * len(sig)
    for d, nd in enumerate(dart_map):
        new_rot[nd] = dart_map[sig[d]]
    return h, new_rot


@st.composite
def _relabelings(draw, g: Multigraph):
    perm = draw(st.permutations(range(g.vertex_count)))
    order = {}
    for pair, m in zip(vertex_pairs(g.vertex_count), g.multiplicities):
        image = tuple(sorted((perm[pair[0]], perm[pair[1]])))
        order[image] = draw(st.permutations(range(m)))
    return perm, order, draw(st.booleans())


class TestEnumeration:
    def test_theta_single_toroidal_embedding(self):
        assert len(enumerate_toroidal(THETA)) == 1

    def test_counts_three_vertices(self):
        per_graph = [len(enumerate_toroidal(g)) for g in enumerate_census(3).stage3]
        assert sum(per_graph) == 6
        assert sorted(per_graph) == [1, 2, 3]

    def test_unrestricted_dedup_differs(self):
        # with bigon faces allowed the three-vertex classes grow to 36
        total = sum(
            len(enumerate_toroidal(g, include_bigons=True))
            for g in enumerate_census(3).stage3
        )
        assert total == 36

    def test_unrestricted_count_four_vertices(self):
        total = sum(
            len(enumerate_toroidal(g, include_bigons=True))
            for g in enumerate_census(4).stage3
        )
        assert total == 914

    def test_one_form_per_class(self, monkeypatch):
        calls = []

        def counted(g, rotation):
            calls.append(g)
            return canonical_embedding_form(g, rotation)

        monkeypatch.setattr(embedding, "canonical_embedding_form", counted)
        found = [e for g in enumerate_census(3).stage3 for e in enumerate_toroidal(g)]
        assert len(calls) == len(found) == 6

    def test_orbit_sizes_divide_group_order(self):
        for g in enumerate_census(3).stage3:
            auts = reference.dart_maps(g)[0]
            group = 2 * len(auts)  # reflection doubles the group
            for e in enumerate_toroidal(g):
                both = (e.rotation, reference.inverse(e.rotation))
                orbit = {tuple(reference.conjugate(a, s)) for a in auts for s in both}
                assert group % len(orbit) == 0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_canonical_form_invariant_under_relabeling(self, catalog3, catalog4, data):
        """Relabeling vertices, reordering parallel instances and reversing
        the orientation keep an embedding's form; distinct embeddings of one
        graph keep distinct forms."""
        embeddings = [entry.embedding for entry in catalog3.entries + catalog4.entries]
        e = data.draw(st.sampled_from(embeddings))
        e2 = data.draw(st.sampled_from([f for f in embeddings if f.graph == e.graph]))
        forms = []
        for x in (e, e2):
            relabeled = _relabeled(x.graph, x.rotation, *data.draw(_relabelings(x.graph)))
            forms.append(canonical_embedding_form(*relabeled))
        assert forms[0] == e.canonical_form
        assert (forms[0] == forms[1]) == (e2 == e)


class TestFilters:
    def test_forbidden_pattern_example(self):
        # corner multiset (3,3,5) at a vertex is pattern 1
        for g in enumerate_census(3).stage3:
            for e in enumerate_toroidal(g, include_bigons=True):
                from toruspack.embedding import corner_profiles

                for p in corner_profiles(e):
                    if sorted(p) == [3, 3, 5]:
                        assert not forbidden_face_filter(e).keep

    def test_filter_counts_three(self):
        kept_forbidden = 0
        kept_both = 0
        for g in enumerate_census(3).stage3:
            for e in enumerate_toroidal(g):
                if forbidden_face_filter(e).keep:
                    kept_forbidden += 1
                    if parallel_chain_filter(e).keep:
                        kept_both += 1
        assert kept_forbidden == 6
        assert kept_both == 6

    @pytest.mark.parametrize("relations", [[(0, 1, 0)], [(0, 2, 0), (1, 2, 0)]])
    def test_chain_parity_contradiction(self, relations):
        # relations that hold a dart parallel to its own reverse contradict
        # the reversal parity; no rhombus of an n = 3 or 4 embedding does
        for g in enumerate_census(3).stage3:
            for e in enumerate_toroidal(g):
                labels = homology_labels(e)
                got = embedding._chain_test(*embedding._signed_darts(e, labels), relations)
                assert got == embedding_reference._chain_test(e, labels, relations)
                assert got == embedding.FilterVerdict(False, "parity contradiction")

    def test_filter_order_independent(self):
        for g in enumerate_census(3).stage3 + enumerate_census(4).stage3[:4]:
            for e in enumerate_toroidal(g):
                a = forbidden_face_filter(e).keep and parallel_chain_filter(e).keep
                b = parallel_chain_filter(e).keep and forbidden_face_filter(e).keep
                assert a == b


class TestHomology:
    def test_labels_close_faces(self):
        for g in enumerate_census(3).stage3:
            for e in enumerate_toroidal(g):
                labels = homology_labels(e)
                for f in e.faces:
                    sa = sb = 0
                    for d in f:
                        a, b = labels[d // 2]
                        s = 1 if d % 2 == 0 else -1
                        sa += s * a
                        sb += s * b
                    assert (sa, sb) == (0, 0)

    def test_labels_span_homology(self):
        # the label matrix of the cycle space must have full rank 2
        for g in enumerate_census(3).stage3:
            for e in enumerate_toroidal(g):
                labels = np.array(homology_labels(e))
                assert np.linalg.matrix_rank(labels) == 2


def test_face_readings_match_reference(monkeypatch):
    """Labels, corner profiles and both filters' verdicts (keep, reason,
    witness) equal those of the readings they replaced
    (embedding_reference.py) on every embedding of n = 3 and 4, with and
    without bigons."""
    embeddings = [
        e
        for n in (3, 4)
        for g in enumerate_census(n).stage3
        for include_bigons in (False, True)
        for e in enumerate_toroidal(g, include_bigons)
    ]
    assert len(embeddings) == 6 + 36 + 97 + 914

    def readings(ref):
        return [
            (ref.homology_labels(e), ref.corner_profiles(e), forbidden_face_filter(e),
             ref.parallel_chain_filter(e))
            for e in embeddings
        ]

    got = readings(embedding)
    # forbidden_face_filter reads the profiles through the module global
    monkeypatch.setattr(embedding, "corner_profiles", embedding_reference.corner_profiles)
    assert got == readings(embedding_reference)


def _small_multigraphs() -> list[Multigraph]:
    """Connected multigraphs on 2-4 vertices with pair multiplicities up to
    3 and every degree in 1..5."""
    out = []
    for n in (2, 3, 4):
        for mult in itertools.product(range(4), repeat=len(vertex_pairs(n))):
            g = Multigraph(n, mult)
            if g.is_connected() and all(1 <= d <= 5 for d in g.degrees()):
                out.append(g)
    return out


def _records(embeddings):
    return [(e.rotation, e.faces, e.canonical_form) for e in embeddings]


class TestSearchMatchesScan:
    """The pruned search gives the scan's embeddings, representative
    rotations and forms (rotation_scan_reference.py holds the scan)."""

    @settings(max_examples=300, deadline=None)
    @given(g=st.sampled_from(_small_multigraphs()), include_bigons=st.booleans())
    def test_small_multigraphs(self, g, include_bigons):
        assert _records(enumerate_toroidal(g, include_bigons)) == _records(
            reference.enumerate_toroidal(g, include_bigons)
        )

    def test_three_vertex_census_with_bigons(self):
        got = [_records(enumerate_toroidal(g, True)) for g in enumerate_census(3).stage3]
        want = [
            _records(reference.enumerate_toroidal(g, True)) for g in enumerate_census(3).stage3
        ]
        assert got == want


class TestDartBijectionsMatchReference:
    """The product of per-pair blocks builds the per-matching reference's
    rows (dart_bijection_reference.py), in its order."""

    def test_every_relabeling_of_the_census(self):
        for g in enumerate_census(3).stage3 + enumerate_census(4).stage3:
            for perm, h in relabelings(g):
                got = embedding._dart_bijections(g, h, perm)
                want = dart_bijection_reference.dart_bijections(g, h, perm)
                assert [tuple(row) for row in got] == want

    def test_graph_without_edges_gives_one_empty_row(self):
        g = Multigraph(3, (0, 0, 0))
        assert embedding._dart_bijections(g, g.multiplicities, (2, 0, 1)) == [b""]
        assert dart_bijection_reference.dart_bijections(g, g.multiplicities, (2, 0, 1)) == [()]


def test_unrestricted_dedup_one_four_vertex_graph():
    # spot check of the include_bigons path on a 7-edge graph
    g = Multigraph(4, (0, 1, 2, 1, 2, 1))
    assert len(enumerate_toroidal(g, include_bigons=True)) == 9
    assert len(enumerate_toroidal(g)) == 4
