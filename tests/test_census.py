from unittest import mock

import pytest

from toruspack import census
from toruspack.census import (
    Multigraph,
    enumerate_census,
    relabelings,
    write_census_file,
)
from toruspack.errors import UnsupportedN


def test_table_counts():
    assert enumerate_census(3).counts == (37, 10, 3)
    assert enumerate_census(4).counts == (825, 102, 20)


def test_total_stage3_graphs():
    assert len(enumerate_census(3).stage3) + len(enumerate_census(4).stage3) == 23


def test_stages_in_edge_count_then_canonical_order():
    # the CG numbering of ecg.identify reads stage3 in this order; the key
    # is recomputed on a fresh graph, not read from the census's cache
    for n in (3, 4):
        for stage in enumerate_census(n)[1:]:
            keys = [(g.edge_count, Multigraph(n, g.multiplicities).canonical_form) for g in stage]
            assert keys == sorted(keys) and len(set(keys)) == len(keys), n


def test_unsupported_n():
    with pytest.raises(UnsupportedN):
        enumerate_census(5)


def test_canonical_relabeling_invariance():
    # paths 1-2-3 and 2-3-1 are the same graph
    a = Multigraph(3, (1, 0, 1))   # edges {0,1}, {1,2}
    b = Multigraph(3, (0, 1, 1))   # edges {0,2}, {1,2}
    assert a.canonical_form == b.canonical_form


def test_multiplicity_distinguishes():
    single = Multigraph(2, (1,))
    double = Multigraph(2, (2,))
    assert single.canonical_form != double.canonical_form


def test_triple_triangle_fixed_by_all_permutations():
    g = Multigraph(3, (3, 3, 3))
    assert g.canonical_form == bytes([3]) + bytes((3, 3, 3))


def test_stage3_multiplicity_bounds():
    for g in enumerate_census(4).stage3:
        assert max(g.multiplicities) <= 2
    triple = [g for g in enumerate_census(3).stage3 if max(g.multiplicities) == 3]
    assert len(triple) == 1
    assert all(d == 6 for d in triple[0].degrees())


def test_degree_sum():
    for n in (3, 4):
        for g in enumerate_census(n).stage1:
            assert sum(g.degrees()) == 2 * g.edge_count


def test_stage3_edge_distribution():
    from collections import Counter

    counts = Counter(g.edge_count for g in enumerate_census(4).stage3)
    assert dict(counts) == {7: 4, 8: 6, 9: 5, 10: 3, 11: 1, 12: 1}


def test_census_file(tmp_path):
    path = tmp_path / "census.txt"
    write_census_file(str(path), enumerate_census(3))
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 37
    assert sum(1 for l in lines if "stage=3" in l) == 3


def test_relabelings_once_per_class(tmp_path):
    """A cold census and its file run the relabeling loop once per class:
    each graph's form is kept with it, and the relabelings are not."""
    calls = []

    def counted(g):
        calls.append(g)
        return relabelings(g)

    with mock.patch.object(census, "relabelings", counted):
        res = enumerate_census.__wrapped__(4)
        write_census_file(str(tmp_path / "census.txt"), res)
    assert len(calls) == len(set(calls)) == len(res.stage1) == 825
