import sys

import pytest

from toruspack import ecg, packing, realization, rigidity
from toruspack.closed_form import optimal_centers
from toruspack.ecg import (
    FLEXIBLE,
    GMD,
    LMD_NOT_GMD,
    MIXED_GMD,
    NOT_REALIZABLE,
    PUBLISHED,
    expected_class,
)
from toruspack.geometry_embed import embedding_from_packing
from toruspack.lattice import TorusPoint
from toruspack.packing import Packing, extract_graph
from toruspack.realization import realize_embedding
from toruspack.regions import classify
from toruspack.report import run_pipeline
from toruspack.rigidity import build_framework, decide_rigidity


def test_three_vertex_names(catalog3):
    names = {e.name for e in catalog3.survivors()}
    assert names == {"ECG1-1", "ECG1-2", "ECG2-1", "ECG2-2", "ECG2-3", "ECG3-1"}
    assert len(catalog3.entries) == 6


def test_four_vertex_names(catalog4):
    names = {e.name for e in catalog4.survivors()}
    assert names == {
        "ECG4-1", "ECG4-2", "ECG4-3", "ECG4-4",
        "ECG6-1", "ECG7-1",
        "ECG9-1", "ECG9-2", "ECG9-3", "ECG9-4",
        "ECG10-1", "ECG10-2", "ECG12-1",
        "ECG13-1", "ECG13-2", "ECG16-1",
        "ECG18-1", "ECG20-1", "ECG20-2",
        "ECG23-1", "ECG23-2",
    }


def _published(cls: str) -> set[str]:
    """The published names of one class."""
    return {name for name, (c, _) in PUBLISHED.items() if c == cls}


def test_published_inventory_partition():
    assert len(PUBLISHED) == 27
    assert [len(_published(cls)) for cls in (NOT_REALIZABLE, FLEXIBLE, LMD_NOT_GMD, MIXED_GMD, GMD)] == [
        7, 5, 1, 2, 12]
    # exactly the "globally" names carry an anchor torus
    assert {name for name, (_, anchor) in PUBLISHED.items() if anchor} == _published(MIXED_GMD) | _published(GMD)


def test_probe_classes_match_published(catalog4):
    probe_class = {NOT_REALIZABLE: "none", FLEXIBLE: "flexible", LMD_NOT_GMD: "rigid"}
    for e in catalog4.survivors():
        if e.realization_class is None:
            continue  # anchored: globally optimal witness by construction
        assert e.realization_class == probe_class[expected_class(e.name)], e.name


@pytest.mark.parametrize("seed", [1, 2026])
def test_not_realizable_names_never_realize(catalog4, seed):
    for name in sorted(_published(NOT_REALIZABLE)):
        entry = catalog4.by_name(name)
        assert not realize_embedding(entry.embedding, attempts=1000, seed=seed, max_samples=1), name


def test_anchor_points_realize_their_embeddings(catalog3, catalog4):
    for cat in (catalog3, catalog4):
        for e in cat.survivors():
            assert (e.anchor is None) == (e.realization_class is not None), e.name
            if e.anchor is None:
                continue
            sol = optimal_centers(cat.n, e.anchor)
            p = Packing(m=e.anchor, centers=sol.centers, radius=sol.radius)
            g = extract_graph(p, tol=1e-9)
            realized = embedding_from_packing(g, p.edge_vectors(g))
            assert realized.canonical_form == e.embedding.canonical_form, e.name


def test_cg_numbering_blocks(catalog4):
    # edge counts must increase with the combinatorial graph number
    by_cg = {}
    for e in catalog4.entries:
        by_cg[e.cg] = e.embedding.graph.edge_count
    assert sorted(by_cg) == list(range(4, 24))
    edges = [by_cg[c] for c in sorted(by_cg)]
    assert edges == sorted(edges)
    assert edges.count(7) == 4 and edges.count(8) == 6 and edges.count(12) == 1


def test_anchored_graph_sizes(catalog4):
    # tangency counts of the anchored optima pin these graphs' edge counts
    sizes = {"ECG7-1": 7, "ECG9-1": 8, "ECG13-1": 8, "ECG16-1": 9,
             "ECG18-1": 9, "ECG20-1": 10, "ECG23-1": 12}
    for name, want in sizes.items():
        assert catalog4.by_name(name).embedding.graph.edge_count == want


def test_unlisted_probe_class_raises(catalog4, monkeypatch):
    """A CG 9 survivor that probes 'rigid', a class CG 9's published order
    does not list, stops identify instead of staying unnamed."""
    entries = {e.embedding.canonical_form: e for e in catalog4.entries}

    def probe(e):
        entry = entries[e.canonical_form]
        cls = "rigid" if entry.cg == 9 else entry.realization_class
        return cls, entry.samples, entry.witness

    monkeypatch.setattr(ecg, "_probe_realization", probe)
    with pytest.raises(AssertionError, match="ECG9: probe class 'rigid'"):
        ecg.identify.__wrapped__(4)


def test_expected_class_strings():
    assert expected_class("ECG10-1") == "not realizable"
    assert expected_class("ECG4-2") == "locally but never globally maximally dense"
    assert expected_class("ECG3-1") == "globally maximally dense"
    assert expected_class(None) == "unnamed"


@pytest.fixture
def cold_identify():
    """identify's cache cleared before and after the test."""
    ecg.identify.cache_clear()
    yield
    ecg.identify.cache_clear()


@pytest.mark.parametrize("edits, outcome", [
    ({}, None),
    ({"ECG4-2": (FLEXIBLE, None)},
     "raised ECG4: probe class 'rigid' is not in the published order ('flexible', 'none')"),
    ({"ECG10-2": None}, "raised survivor fingerprint (8 edges, 1 survivors) matched 0 graphs"),
    ({"ECG18-1": (GMD, PUBLISHED["ECG20-1"][1])}, "raised anchors ECG18-1 and ECG20-1 realize one embedding"),
    ({"ECG9-4": (NOT_REALIZABLE, None)}, "ECG9-4: realization 'flexible', published 'not realizable'"),
], ids=["published", "ECG4-2-flexible", "ECG10-2-dropped", "ECG18-1-at-ECG20-1-torus",
        "ECG9-4-not-realizable"])
def test_doctored_table_fails(cold_identify, monkeypatch, tmp_path, edits, outcome):
    """The names, CG numbers and probe-class orders all read the published
    table, so a row changed or dropped there stops the lenient n = 4
    pipeline or records a failure; the table itself records none."""
    table = {name: row for name, row in {**PUBLISHED, **edits}.items() if row is not None}
    monkeypatch.setattr(ecg, "PUBLISHED", table)
    try:
        failures = run_pipeline(4, str(tmp_path), skip_oracle=True, strict=False)["failures"]
    except AssertionError as exc:
        failures = [f"raised {exc}"]
    assert failures == ([outcome] if outcome else [])


def test_triangular_close_packing_embeddings(catalog4):
    # both doubled-K4 survivors are all-triangle embeddings
    for name in ("ECG23-1", "ECG23-2"):
        e = catalog4.by_name(name)
        assert e.embedding.face_vector == (3,) * 8
    assert (
        catalog4.by_name("ECG23-1").embedding.canonical_form
        != catalog4.by_name("ECG23-2").embedding.canonical_form
    )


def _callers(monkeypatch, fn) -> list[str]:
    """Route every toruspack module's binding of fn through a wrapper; the
    list it returns fills with the module of each caller."""
    callers = []

    def wrapped(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("toruspack") and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, wrapped)
    return callers


def test_anchor_form_canonicalizes_each_center_twice(monkeypatch):
    # once for the closed-form optimum, once for its graph and edge vectors
    # (packing.contacts)
    calls = []
    canonical = TorusPoint.canonical
    monkeypatch.setattr(TorusPoint, "canonical", lambda c, m: calls.append(c) or canonical(c, m))
    for n, name in ((3, "ECG1-1"), (4, "ECG18-1")):
        calls.clear()
        ecg._anchor_form(n, PUBLISHED[name][1])
        assert len(calls) == 2 * n, name


def test_probe_decides_each_sample_once(catalog3, monkeypatch):
    """The ECG2-2 probe decides each of its 8 samples once, on the graph
    its realization extracted, and extracts no graph itself."""
    decided = _callers(monkeypatch, rigidity.decide_rigidity)
    extracted = _callers(monkeypatch, packing.extract_graph)
    cls, samples, witness = ecg._probe_realization(catalog3.by_name("ECG2-2").embedding)
    assert cls == "flexible" and len(samples) == 8
    assert decided == ["toruspack.ecg"] * 8
    assert "toruspack.ecg" not in extracted
    assert witness == catalog3.by_name("ECG2-2").witness
    assert witness[0] == samples[0]


def test_rigid_witness_is_a_rigid_sample(monkeypatch):
    """At realization seed 1 the first ECG4-2 sample is flexible and a
    later one rigid: the "rigid" verdict's witness is that rigid sample,
    whose stress certifies its own framework."""
    monkeypatch.setattr(ecg, "REALIZE_SEED", 1)
    entry = ecg.identify.__wrapped__(4).by_name("ECG4-2")
    sample, decision = entry.witness
    assert entry.realization_class == "rigid" and decision.rigid
    p = Packing(m=sample.m, centers=sample.centers, radius=sample.edge_length / 2)
    f = build_framework(p, sample.graph, tol=realization.REALIZATION_CLEARANCE)
    assert rigidity.verify_stress(f, decision.stress)


def test_verdict_regions_are_those_of_the_decided_samples(catalog4, tmp_path):
    """At seed 2026 the ECG4-2 witness is sample 0, in R3_4, and the probe
    decides no other sample, so its "rigid" verdict lists R3_4 alone, though
    its samples also lie in R2_4; a flexible verdict decides, and lists,
    every sample."""
    entry = catalog4.by_name("ECG4-2")
    assert entry.witness[0] is entry.samples[0] and entry.decided_samples == entry.samples[:1]
    assert {classify(4, s.m).name for s in entry.samples} == {"R2_4", "R3_4"}
    report = run_pipeline(4, str(tmp_path), skip_oracle=True)
    verdicts = {v["name"]: v for v in report["verdicts"]}
    assert (verdicts["ECG4-2"]["realization"], verdicts["ECG4-2"]["regions"]) == ("rigid", ["R3_4"])
    for e in catalog4.survivors():
        if e.realization_class == "flexible":
            assert verdicts[e.name]["regions"] == sorted({classify(4, s.m).name for s in e.samples})


def test_pipeline_witness_is_the_probe_decision(catalog3, monkeypatch, tmp_path):
    """On a warm catalog the pipeline writes the ECG2-2 witness without
    extracting or deciding anything, and for this flexible class it is the
    decision of samples[0]."""
    s = catalog3.by_name("ECG2-2").samples[0]
    p = Packing(m=s.m, centers=s.centers, radius=s.edge_length / 2)
    # read afresh, 100x tighter than the sample's graph was read
    g = extract_graph(p, realization.REALIZATION_CLEARANCE / 100)
    want = decide_rigidity(build_framework(p, g, realization.REALIZATION_CLEARANCE / 100))
    decided = _callers(monkeypatch, rigidity.decide_rigidity)
    extracted = _callers(monkeypatch, packing.extract_graph)
    report = run_pipeline(3, str(tmp_path))
    assert "toruspack.report" not in decided + extracted
    (verdict,) = [v for v in report["verdicts"] if v["name"] == "ECG2-2"]
    assert verdict["witness"] == {
        "moduli": {"x": s.m.x, "y": s.m.y},
        "flex": [list(v) for v in want.flex.velocities],
    }
