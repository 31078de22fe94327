"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  The density ceiling (criterion 9) is
checked on every packing the other criteria produce, as note() registers
it, and criterion 9 checks a set of its own, so it passes alone and in any
order.
"""
import math

import numpy as np
import pytest

from toruspack import oracle
from toruspack.census import enumerate_census
from toruspack.closed_form import optimal_centers, optimal_radius, radius_branch
from toruspack.lattice import ModuliPoint, TorusPoint
from toruspack.oracle import maximize_min_distances, oracle_agrees
from toruspack.packing import (
    Packing,
    TRIANGULAR_DENSITY,
    density,
    extract_graph,
)
from toruspack.realization import realize_embedding
from toruspack.report import CountMismatch, oracle_disagreements, run_pipeline, verify_run
from toruspack.regions import (
    boundary_curve,
    classify,
    in_free_region,
    region_count,
    sample_interior,
)
from toruspack.rigidity import build_framework, classify_packing, decide_rigidity

SQRT3 = math.sqrt(3.0)

# criterion 9: no packing is denser than the triangular close packing
DENSITY_SLACK = 1e-12


def density_excess(p: Packing) -> float:
    return density(p) - TRIANGULAR_DENSITY


def note(p: Packing) -> Packing:
    """Check criterion 9 on a packing that another criterion produced."""
    excess = density_excess(p)
    assert excess <= DENSITY_SLACK, f"criterion 9: n={p.n} at ({p.m.x}, {p.m.y}) exceeds by {excess:.3e}"
    return p


def optimal_packing(n, m):
    sol = optimal_centers(n, m)
    return note(Packing(m=m, centers=sol.centers, radius=sol.radius))


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_census_counts():
    c3 = enumerate_census(3).counts
    c4 = enumerate_census(4).counts
    total = len(enumerate_census(3).stage3) + len(enumerate_census(4).stage3)
    ok = c3 == (37, 10, 3) and c4 == (825, 102, 20) and total == 23
    report(
        "criterion 1: census counts (37,10,3)/(825,102,20), 23 stage-3 graphs",
        ok,
        f"n=3 {c3}, n=4 {c4}, total {total}",
    )


def test_criterion_02_embedding_counts(catalog3, catalog4):
    results = {}
    for cat in (catalog3, catalog4):
        total = len(cat.entries)
        forb = sum(1 for e in cat.entries if e.forbidden_reason is None)
        both = len(cat.survivors())
        results[cat.n] = (total, forb, both)
    ok = results[3] == (6, 6, 6) and results[4] == (97, 31, 21)
    report(
        "criterion 2: embeddings 6/97, filters 6/31, survivors 6/21",
        ok,
        f"n=3 {results[3]}, n=4 {results[4]}",
    )


def criterion_03_rows(n, tori, formula):
    """Criterion 3 on tori of one region (200 restarts, seed 101): the
    worst |oracle - formula| and the rows oracle.oracle_agrees refuses."""
    worst, missed = 0.0, 0
    for m, res in zip(tori, maximize_min_distances(n, tori, restarts=200, seed=101)):
        r_formula = formula(n, m)
        note(Packing(m=m, centers=res.best_centers, radius=res.best_radius))
        worst = max(worst, abs(res.best_radius - r_formula))
        missed += not oracle_agrees(r_formula, res.best_radius)
    return worst, missed


def test_criterion_03_formula_oracle_agreement():
    rng = np.random.default_rng(20260810)
    worst, missed = 0.0, 0
    for n in (2, 3, 4):
        for idx in range(1, region_count(n) + 1):
            tori = [sample_interior(n, idx, rng) for _ in range(20)]
            region_worst, region_missed = criterion_03_rows(n, tori, optimal_radius)
            worst, missed = max(worst, region_worst), missed + region_missed
    report(
        "criterion 3: oracle agrees with formulas (20 pts/region, 200 restarts)",
        missed == 0,
        f"worst gap {worst:.3e}, rows outside the rule: {missed}",
    )


def test_criterion_03_refuses_a_formula_raised_by_1e_9(tmp_path, monkeypatch):
    # R2_3's formula raised by 1e-9, as the oracle module reads it: verify's
    # rows, the strict pipeline and criterion 3 all refuse that region
    def raised(n, m):
        r = optimal_radius(n, m)
        return r + 1e-9 if n == 3 and classify(n, m).name == "R2_3" else r

    monkeypatch.setattr(oracle, "optimal_radius", raised)
    refused = oracle_disagreements(verify_run(3, samples=2, seed=7, restarts=40))
    with pytest.raises(CountMismatch, match="oracle R2_3") as strict:
        run_pipeline(3, str(tmp_path))
    rng = np.random.default_rng(20260810)
    _, missed = criterion_03_rows(3, [sample_interior(3, 2, rng) for _ in range(20)], raised)
    ok = len(refused) == 2 and all("oracle R2_3" in line for line in refused) and missed == 20
    report(
        "criterion 3 refuses a formula raised by 1e-9 in one region",
        ok,
        f"verify: {len(refused)} rows refused, pipeline: {strict.value}, criterion 3: {missed} of 20 refused",
    )


def test_criterion_04_boundary_constants():
    rng = np.random.default_rng(404)
    worst = 0.0
    for n, idx in ((3, 1), (4, 2)):
        for _ in range(100):
            x = float(rng.uniform(0, 0.5))
            y = boundary_curve(n, idx, x)
            r = optimal_radius(n, ModuliPoint(x, y))
            worst = max(worst, abs(r - 1 / math.sqrt(12)))
    ok = worst <= 1e-12
    report(
        "criterion 4: R1_3/R2_3 and R2_4/R3_4 boundaries at 1/sqrt(12)",
        ok,
        f"worst deviation {worst:.3e}",
    )


def test_criterion_05_continuity():
    rng = np.random.default_rng(505)
    worst = 0.0
    for n in (2, 3, 4):
        for idx in range(1, region_count(n)):
            hits = 0
            while hits < 100:
                x = float(rng.uniform(0, 0.5))
                y = boundary_curve(n, idx, x)
                lo = radius_branch(n, idx, x, y)
                hi = radius_branch(n, idx + 1, x, y)
                if math.isnan(lo) or math.isnan(hi):
                    continue  # pinched closure corner: formula undefined
                worst = max(worst, abs(lo - hi))
                hits += 1
    ok = worst <= 1e-9
    report(
        "criterion 5: adjacent branches agree across every region boundary",
        ok,
        f"worst disagreement {worst:.3e}",
    )


def test_criterion_06_tangency_censuses():
    rng = np.random.default_rng(606)
    cases = [
        ("interior R1_4", 4, sample_interior(4, 1, rng), 9),
        ("interior R2_3", 3, sample_interior(3, 2, rng), 5),
        ("interior R1_3", 3, sample_interior(3, 1, rng), 5),
        ("interior R2_4", 4, sample_interior(4, 2, rng), 8),
        ("interior R3_4", 4, sample_interior(4, 3, rng), 7),
        ("left edge R1_2", 2, ModuliPoint(0.0, float(rng.uniform(1.05, 1.7))), 4),
    ]
    results = []
    ok = True
    for label, n, m, want in cases:
        p = optimal_packing(n, m)
        got = len(extract_graph(p, tol=1e-9).edges)
        results.append(f"{label}={got}")
        ok = ok and got == want
    report("criterion 6: tangency counts per region", ok, ", ".join(results))


def test_criterion_07_rigidity_suite(catalog3):
    rng = np.random.default_rng(707)
    ok = True
    details = []
    for n in (2, 3, 4):
        for idx in range(1, region_count(n)):  # radius < 1/2 regions
            for _ in range(20):
                m = sample_interior(n, idx, rng)
                verdict = classify_packing(optimal_packing(n, m))
                if verdict != "rigid-LMD":
                    ok = False
                    details.append(f"R{idx}_{n} at ({m.x:.4f},{m.y:.4f}): {verdict}")
    # the published flexible family: a realization of ECG2-2
    entry = catalog3.by_name("ECG2-2")
    samples = realize_embedding(entry.embedding, attempts=250, seed=77, max_samples=3)
    if not samples:
        ok = False
        details.append("ECG2-2 did not realize")
    else:
        for s in samples:
            p = note(Packing(m=s.m, centers=s.centers, radius=s.edge_length / 2))
            verdict = classify_packing(p, tol=1e-7)
            if verdict != "flexible":
                ok = False
                details.append(f"ECG2-2 sample classified {verdict}")
    # two-circle horizontal pair flexes vertically
    pair = Packing(
        m=ModuliPoint(0, 1),
        centers=(TorusPoint(0, 0), TorusPoint(0.5, 0)),
        radius=0.25,
    )
    flex = decide_rigidity(build_framework(pair, extract_graph(pair))).flex
    if flex is None:
        ok = False
        details.append("horizontal pair produced no flex witness")
    report(
        "criterion 7: rigid-LMD interiors, flexible ECG2-2, pair flex witness",
        ok,
        "; ".join(details) or "all verdicts as published",
    )


def test_criterion_08_realization_evidence(catalog3, catalog4):
    details = []
    ok = True
    entry = catalog4.by_name("ECG10-1")
    ghosts = realize_embedding(entry.embedding, attempts=1000, seed=8101, max_samples=1)
    if ghosts:
        ok = False
        details.append("ECG10-1 unexpectedly realized")
    else:
        details.append("ECG10-1: none in 1000 attempts")
    targets = {"ECG1-1": catalog3, "ECG9-1": catalog4, "ECG4-2": catalog4,
               "ECG7-1": catalog4, "ECG18-1": catalog4}
    for name, cat in targets.items():
        e = cat.by_name(name)
        samples = realize_embedding(e.embedding, attempts=400, seed=8102, max_samples=2)
        if not samples or any(s.residual >= 1e-10 for s in samples):
            ok = False
            details.append(f"{name}: no residual<1e-10 sample")
        else:
            for s in samples:
                note(Packing(m=s.m, centers=s.centers, radius=s.edge_length / 2))
            details.append(f"{name}: residual {max(s.residual for s in samples):.1e}")
    report("criterion 8: realization evidence", ok, "; ".join(details))


def test_criterion_10_self_tangent_region():
    rng = np.random.default_rng(1010)
    ok = True
    details = []
    for n in (2, 3, 4):
        tori = []
        for _ in range(10):
            x = float(rng.uniform(0, 0.5))
            y = boundary_curve(n, region_count(n) - 1, x) + float(rng.uniform(0.05, 1.5))
            tori.append(ModuliPoint(x, y))
            assert in_free_region(n, tori[-1])
        for m, res in zip(tori, maximize_min_distances(n, tori, restarts=120, seed=110)):
            p = note(Packing(m=m, centers=res.best_centers, radius=res.best_radius))
            if abs(res.best_radius - 0.5) > 1e-6:
                ok = False
                details.append(f"n={n} ({m.x:.3f},{m.y:.3f}): r={res.best_radius:.8f}")
                continue
            g = extract_graph(p, tol=1e-5)
            if g.loop_count() == 0:
                ok = False
                details.append(f"n={n} ({m.x:.3f},{m.y:.3f}): no loop")
    report(
        "criterion 10: free region reaches radius 1/2 with self-tangencies",
        ok,
        "; ".join(details) or "all 30 sampled tori as expected",
    )


def test_criterion_09_density_ceiling(catalog3, catalog4):
    # closed-form optima at the triangular close packings (density on the
    # ceiling), inside, on and below every region boundary, and every
    # realization sample the catalogs keep
    rng = np.random.default_rng(909)
    tori = [(2, ModuliPoint(0.0, SQRT3)), (2, ModuliPoint(0.5, SQRT3 / 2)),
            (3, ModuliPoint(0.5, SQRT3 / 2)), (3, ModuliPoint(0.5, 3 * SQRT3 / 2)),
            (4, ModuliPoint(0.5, SQRT3 / 2)), (4, ModuliPoint(0.0, 2 / SQRT3)),
            (4, ModuliPoint(0.0, 2 * SQRT3))]
    for n in (2, 3, 4):
        for idx in range(1, region_count(n) + 1):
            tori += [(n, sample_interior(n, idx, rng)) for _ in range(30)]
        for idx in range(region_count(n)):
            for _ in range(10):
                x = float(rng.uniform(0, 0.5))
                tori.append((n, ModuliPoint(x, boundary_curve(n, idx, x))))
    packings = [Packing(m=m, centers=sol.centers, radius=sol.radius)
                for n, m in tori for sol in [optimal_centers(n, m)]]
    packings += [Packing(m=s.m, centers=s.centers, radius=s.edge_length / 2)
                 for cat in (catalog3, catalog4) for e in cat.entries for s in e.samples]
    worst = max(map(density_excess, packings))
    ok = worst <= DENSITY_SLACK and len(packings) > 300
    report(
        "criterion 9: density of every produced packing below pi/sqrt(12)",
        ok,
        f"{len(packings)} packings, worst excess {worst:.3e}",
    )
