"""Pipeline orchestration and file outputs.

The pipeline mirrors the discovery route: census -> toroidal embeddings ->
combinatorial filters -> realization attempts -> rigidity classification,
with an optional formula/oracle comparison.  Its one result is the verdict
record it writes to verdicts_n{n}.json: the counts, one realization verdict
and rigidity witness per survivor, the oracle rows, and the failures of the
published counts, names and verdicts, which are strict assertions unless
downgraded to warnings.
"""
from __future__ import annotations

import csv
import os

from .census import enumerate_census, write_census_file
from .ecg import REALIZE_ATTEMPTS, expected_class, expected_names, identify
# compare_with_closed_form and solve_report stay importable from report
# because the benchmark (perfbench) reads them here
from .oracle import compare_with_closed_form, compare_with_closed_forms, oracle_agrees  # noqa: F401
from .packing import SCHEMA_VERSION, to_json
from .regions import classify, region_count, sample_interior
from .solve import solve_report  # noqa: F401
from .stream import Stream

# record key -> (label in its failure message, published value per n)
_PUBLISHED_COUNTS = {
    "census_counts": ("census", {3: (37, 10, 3), 4: (825, 102, 20)}),
    "embedding_count": ("embeddings", {3: 6, 4: 97}),
    "after_forbidden": ("after forbidden-face filter", {3: 6, 4: 31}),
    "after_both": ("after both filters", {3: 6, 4: 21}),
}

# published class -> the realization verdict prefix it must show; anchored
# names are realized by the closed-form optimum at their anchor torus
_EXPECTED_REALIZATION = {
    "not realizable": "no realization found",
    "realizable, never locally maximally dense": "flexible",
    "locally but never globally maximally dense": "rigid",
    "globally maximally dense on part of the moduli strip": "anchored",
    "globally maximally dense": "anchored",
}


# Restarts of the pipeline's formula/oracle table; at 120 every row of the
# seed-0 n = 3 and n = 4 tables agrees with its closed form (oracle_agrees).
ORACLE_RESTARTS = 120


class CountMismatch(AssertionError):
    pass


def run_pipeline(
    n: int,
    out_dir: str,
    skip_oracle: bool = False,
    strict: bool = True,
    seed: int = 0,
) -> dict:
    """Run the pipeline for n into out_dir and return the verdict record
    it writes there; raise CountMismatch on a failed published check when
    strict."""
    os.makedirs(out_dir, exist_ok=True)
    census = enumerate_census(n)
    write_census_file(os.path.join(out_dir, f"census_n{n}.txt"), census)

    catalog = identify(n)
    entries = catalog.entries

    # embedding records file
    with open(os.path.join(out_dir, f"embeddings_n{n}.jsonl"), "w", encoding="utf-8") as fh:
        for e in entries:
            rec = {
                "schema": SCHEMA_VERSION,
                "graph": e.embedding.graph.canonical_form.hex(),
                "cg": e.cg,
                "name": e.name,
                "rotation": list(e.embedding.rotation),
                "face_vector": list(e.embedding.face_vector),
                "survives_filters": e.survives_filters,
                "forbidden_reason": e.forbidden_reason,
                "chain_reason": e.chain_reason,
            }
            fh.write(to_json(rec) + "\n")

    # realization + rigidity verdicts for the survivors
    verdicts = []
    for e in catalog.survivors():
        verdict = {
            "name": e.name,
            "cg": e.cg,
            "face_vector": list(e.embedding.face_vector),
            "expected": expected_class(e.name) if e.name else "unnamed",
        }
        cls = e.realization_class
        if e.anchor is not None:
            # the closed-form optimum at the anchor torus realizes it
            cls = "anchored (globally optimal witness)"
            verdict["witness"] = {"moduli": {"x": e.anchor.x, "y": e.anchor.y}}
        elif cls == "none":
            # evidence, not proof
            cls = f"no realization found in {REALIZE_ATTEMPTS} attempts"
        verdict["realization"] = cls
        if cls in ("rigid", "flexible"):
            # the regions of the samples the probe decided: up to the rigid
            # witness, else all of them
            decided = e.samples[: e.samples.index(e.witness[0]) + 1] if cls == "rigid" else e.samples
            verdict["regions"] = sorted({classify(n, s.m).name for s in decided})
            verdict["witness"] = _rigidity_witness(*e.witness)
        verdicts.append(verdict)

    # formula vs oracle table
    oracle_rows = []
    if not skip_oracle:
        oracle_rows = _oracle_table(n, 3, Stream(seed, n, 0xC), ORACLE_RESTARTS, seed)
        write_oracle_csv(os.path.join(out_dir, f"oracle_n{n}.csv"), oracle_rows)

    record = {
        "schema": SCHEMA_VERSION,
        "n": n,
        "census_counts": census.counts,
        "embedding_count": len(entries),
        "after_forbidden": sum(1 for e in entries if e.forbidden_reason is None),
        "after_both": len(catalog.survivors()),
        "embedding_convention": (
            "2-cell toroidal embeddings without bigon faces, deduplicated up "
            "to graph automorphism and reflection; "
            "enumerate_toroidal(include_bigons=True) gives the unrestricted "
            "dedup (36 classes for n=3, 914 for n=4)"
        ),
        "verdicts": verdicts,
        "oracle": oracle_rows,
    }
    record["failures"] = _check_counts(record)
    with open(os.path.join(out_dir, f"verdicts_n{n}.json"), "w", encoding="utf-8") as fh:
        fh.write(to_json(record) + "\n")
    if record["failures"] and strict:
        raise CountMismatch("; ".join(record["failures"]))
    return record


def _rigidity_witness(sample, decision) -> dict:
    """Flex or stress certificate of a realization sample, with its torus,
    for audit."""
    out = {"moduli": {"x": sample.m.x, "y": sample.m.y}}
    if decision.flex is not None:
        out["flex"] = [list(v) for v in decision.flex.velocities]
    elif decision.stress is not None:
        out["stress"] = list(decision.stress.coefficients)
    return out


def _oracle_table(n: int, per_region: int, rng, restarts: int, seed: int):
    """Formula/oracle rows of per_region tori drawn from each region, all
    compared in one oracle call."""
    drawn = [(index, sample_interior(n, index, rng))
             for index in range(1, region_count(n) + 1) for _ in range(per_region)]
    cmps = compare_with_closed_forms(n, [m for _, m in drawn], restarts, seed)
    return [_oracle_row(n, m, index, cmp, seed) for (index, m), cmp in zip(drawn, cmps)]


def _oracle_row(n: int, m, index: int, cmp, seed: int) -> dict:
    return {
        "n": n,
        "x": m.x,
        "y": m.y,
        "region": index,
        "formula_r": cmp.formula_radius,
        "oracle_r": cmp.oracle_radius,
        "gap": cmp.gap,
        "restarts": cmp.restarts,
        "seed": seed,
    }


def _check_counts(record: dict) -> list[str]:
    """Every published count, name or verdict the record misses."""
    n, verdicts = record["n"], record["verdicts"]
    failures = [f"{label}: got {record[key]}, expected {want[n]}"
                for key, (label, want) in _PUBLISHED_COUNTS.items() if record[key] != want[n]]
    names = [v["name"] for v in verdicts if v["name"]]
    failures += [f"name {name} assigned {names.count(name)} times"
                 for name in sorted({x for x in names if names.count(x) > 1})]
    failures += [f"published name {name} missing from the survivors"
                 for name in sorted(expected_names(n) - set(names))]
    for v in verdicts:
        want = _EXPECTED_REALIZATION.get(v["expected"])
        if want and not v["realization"].startswith(want):
            failures.append(f"{v['name']}: realization {v['realization']!r}, published {v['expected']!r}")
    return failures + oracle_disagreements(record["oracle"])


def oracle_disagreements(rows: list[dict]) -> list[str]:
    """One line per formula/oracle row that breaks the oracle-agreement rule."""
    return [
        f"oracle R{r['region']}_{r['n']} at ({r['x']:.6f}, {r['y']:.6f}): "
        f"formula {r['formula_r']:.9f}, oracle {r['oracle_r']:.9f}"
        for r in rows
        if not oracle_agrees(r["formula_r"], r["oracle_r"])
    ]


def write_oracle_csv(path: str, rows: list[dict]) -> None:
    if not rows:
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), quoting=csv.QUOTE_MINIMAL)
        writer.writeheader()
        writer.writerows(rows)


def summary_table(record: dict) -> str:
    c = record["census_counts"]
    lines = [f"n={record['n']}: census {c[0]}/{c[1]}/{c[2]}; "
             f"embeddings {record['embedding_count']}; "
             f"filters {record['after_forbidden']}/{record['after_both']}"]
    width = max((len(v["realization"]) for v in record["verdicts"]), default=0)
    for v in record["verdicts"]:
        line = f"  {v['name'] or '(unnamed)':10s} {v['realization']:{width}s} {v['expected']}"
        if v.get("regions"):
            line += f"  regions={','.join(v['regions'])}"
        lines.append(line)
    lines += [f"  CHECK FAILED: {f}" for f in record["failures"]]
    return "\n".join(lines) + "\n"


# verify helper used by the CLI


def verify_run(n: int, samples: int, seed: int, restarts: int) -> list[dict]:
    """Formula/oracle rows of samples tori drawn from each region."""
    return _oracle_table(n, samples, Stream(seed, n), restarts, seed)
