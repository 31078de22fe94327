"""Correctness gate: every answer the benchmark times is checked here.

Each check returns a list of failure messages (empty when the answer is
right).  `self_test` feeds the gate deliberately corrupted copies of real
answers and reports any corruption it failed to catch.
"""
from __future__ import annotations

import copy
import dataclasses
import math

from toruspack.ecg import expected_class
from toruspack.errors import TorusPackError
from toruspack.packing import packing_from_dict

MODULI_TOL = 1e-9          # reduced moduli point vs the point the input came from
RADIUS_REL_TOL = 1e-12     # radius_original_units * scale vs radius (one rounding each)
INPUT_UNITS_REL_TOL = 1e-9  # radius in input units vs radius * input scale
PACKING_TOL = 1e-9         # overlap tolerance of the returned packing
VERIFY_GAP = 1e-3          # CLI `verify`: formula/oracle disagreement limit
VERIFY_OVERSHOOT = 1e-6    # CLI `verify`: oracle may not beat the formula by more

EXPECTED_PIPELINE = {
    3: {"census_counts": [37, 10, 3], "embedding_count": 6, "after_forbidden": 6, "after_both": 6},
    4: {"census_counts": [825, 102, 20], "embedding_count": 97, "after_forbidden": 31,
        "after_both": 21},
}

# realization verdict -> the published classes it is consistent with
_VERDICT_CLASSES = {
    "anchored": {"globally maximally dense",
                 "globally maximally dense on part of the moduli strip"},
    "flexible": {"realizable, never locally maximally dense"},
    "rigid": {"locally but never globally maximally dense"},
    "no realization found": {"not realizable"},
}


def check_solve(q: dict, rec: dict) -> list[str]:
    errs = []
    mx, my = rec["moduli"]["x"], rec["moduli"]["y"]
    if abs(mx - q["m"].x) > MODULI_TOL or abs(my - q["m"].y) > MODULI_TOL:
        errs.append(f"moduli ({mx!r}, {my!r}) != generated ({q['m'].x!r}, {q['m'].y!r})")
    r, r_in, scale = rec["radius"], rec["radius_original_units"], rec["scale"]
    if not math.isclose(r_in * scale, r, rel_tol=RADIUS_REL_TOL):
        errs.append(f"radius_original_units * scale = {r_in * scale!r} != radius {r!r}")
    if not math.isclose(r_in, r * q["scale"], rel_tol=INPUT_UNITS_REL_TOL):
        errs.append(f"radius in input units {r_in!r} != {r!r} * input scale {q['scale']!r}")
    try:
        packing_from_dict(rec["packing"]).validate(tol=PACKING_TOL)
    except TorusPackError as exc:
        errs.append(f"returned packing invalid: {exc}")
    return errs


def check_certify(expected: str, verdict: str) -> list[str]:
    return [] if verdict == expected else [f"verdict {verdict!r}, expected {expected!r}"]


def check_verify(cmp) -> list[str]:
    errs = []
    if cmp.gap > VERIFY_GAP:
        errs.append(f"gap {cmp.gap:.3e} > {VERIFY_GAP}")
    if cmp.oracle_radius > cmp.formula_radius + VERIFY_OVERSHOOT:
        errs.append(f"oracle {cmp.oracle_radius!r} beats formula {cmp.formula_radius!r}")
    return errs


def check_pipeline(n: int, rec: dict) -> list[str]:
    """rec: the pipeline's verdict record (verdicts_n{n}.json)."""
    errs = []
    want = EXPECTED_PIPELINE[n]
    for key, value in want.items():
        if rec[key] != value:
            errs.append(f"{key}: got {rec[key]}, expected {value}")
    names = [v["name"] for v in rec["verdicts"]]
    for name in sorted({x for x in names if names.count(x) > 1}, key=str):
        errs.append(f"ECG name {name} assigned {names.count(name)} times")
    for v in rec["verdicts"]:
        published = expected_class(v["name"]) if v["name"] else "unnamed"
        allowed = next((c for prefix, c in _VERDICT_CLASSES.items()
                        if v["realization"].startswith(prefix)), set())
        if published not in allowed:
            errs.append(f"{v['name']}: verdict {v['realization']!r} vs published {published!r}")
    return errs


def self_test(solve_case=None, certify_case=None, verify_case=None, pipeline_case=None) -> list[str]:
    """Corrupt real answers and confirm the gate rejects each corruption.

    Cases are (inputs, answer) pairs that passed the gate; returns the
    corruptions that slipped through.
    """
    missed = []
    if solve_case:
        q, rec = copy.deepcopy(solve_case)
        rec["radius"] += 1e-2
        if not check_solve(q, rec):
            missed.append("solve: radius nudged by 1e-2")
    if certify_case:
        expected, verdict = certify_case
        swapped = {"rigid-LMD": "flexible", "flexible": "rigid-LMD"}.get(verdict, "rigid-LMD")
        if not check_certify(expected, swapped):
            missed.append("certify: swapped rigidity verdict")
    if verify_case:
        bad = dataclasses.replace(verify_case, oracle_radius=verify_case.formula_radius + 1e-5)
        if not check_verify(bad):
            missed.append("verify: oracle beats the formula by 1e-5")
    if pipeline_case:
        n, rec = copy.deepcopy(pipeline_case)
        rec["verdicts"][1]["name"] = rec["verdicts"][0]["name"]
        if not check_pipeline(n, rec):
            missed.append("pipeline: duplicated ECG name")
    return missed
