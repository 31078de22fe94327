"""Spans around the package's public functions, recorded from outside.

`Tracer.install` wraps each target function and rebinds every module-level
name in `toruspack.*` that refers to it, so calls made through
`from .x import f` bindings and through imports done at call time are both
seen.  Each call records one span (name, start, end, parent); self time is
a span's duration minus the time its direct children cover.  Spans stay in
memory until `write` dumps them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# (home module, function) of every wrapped public function
TARGETS = (
    ("lattice", "reduce_to_standard_basis"),
    ("regions", "classify"),
    ("closed_form", "optimal_centers"),
    ("packing", "extract_graph"),
    ("render", "render_packing"),
    ("report", "solve_report"),
    ("rigidity", "classify_packing"),
    ("rigidity", "find_nontrivial_flex"),
    ("rigidity", "find_proper_stress"),
    ("exact_lp", "maximize_free"),
    ("exact_lp", "feasible_nonnegative"),
    ("oracle", "maximize_min_distance"),
    ("oracle", "compare_with_closed_form"),
    ("oracle", "realize_embedding"),
    ("embedding", "enumerate_toroidal"),
    ("embedding", "forbidden_face_filter"),
    ("embedding", "parallel_chain_filter"),
    ("geometry_embed", "embedding_from_packing"),
    ("census", "enumerate_census"),
    ("ecg", "identify"),
    ("report", "run_pipeline"),
)

MODULES = ("census", "closed_form", "ecg", "embedding", "exact_lp", "geometry_embed",
           "lattice", "oracle", "packing", "regions", "render", "report", "rigidity", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent index]
        self._stack: list[int] = []
        self.enabled = False
        self.samples: dict[str, list[float]] = defaultdict(list)  # per-call values
        self._realized: set = set()
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def add_span(self, name: str, start_ns: int, end_ns: int) -> None:
        """A span measured by the caller (top level, no children)."""
        self.spans.append([self._id(name), start_ns, end_ns, -1])

    def wrap(self, name: str, fn):
        nid = self._id(name)
        spans, stack = self.spans, self._stack
        post = self._post_hooks().get(name)
        sig = inspect.signature(fn) if post else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([nid, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter_ns()
            if post:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                post(bound.arguments, result)
            return result

        return traced

    def _post_hooks(self):
        def realized(a, result):
            key = (a["e"].canonical_form, a["attempts"], a["seed"])
            self.samples["oracle.realize_embedding.repeat"].append(float(key in self._realized))
            self._realized.add(key)
            self.samples["oracle.realize_embedding.samples"].append(float(len(result)))

        def maximized(a, result):
            self.samples["oracle.maximize_min_distance.converged"].append(result.converged_fraction)

        return {"oracle.realize_embedding": realized, "oracle.maximize_min_distance": maximized}

    def install(self) -> None:
        """Wrap every target and rebind all toruspack names pointing at it.

        A target the package no longer has is listed in `missing` and its
        metrics read zero calls.
        """
        for mod in MODULES:
            importlib.import_module(f"toruspack.{mod}")
        loaded = [m for k, m in sys.modules.items() if k == "toruspack" or k.startswith("toruspack.")]
        for home, attr in TARGETS:
            orig = getattr(sys.modules[f"toruspack.{home}"], attr, None)
            if orig is None:
                self.missing.append(f"{home}.{attr}")
                continue
            wrapped = self.wrap(f"{home}.{attr}", orig)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._installed.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._installed):
            setattr(mod, key, orig)
        self._installed.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total/self/max seconds; plus top-level time."""
        child = [0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        top = 0
        for k, (name_id, start, end, parent) in enumerate(self.spans):
            dur = end - start
            row = out.setdefault(self.names[name_id],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur * 1e-9
            row["self_s"] += (dur - child[k]) * 1e-9
            row["max_s"] = max(row["max_s"], dur * 1e-9)
            if parent < 0:
                top += dur
        return {"spans": out, "top_level_s": top * 1e-9}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans, "missing": self.missing}, fh, separators=(",", ":"))


def layer_metrics(summary: dict, samples: dict[str, list[float]]) -> dict[str, float]:
    """The per-layer metrics that spans and per-call values give."""
    spans = summary["spans"]

    def row(name):
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})

    def per_call(name, unit_scale):
        r = row(name)
        return r["total_s"] / r["calls"] * unit_scale if r["calls"] else 0.0

    def mean(key):
        vals = samples.get(key, [])
        return sum(vals) / len(vals) if vals else 0.0

    classify_calls = row("rigidity.classify_packing")["calls"]
    realize = samples.get("oracle.realize_embedding.samples", [])
    return {
        "lattice.reduce_to_standard_basis.us_per_call": per_call("lattice.reduce_to_standard_basis", 1e6),
        "regions.classify.us_per_call": per_call("regions.classify", 1e6),
        "closed_form.optimal_centers.us_per_call": per_call("closed_form.optimal_centers", 1e6),
        "report.solve_report.us_per_call": per_call("report.solve_report", 1e6),
        "packing.extract_graph.calls": row("packing.extract_graph")["calls"],
        "packing.extract_graph.us_per_call": per_call("packing.extract_graph", 1e6),
        "render.render_packing.ms_per_call": per_call("render.render_packing", 1e3),
        "rigidity.classify_packing.ms_per_call": per_call("rigidity.classify_packing", 1e3),
        "rigidity.find_nontrivial_flex.calls": row("rigidity.find_nontrivial_flex")["calls"],
        "rigidity.find_nontrivial_flex.ms_per_call": per_call("rigidity.find_nontrivial_flex", 1e3),
        "rigidity.find_proper_stress.ms_per_call": per_call("rigidity.find_proper_stress", 1e3),
        "exact_lp.maximize_free.calls_per_classify":
            row("exact_lp.maximize_free")["calls"] / classify_calls if classify_calls else 0.0,
        "exact_lp.maximize_free.ms_per_call": per_call("exact_lp.maximize_free", 1e3),
        "exact_lp.feasible_nonnegative.ms_per_call": per_call("exact_lp.feasible_nonnegative", 1e3),
        "oracle.maximize_min_distance.s_per_call": per_call("oracle.maximize_min_distance", 1.0),
        "oracle.maximize_min_distance.converged_fraction": mean("oracle.maximize_min_distance.converged"),
        "oracle.realize_embedding.calls": row("oracle.realize_embedding")["calls"],
        "oracle.realize_embedding.s_total": row("oracle.realize_embedding")["total_s"],
        "oracle.realize_embedding.samples_per_call": mean("oracle.realize_embedding.samples"),
        "oracle.realize_embedding.empty_frac":
            sum(1 for v in realize if v == 0) / len(realize) if realize else 0.0,
        "oracle.realize_embedding.repeat_calls": sum(samples.get("oracle.realize_embedding.repeat", [])),
        "embedding.enumerate_toroidal.calls": row("embedding.enumerate_toroidal")["calls"],
        "embedding.enumerate_toroidal.s_total": row("embedding.enumerate_toroidal")["total_s"],
        "embedding.enumerate_toroidal.s_max": row("embedding.enumerate_toroidal")["max_s"],
        "embedding.forbidden_face_filter.s_total": row("embedding.forbidden_face_filter")["total_s"],
        "embedding.parallel_chain_filter.s_total": row("embedding.parallel_chain_filter")["total_s"],
        "geometry_embed.embedding_from_packing.calls": row("geometry_embed.embedding_from_packing")["calls"],
        "geometry_embed.embedding_from_packing.us_per_call":
            per_call("geometry_embed.embedding_from_packing", 1e6),
        "census.enumerate_census.s": row("census.enumerate_census")["total_s"],
        "ecg.identify.s": row("ecg.identify")["total_s"],
        "ecg.identify.self_s": row("ecg.identify")["self_s"],
        "report.run_pipeline.self_s": row("report.run_pipeline")["self_s"],
    }
