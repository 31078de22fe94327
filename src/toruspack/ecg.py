"""Naming the surviving embedded graphs and their expected classification.

Combinatorial graphs are numbered 1..3 (three vertices) and 4..23 (four
vertices) in edge-count blocks; embeddings within a graph are numbered so
that every name used in the published tables lands on the embedding with
the matching role.  Identification is fully computational:

  * realizations of the closed-form optima at fixed anchor tori pin the
    embeddings that occur as globally optimal packing graphs;
  * seeded realization attempts plus the rigidity test split the remaining
    survivors into realizable-rigid, realizable-flexible and
    not-realized classes;
  * leftover ids are assigned in canonical-form order (they carry no
    published name).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .census import enumerate_census
from .closed_form import optimal_centers
from .embedding import (
    EmbeddedGraph,
    enumerate_toroidal,
    forbidden_face_filter,
    parallel_chain_filter,
)
from .errors import UnsupportedN
from .geometry_embed import embedding_from_packing
from .lattice import DEFAULT_TOL, ModuliPoint
from .oracle import RealizationSample, realize_embedding
from .packing import SAMPLE_TANGENCY_TOL, Packing, extract_graph
from .regions import SQRT3, boundary_curve
from .rigidity import RigidityDecision, build_framework, decide_rigidity

# anchor tori: (name, n, moduli point) -> realize the closed-form optimum
# there and extract its embedding
_GMD_ANCHORS = {
    "ECG1-1": (3, lambda: ModuliPoint(0.15, 1.05)),
    "ECG1-2": (3, lambda: ModuliPoint(0.15, 1.5)),
    "ECG2-1": (3, lambda: ModuliPoint(0.15, boundary_curve(3, 1, 0.15))),
    "ECG2-3": (3, lambda: ModuliPoint(0.5, 1.5)),
    "ECG3-1": (3, lambda: ModuliPoint(0.5, SQRT3 / 2)),
    "ECG18-1": (4, lambda: ModuliPoint(0.1, 1.0)),
    "ECG20-1": (4, lambda: ModuliPoint(0.0, 1.05)),
    "ECG20-2": (4, lambda: ModuliPoint(0.25, boundary_curve(4, 1, 0.25))),
    "ECG23-1": (4, lambda: ModuliPoint(0.5, SQRT3 / 2)),
    "ECG23-2": (4, lambda: ModuliPoint(0.0, 2 / SQRT3)),
    "ECG9-1": (4, lambda: ModuliPoint(0.25, 1.3)),
    "ECG16-1": (4, lambda: ModuliPoint(0.25, boundary_curve(4, 2, 0.25))),
    "ECG7-1": (4, lambda: ModuliPoint(0.25, 2.0)),
    "ECG13-1": (4, lambda: ModuliPoint(0.0, 2.0)),
}

REALIZE_ATTEMPTS = 240
REALIZE_SEED = 2026


@dataclass(frozen=True)
class EcgEntry:
    name: str | None
    cg: int
    embedding: EmbeddedGraph
    survives_filters: bool
    forbidden_reason: str | None
    chain_reason: str | None
    realization_class: str | None  # 'rigid', 'flexible', 'none' (survivors only)
    # the probe's retained realizations (unanchored survivors only)
    samples: tuple[RealizationSample, ...] = ()
    # the rigidity decision of samples[0], its witness
    decision: RigidityDecision | None = None
    # anchored names: the torus whose closed-form optimum realizes this
    # embedding, a globally optimal witness
    anchor: ModuliPoint | None = None


@dataclass(frozen=True)
class EcgCatalog:
    n: int
    cg_ids: dict[bytes, int]  # multigraph canonical form -> CG number
    entries: tuple[EcgEntry, ...]

    def by_name(self, name: str) -> EcgEntry:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def survivors(self) -> tuple[EcgEntry, ...]:
        return tuple(e for e in self.entries if e.survives_filters)


def _anchor_form(n: int, m: ModuliPoint) -> bytes:
    sol = optimal_centers(n, m)
    p = Packing(m=m, centers=sol.centers, radius=sol.radius)
    g = extract_graph(p, tol=DEFAULT_TOL)
    return embedding_from_packing(p, g).canonical_form


def _probe_realization(
    e: EmbeddedGraph,
) -> tuple[str, tuple[RealizationSample, ...], RigidityDecision | None]:
    """The retained samples, classed 'rigid' if any of them is
    infinitesimally rigid (the family is locally maximally dense
    somewhere), else 'flexible', or 'none' when nothing realized, and the
    rigidity decision of the first.  Samples are decided in order, up to
    the first rigid one."""
    samples = tuple(
        realize_embedding(e, attempts=REALIZE_ATTEMPTS, seed=REALIZE_SEED, max_samples=8)
    )
    if not samples:
        return "none", samples, None
    decisions = []
    for s in samples:
        p = Packing(m=s.m, centers=s.centers, radius=s.edge_length / 2)
        decisions.append(decide_rigidity(build_framework(p, s.graph, tol=SAMPLE_TANGENCY_TOL)))
        if decisions[-1].rigid:
            break
    return ("rigid" if decisions[-1].rigid else "flexible"), samples, decisions[0]


@lru_cache(maxsize=None)
def identify(n: int) -> EcgCatalog:
    if n not in (3, 4):
        raise UnsupportedN(f"the census pipeline handles n in {{3, 4}}, got {n}")
    census = enumerate_census(n)
    graphs = sorted(census.stage3, key=lambda g: (g.edge_count, g.canonical_form))

    # per-graph embeddings and filter verdicts
    per_graph: list[dict] = []
    for g in graphs:
        embs = enumerate_toroidal(g)
        info = []
        for e in embs:
            fv = forbidden_face_filter(e)
            cv = parallel_chain_filter(e) if fv.keep else None
            info.append(
                {
                    "embedding": e,
                    "forbidden": fv,
                    "chain": cv,
                    "survives": bool(fv.keep and cv and cv.keep),
                }
            )
        per_graph.append({"graph": g, "info": info})

    anchor_points = {name: mk() for name, (an, mk) in _GMD_ANCHORS.items() if an == n}
    anchors = {name: _anchor_form(n, m) for name, m in anchor_points.items()}
    form_to_anchor = {}
    for name, form in anchors.items():
        form_to_anchor.setdefault(form, name)

    # CG numbering
    offset = 1 if n == 3 else 4
    anchored_cg: dict[int, int] = {}  # graph idx -> cg id
    for name, form in anchors.items():
        cg_num = int(name.split("-")[0][3:])
        for gi, rec in enumerate(per_graph):
            if any(i["embedding"].canonical_form == form for i in rec["info"]):
                anchored_cg[gi] = cg_num
                break
        else:
            raise AssertionError(f"anchor {name} did not match any embedding")
    # survivor-count fingerprints pin the non-anchored graphs that carry
    # published names (CG4/CG6 among 7-edge; CG10/CG12 among 8-edge)
    if n == 4:
        by_edges: dict[int, list[int]] = {}
        for gi, rec in enumerate(per_graph):
            by_edges.setdefault(rec["graph"].edge_count, []).append(gi)
        surv = {
            gi: sum(1 for i in per_graph[gi]["info"] if i["survives"])
            for gi in range(len(per_graph))
        }

        for edge_count, count, cg_num in ((7, 4, 4), (7, 1, 6), (8, 2, 10), (8, 1, 12)):
            cands = [
                gi
                for gi in by_edges[edge_count]
                if gi not in anchored_cg and surv[gi] == count
            ]
            if len(cands) != 1:
                raise AssertionError(
                    f"survivor fingerprint ({edge_count} edges, {count} survivors)"
                    f" matched {len(cands)} graphs"
                )
            anchored_cg[cands[0]] = cg_num
    # remaining ids filled inside each edge-count block, canonical order
    cg_of: dict[int, int] = dict(anchored_cg)
    start = offset
    gi = 0
    while gi < len(per_graph):
        ec = per_graph[gi]["graph"].edge_count
        block = [k for k in range(len(per_graph)) if per_graph[k]["graph"].edge_count == ec]
        ids = set(range(start, start + len(block)))
        fixed = {cg_of[k] for k in block if k in cg_of}
        if not fixed <= ids:
            raise AssertionError("anchored CG id escaped its edge-count block")
        free = sorted(ids - fixed)
        for k in block:
            if k not in cg_of:
                cg_of[k] = free.pop(0)
        start += len(block)
        gi = block[-1] + 1

    # embedding numbers
    entries: list[EcgEntry] = []
    cg_ids: dict[bytes, int] = {}
    for gi, rec in enumerate(per_graph):
        cg = cg_of[gi]
        cg_ids[rec["graph"].canonical_form] = cg
        info = rec["info"]
        named: dict[int, str] = {}
        # anchored embeddings first
        for ii, i in enumerate(info):
            name = form_to_anchor.get(i["embedding"].canonical_form)
            if name:
                named[ii] = name
        surv_idx = [ii for ii, i in enumerate(info) if i["survives"]]
        unnamed_surv = [ii for ii in surv_idx if ii not in named]
        probes = {ii: _probe_realization(info[ii]["embedding"]) for ii in unnamed_surv}
        real_class = {ii: cls for ii, (cls, _, _) in probes.items()}
        if unnamed_surv:
            if n == 3 and cg == 2:
                named[unnamed_surv[0]] = "ECG2-2"
            elif cg == 13 and len(unnamed_surv) == 1:
                named[unnamed_surv[0]] = "ECG13-2"
            elif cg in (6, 12) and len(unnamed_surv) == 1:
                named[unnamed_surv[0]] = f"ECG{cg}-1"
            elif cg == 4:
                _assign_by_class(named, real_class, unnamed_surv, cg,
                                 rigid_name="ECG4-2", flex_name="ECG4-1",
                                 none_start=3)
            elif cg == 9:
                _assign_by_class(named, real_class, unnamed_surv, cg,
                                 rigid_name=None, flex_name="ECG9-4",
                                 none_start=2)
            else:
                # no published anchor distinguishes these; canonical order
                for k, ii in enumerate(unnamed_surv):
                    named[ii] = f"ECG{cg}-{k + 1}"
        for ii, i in enumerate(info):
            rc, samples, decision = probes.get(ii, (None, (), None))  # probed survivors only
            anchor_name = form_to_anchor.get(i["embedding"].canonical_form)
            entries.append(
                EcgEntry(
                    name=named.get(ii),
                    cg=cg,
                    embedding=i["embedding"],
                    survives_filters=i["survives"],
                    forbidden_reason=None if i["forbidden"].keep else i["forbidden"].reason,
                    chain_reason=None
                    if (i["chain"] is None or i["chain"].keep)
                    else i["chain"].reason,
                    realization_class=rc,
                    samples=samples,
                    decision=decision,
                    anchor=anchor_points[anchor_name] if anchor_name else None,
                )
            )
    return EcgCatalog(n=n, cg_ids=cg_ids, entries=tuple(entries))


def _assign_by_class(named, real_class, unnamed, cg, rigid_name, flex_name, none_start):
    nones = [ii for ii in unnamed if real_class.get(ii) == "none"]
    for ii in unnamed:
        cls = real_class.get(ii)
        if cls == "rigid" and rigid_name:
            named[ii] = rigid_name
        elif cls == "flexible" and flex_name:
            named[ii] = flex_name
    for k, ii in enumerate(nones):
        named[ii] = f"ECG{cg}-{none_start + k}"


# classification expected from the published analysis (used as the pipeline's
# regression oracle; drives the verdict table)
EXPECTED_NOT_REALIZABLE = {
    "ECG4-3",
    "ECG4-4",
    "ECG9-2",
    "ECG9-3",
    "ECG10-1",
    "ECG10-2",
    "ECG12-1",
}
EXPECTED_FLEXIBLE = {"ECG2-2", "ECG4-1", "ECG6-1", "ECG9-4", "ECG13-2"}
EXPECTED_LMD_NOT_GMD = {"ECG4-2"}
EXPECTED_MIXED_GMD = {"ECG1-1", "ECG9-1"}
EXPECTED_GMD = {
    "ECG1-2",
    "ECG2-1",
    "ECG2-3",
    "ECG3-1",
    "ECG7-1",
    "ECG13-1",
    "ECG16-1",
    "ECG18-1",
    "ECG20-1",
    "ECG20-2",
    "ECG23-1",
    "ECG23-2",
}


def expected_names(n: int) -> set[str]:
    """Published names of n-vertex embeddings (CG1-CG3 have three vertices)."""
    every = (
        EXPECTED_NOT_REALIZABLE
        | EXPECTED_FLEXIBLE
        | EXPECTED_LMD_NOT_GMD
        | EXPECTED_MIXED_GMD
        | EXPECTED_GMD
    )
    return {name for name in every if (int(name[3:].split("-")[0]) <= 3) == (n == 3)}


def expected_class(name: str) -> str:
    if name in EXPECTED_NOT_REALIZABLE:
        return "not realizable"
    if name in EXPECTED_FLEXIBLE:
        return "realizable, never locally maximally dense"
    if name in EXPECTED_LMD_NOT_GMD:
        return "locally but never globally maximally dense"
    if name in EXPECTED_MIXED_GMD:
        return "globally maximally dense on part of the moduli strip"
    if name in EXPECTED_GMD:
        return "globally maximally dense"
    return "unnamed"
