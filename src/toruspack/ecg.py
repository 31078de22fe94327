"""Naming the surviving embedded graphs from the published catalog.

PUBLISHED is the catalog: each ECG name with its published class and, for
the "globally" names, an anchor torus.  Combinatorial graphs are numbered
1..3 (three vertices) and 4..23 (four vertices) in edge-count blocks, and
the embeddings of graph k are named ECGk-j.  One rule, computed in one
pass, reads every name off the table:

  * graphs: the closed-form optimum at an anchor torus fixes the CG number
    of the graph its embedding lies on.  A CG whose published names are
    all unanchored takes the one unnumbered graph of its edge-count block
    with as many survivors as it has names, and each block takes its free
    numbers in canonical order;
  * embeddings: an anchored embedding takes its anchor's name (a globally
    optimal packing graph).  The other survivors of a CG are probed by
    seeded realization attempts plus the rigidity test (classes 'rigid',
    'flexible', 'none') and take the indices j that its anchors leave free,
    by probe class, in the order in which the readings (READING) of the
    CG's unanchored published names first appear by j, and canonically
    within a class.  Where those names show two readings or more, a probe
    class outside them raises.  The witness of a probe class is the sample
    that fixes it, the first rigid sample or else the first, with its
    rigidity decision.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import count, groupby
from typing import NamedTuple

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
from .lattice import ModuliPoint
from .packing import Packing, contacts
from .realization import REALIZATION_CLEARANCE, RealizationSample, realize_embedding
from .regions import SQRT3, boundary_curve
from .rigidity import RigidityDecision, build_framework, decide_rigidity

# the CG numbers of each vertex count
_CG_NUMBERS = {3: range(1, 4), 4: range(4, 24)}

# the published classes
NOT_REALIZABLE = "not realizable"
FLEXIBLE = "realizable, never locally maximally dense"
LMD_NOT_GMD = "locally but never globally maximally dense"
MIXED_GMD = "globally maximally dense on part of the moduli strip"
GMD = "globally maximally dense"

# published class -> the reading the pipeline must show for it: the probe
# class of an unanchored survivor, or 'anchored'
READING = {
    NOT_REALIZABLE: "none",
    FLEXIBLE: "flexible",
    LMD_NOT_GMD: "rigid",
    MIXED_GMD: "anchored",
    GMD: "anchored",
}

# the published catalog: name -> (class, anchor torus).  The closed-form
# optimum at an anchor torus realizes the named embedding; the "globally"
# names carry one, the others None.
PUBLISHED = {
    "ECG1-1": (MIXED_GMD, ModuliPoint(0.15, 1.05)),
    "ECG1-2": (GMD, ModuliPoint(0.15, 1.5)),
    "ECG2-1": (GMD, ModuliPoint(0.15, boundary_curve(3, 1, 0.15))),
    "ECG2-2": (FLEXIBLE, None),
    "ECG2-3": (GMD, ModuliPoint(0.5, 1.5)),
    "ECG3-1": (GMD, ModuliPoint(0.5, SQRT3 / 2)),
    "ECG4-1": (FLEXIBLE, None),
    "ECG4-2": (LMD_NOT_GMD, None),
    "ECG4-3": (NOT_REALIZABLE, None),
    "ECG4-4": (NOT_REALIZABLE, None),
    "ECG6-1": (FLEXIBLE, None),
    "ECG7-1": (GMD, ModuliPoint(0.25, 2.0)),
    "ECG9-1": (MIXED_GMD, ModuliPoint(0.25, 1.3)),
    "ECG9-2": (NOT_REALIZABLE, None),
    "ECG9-3": (NOT_REALIZABLE, None),
    "ECG9-4": (FLEXIBLE, None),
    "ECG10-1": (NOT_REALIZABLE, None),
    "ECG10-2": (NOT_REALIZABLE, None),
    "ECG12-1": (NOT_REALIZABLE, None),
    "ECG13-1": (GMD, ModuliPoint(0.0, 2.0)),
    "ECG13-2": (FLEXIBLE, None),
    "ECG16-1": (GMD, ModuliPoint(0.25, boundary_curve(4, 2, 0.25))),
    "ECG18-1": (GMD, ModuliPoint(0.1, 1.0)),
    "ECG20-1": (GMD, ModuliPoint(0.0, 1.05)),
    "ECG20-2": (GMD, ModuliPoint(0.25, boundary_curve(4, 1, 0.25))),
    "ECG23-1": (GMD, ModuliPoint(0.5, SQRT3 / 2)),
    "ECG23-2": (GMD, ModuliPoint(0.0, 2 / SQRT3)),
}

REALIZE_ATTEMPTS = 240
REALIZE_SEED = 2026


class EcgEntry(NamedTuple):
    name: str | None
    cg: int
    embedding: EmbeddedGraph
    forbidden_reason: str | None
    chain_reason: str | None
    realization_class: str | None  # 'rigid', 'flexible', 'none'; None if anchored or filtered
    # the probe's retained realizations (unanchored survivors only)
    samples: tuple[RealizationSample, ...]
    # the sample that fixes realization_class (the first rigid one, else
    # samples[0]) and its rigidity decision: the pipeline's witness
    witness: tuple[RealizationSample, RigidityDecision] | None
    # anchored names: the torus whose closed-form optimum realizes this
    # embedding, a globally optimal witness
    anchor: ModuliPoint | None

    @property
    def survives_filters(self) -> bool:
        return self.forbidden_reason is None and self.chain_reason is None

    @property
    def decided_samples(self) -> tuple[RealizationSample, ...]:
        """The samples the probe decided: up to the rigid witness, else all."""
        if self.realization_class == "rigid":
            return self.samples[: self.samples.index(self.witness[0]) + 1]
        return self.samples


class EcgCatalog(NamedTuple):
    n: int
    entries: tuple[EcgEntry, ...]

    def by_name(self, name: str) -> EcgEntry:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def survivors(self) -> tuple[EcgEntry, ...]:
        return tuple(e for e in self.entries if e.survives_filters)


def _cg_j(name: str) -> tuple[int, int]:
    """(k, j) of the name ECGk-j."""
    k, j = name[3:].split("-")
    return int(k), int(j)


def _anchor_form(n: int, m: ModuliPoint) -> bytes:
    sol = optimal_centers(n, m)
    p = Packing(m=m, centers=sol.centers, radius=sol.radius)
    return embedding_from_packing(*contacts(p)).canonical_form


def _filter_reasons(e: EmbeddedGraph) -> tuple[str | None, str | None]:
    """Why the forbidden-face and the parallel-chain filter drop e, None
    where one keeps it; the chain filter sees only what the first keeps."""
    fv = forbidden_face_filter(e)
    if not fv.keep:
        return fv.reason, None
    cv = parallel_chain_filter(e)
    return None, None if cv.keep else cv.reason


def _probe_realization(
    e: EmbeddedGraph,
) -> tuple[str, tuple[RealizationSample, ...], tuple[RealizationSample, RigidityDecision] | None]:
    """The retained samples, classed 'rigid' if any of them is
    infinitesimally rigid (the family is locally maximally dense
    somewhere), else 'flexible', or 'none' when nothing realized, and the
    witness of that class: the first rigid sample, else the first, with
    its rigidity decision.  Samples are decided in order, up to the first
    rigid one."""
    samples = tuple(
        realize_embedding(e, attempts=REALIZE_ATTEMPTS, seed=REALIZE_SEED, max_samples=8)
    )
    witness = None
    for s in samples:
        p = Packing(m=s.m, centers=s.centers, radius=s.edge_length / 2)
        # the framework at the tolerance the sample's graph was read at
        decision = decide_rigidity(build_framework(p, s.graph, tol=REALIZATION_CLEARANCE))
        if decision.rigid:
            return "rigid", samples, (s, decision)
        witness = witness or (s, decision)
    return ("flexible" if samples else "none"), samples, witness


def _class_rank(cg: int, order: tuple[str, ...], cls: str) -> int:
    """Place of a probe class in the CG's published order (0 where its
    published names show fewer than two readings)."""
    if len(order) < 2:
        return 0
    if cls not in order:
        raise AssertionError(f"ECG{cg}: probe class {cls!r} is not in the published order {order}")
    return order.index(cls)


@lru_cache(maxsize=None)
def identify(n: int) -> EcgCatalog:
    if n not in _CG_NUMBERS:
        raise UnsupportedN(f"the census pipeline handles n in {{3, 4}}, got {n}")
    numbers = _CG_NUMBERS[n]
    graphs = enumerate_census(n).stage3
    embeddings = [[(e, *_filter_reasons(e)) for e in enumerate_toroidal(g)] for g in graphs]
    survivors = [[e for e, fr, cr in embs if fr is None and cr is None] for embs in embeddings]
    # the published table's anchors, and per CG the readings of its
    # unanchored names in index order
    anchors, readings = {}, {cg: [] for cg in numbers}
    for name in sorted(expected_names(n), key=_cg_j):
        cls, anchor = PUBLISHED[name]
        if anchor is None:
            readings[_cg_j(name)[0]].append(READING[cls])
        else:
            form = _anchor_form(n, anchor)
            if form in anchors:
                raise AssertionError(f"anchors {anchors[form]} and {name} realize one embedding")
            anchors[form] = name

    # graphs: anchors fix some CG numbers
    graph_of = {e.canonical_form: k for k, embs in enumerate(embeddings) for e, _, _ in embs}
    cg_of = {}
    for form, name in anchors.items():
        if form not in graph_of:
            raise AssertionError(f"anchor {name} did not match any embedding")
        cg_of[graph_of[form]] = _cg_j(name)[0]
    for _, block in groupby(range(len(graphs)), key=lambda k: graphs[k].edge_count):
        block = list(block)
        ids = numbers[block[0]:block[-1] + 1]
        # a CG with published names and no anchored one takes the one
        # unnumbered graph of its block with as many survivors as names
        for cg in ids:
            if readings[cg] and cg not in cg_of.values():
                cands = [k for k in block if k not in cg_of and len(survivors[k]) == len(readings[cg])]
                if len(cands) != 1:
                    raise AssertionError(f"survivor fingerprint ({graphs[block[0]].edge_count} edges,"
                                         f" {len(readings[cg])} survivors) matched {len(cands)} graphs")
                cg_of[cands[0]] = cg
        # then the block takes its free numbers in canonical order
        fixed = {cg_of[k] for k in block if k in cg_of}
        if not fixed <= set(ids):
            raise AssertionError("a fixed CG number escaped its edge-count block")
        cg_of.update(zip([k for k in block if k not in cg_of], (j for j in ids if j not in fixed)))

    # embeddings: anchored ones take their anchor's name, the other
    # survivors the indices j their anchors leave free, ordered by the
    # readings of the CG's published names
    entries = []
    for k, embs in enumerate(embeddings):
        cg = cg_of[k]
        order = tuple(dict.fromkeys(readings[cg]))
        probes = {e.canonical_form: _probe_realization(e)
                  for e in survivors[k] if e.canonical_form not in anchors}
        taken = {_cg_j(anchors[e.canonical_form])[1]
                 for e, _, _ in embs if e.canonical_form in anchors}
        unnamed = sorted(probes, key=lambda f: _class_rank(cg, order, probes[f][0]))
        names = dict(zip(unnamed, (f"ECG{cg}-{j}" for j in count(1) if j not in taken)))
        for e, fr, cr in embs:
            anchor = anchors.get(e.canonical_form)
            cls, samples, witness = probes.get(e.canonical_form, (None, (), None))
            entries.append(EcgEntry(
                name=anchor or names.get(e.canonical_form),
                cg=cg,
                embedding=e,
                forbidden_reason=fr,
                chain_reason=cr,
                realization_class=cls,
                samples=samples,
                witness=witness,
                anchor=PUBLISHED[anchor][1] if anchor else None,
            ))
    return EcgCatalog(n=n, entries=tuple(entries))


def expected_names(n: int) -> set[str]:
    """Published names of n-vertex embeddings (CG1-CG3 have three vertices)."""
    return {name for name in PUBLISHED if _cg_j(name)[0] in _CG_NUMBERS[n]}


def expected_class(name: str | None) -> str:
    return PUBLISHED[name][0] if name in PUBLISHED else "unnamed"
