"""Optimal packings of 2, 3 and 4 equal circles on flat tori.

Closed-form radii and centers for every torus in the unoriented moduli
strip, the full discovery pipeline (multigraph census, toroidal embedding
enumeration, combinatorial filters, numerical realization, exact rigidity
certificates), a max-min numerical oracle, and SVG figures.

`import toruspack` loads the closed-form half (errors, lattice, regions,
closed_form, packing).  The catalog half's exports (census, embedding,
oracle, rigidity) are imported from their modules on first access.
"""

from .closed_form import OptimalSolution, optimal_centers, optimal_radius, tangency_census
from .errors import (
    AlphaOutOfRange,
    CertificateCheckFailed,
    DegenerateLattice,
    InconsistentLengths,
    NoTorusEmbedding,
    OutOfModuliStrip,
    OverlapDetected,
    TorusPackError,
    UnsupportedN,
)
from .lattice import (
    BasisReduction,
    Displacement,
    LatticeBasis,
    ModuliPoint,
    TorusPoint,
    fundamental_domain_area,
    reduce_to_standard_basis,
    torus_distance,
    wrapped_translates,
)
from .packing import (
    Packing,
    PackingGraph,
    TangencyReport,
    angle_spectrum,
    density,
    extract_graph,
    max_radius_for_centers,
)
from .regions import RegionId, classify, in_free_region, self_tangent_boundary

# export -> the catalog-half module that defines it, imported on first access
_LAZY = {
    "Multigraph": "census",
    "enumerate_census": "census",
    "EmbeddedGraph": "embedding",
    "RotationSystem": "embedding",
    "enumerate_toroidal": "embedding",
    "forbidden_face_filter": "embedding",
    "parallel_chain_filter": "embedding",
    "trace_faces": "embedding",
    "OracleResult": "oracle",
    "RealizationSample": "oracle",
    "compare_with_closed_form": "oracle",
    "compare_with_closed_forms": "oracle",
    "maximize_min_distance": "oracle",
    "maximize_min_distances": "oracle",
    "realize_embedding": "oracle",
    "FlexVector": "rigidity",
    "Stress": "rigidity",
    "StrutFramework": "rigidity",
    "build_framework": "rigidity",
    "classify_packing": "rigidity",
    "decide_rigidity": "rigidity",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "AlphaOutOfRange",
    "BasisReduction",
    "CertificateCheckFailed",
    "DegenerateLattice",
    "Displacement",
    "EmbeddedGraph",
    "FlexVector",
    "InconsistentLengths",
    "LatticeBasis",
    "ModuliPoint",
    "Multigraph",
    "NoTorusEmbedding",
    "OptimalSolution",
    "OracleResult",
    "OutOfModuliStrip",
    "OverlapDetected",
    "Packing",
    "PackingGraph",
    "RealizationSample",
    "RegionId",
    "RotationSystem",
    "Stress",
    "StrutFramework",
    "TangencyReport",
    "TorusPackError",
    "TorusPoint",
    "UnsupportedN",
    "angle_spectrum",
    "build_framework",
    "classify",
    "classify_packing",
    "compare_with_closed_form",
    "compare_with_closed_forms",
    "decide_rigidity",
    "density",
    "enumerate_census",
    "enumerate_toroidal",
    "extract_graph",
    "forbidden_face_filter",
    "fundamental_domain_area",
    "in_free_region",
    "max_radius_for_centers",
    "maximize_min_distance",
    "maximize_min_distances",
    "optimal_centers",
    "optimal_radius",
    "parallel_chain_filter",
    "realize_embedding",
    "reduce_to_standard_basis",
    "self_tangent_boundary",
    "tangency_census",
    "torus_distance",
    "trace_faces",
    "wrapped_translates",
]
