"""Optimal packings of 2, 3 and 4 equal circles on flat tori.

Closed-form radii and centers for every torus in the unoriented moduli
strip, the full discovery pipeline (multigraph census, toroidal embedding
enumeration, combinatorial filters, numerical realization, exact rigidity
certificates), a max-min numerical oracle, and SVG figures.
"""

from .census import Multigraph, enumerate_census
from .closed_form import OptimalSolution, optimal_centers, optimal_radius, tangency_census
from .embedding import (
    EmbeddedGraph,
    RotationSystem,
    enumerate_toroidal,
    forbidden_face_filter,
    parallel_chain_filter,
    trace_faces,
)
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
from .oracle import (
    OracleResult,
    RealizationSample,
    compare_with_closed_form,
    compare_with_closed_forms,
    maximize_min_distance,
    maximize_min_distances,
    realize_embedding,
)
from .regions import RegionId, classify, in_free_region, self_tangent_boundary
from .rigidity import (
    FlexVector,
    Stress,
    StrutFramework,
    build_framework,
    classify_packing,
    decide_rigidity,
)

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
