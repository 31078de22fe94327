"""Optimal packings of 2, 3 and 4 equal circles on flat tori.

Closed-form radii and centers for every torus in the unoriented moduli
strip, the full discovery pipeline (multigraph census, toroidal embedding
enumeration, combinatorial filters, numerical realization, exact rigidity
certificates), a max-min numerical oracle, and SVG figures.

`import toruspack` loads the closed-form half (errors, lattice, regions,
closed_form, packing), which runs on the standard library alone: numpy is
imported only by `render` and by the catalog half's `realization` and
`oracle`, and `numpy.random` by none (seeded draws come from `stream`).
The catalog half's names are imported from their own modules (census,
embedding, oracle, realization, rigidity): `from toruspack.rigidity import
classify_packing`.
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
)
from .packing import (
    Packing,
    PackingGraph,
    angle_gaps,
    density,
    extract_graph,
    max_radius_for_centers,
)
from .regions import RegionId, classify, in_free_region, self_tangent_boundary

__version__ = "0.1.0"

__all__ = [
    "AlphaOutOfRange",
    "BasisReduction",
    "CertificateCheckFailed",
    "DegenerateLattice",
    "Displacement",
    "InconsistentLengths",
    "LatticeBasis",
    "ModuliPoint",
    "NoTorusEmbedding",
    "OptimalSolution",
    "OutOfModuliStrip",
    "OverlapDetected",
    "Packing",
    "PackingGraph",
    "RegionId",
    "TorusPackError",
    "TorusPoint",
    "UnsupportedN",
    "angle_gaps",
    "classify",
    "density",
    "extract_graph",
    "fundamental_domain_area",
    "in_free_region",
    "max_radius_for_centers",
    "optimal_centers",
    "optimal_radius",
    "reduce_to_standard_basis",
    "self_tangent_boundary",
    "tangency_census",
    "torus_distance",
]
