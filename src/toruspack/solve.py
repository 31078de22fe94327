"""The closed-form answer for one torus, as `toruspack solve` prints it.

Imports only the closed-form half of the package (lattice, regions,
closed_form, packing), so the CLI's solve path never loads the catalog.
"""
from __future__ import annotations

from .closed_form import optimal_centers
from .lattice import DEFAULT_TOL, LatticeBasis, reduce_to_standard_basis
from .packing import SCHEMA_VERSION, Packing, density, extract_graph, graph_to_dict, packing_to_dict


def solve_report(n: int, v1, v2, tol: float = DEFAULT_TOL) -> dict:
    m, rec = reduce_to_standard_basis(LatticeBasis(tuple(v1), tuple(v2)))
    sol = optimal_centers(n, m)
    region = sol.region
    p = Packing(m=m, centers=sol.centers, radius=sol.radius)
    g = extract_graph(p, tol=tol)
    return {
        "schema": SCHEMA_VERSION,
        "n": n,
        "input": {"v1": list(v1), "v2": list(v2)},
        "moduli": {"x": m.x, "y": m.y},
        "scale": rec.scale,
        "reflected": rec.reflected,
        "unimodular": [list(r) for r in rec.unimodular],
        "region": region.name,
        "boundary_flags": sorted(region.boundary_flags),
        "radius": sol.radius,
        "radius_original_units": sol.radius / rec.scale,
        "aux_R": sol.aux_R,
        "density": density(p),
        "tangencies": len(g.edges),
        "packing": packing_to_dict(p),
        "graph": graph_to_dict(g),
    }
