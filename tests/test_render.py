import math
import re

import numpy as np
import pytest

from toruspack import render
from toruspack.closed_form import optimal_centers
from toruspack.lattice import ModuliPoint, TorusPoint
from toruspack.packing import Packing, extract_graph
from toruspack.render import FigureSpec, render_packing

SQRT3 = math.sqrt(3.0)


def optimal_packing(n, m):
    sol = optimal_centers(n, m)
    return Packing(m=m, centers=sol.centers, radius=sol.radius)


def test_packing_svg_deterministic():
    p = optimal_packing(2, ModuliPoint(0, 1))
    g = extract_graph(p)
    a = render_packing(p, g, FigureSpec())
    b = render_packing(p, g, FigureSpec())
    assert a == b
    assert a.startswith("<?xml")
    assert a.count("<circle") >= 2
    assert a.count("<line") == 4
    assert "<text" in a


def test_figure_size_is_positive_and_finite():
    for size in (0, -480, math.nan, math.inf):
        with pytest.raises(ValueError, match="figure size must be positive and finite"):
            FigureSpec(size)
    assert FigureSpec(size=1e-3).size == 1e-3


def test_packing_edge_lengths():
    m = ModuliPoint(0.2, 1.4)
    p = optimal_packing(3, m)
    g = extract_graph(p)
    svg = render_packing(p, g, FigureSpec(size=400))
    lines = re.findall(
        r'<line x1="([-\d.]+)" y1="([-\d.]+)" x2="([-\d.]+)" y2="([-\d.]+)"', svg
    )
    assert len(lines) == len(g.edges)
    # recover the scale from the drawn fundamental domain width
    # edges must all have the same pixel length 2r*scale
    lens = [
        math.hypot(float(x2) - float(x1), float(y2) - float(y1))
        for x1, y1, x2, y2 in lines
    ]
    assert max(lens) - min(lens) < 1e-3
    # model-space assertion via ratio to radius
    pix_per_unit = lens[0] / (2 * p.radius)
    for L in lens:
        assert abs(L / pix_per_unit - 2 * p.radius) < 1e-6


def test_selftangent_loop_rendered():
    p = Packing(m=ModuliPoint(0, 2), centers=(TorusPoint(0, 0),), radius=0.5)
    g = extract_graph(p)
    svg = render_packing(p, g, FigureSpec())
    assert svg.count("<line") == 1


def test_centers_canonicalized_once(monkeypatch):
    # the lifts, the tangency edges and the labels share one canonical
    # point per center
    p = optimal_packing(4, ModuliPoint(0.1, 1.0))
    g = extract_graph(p)
    calls = []
    canonical = TorusPoint.canonical
    monkeypatch.setattr(TorusPoint, "canonical", lambda c, m: calls.append(c) or canonical(c, m))
    render_packing(p, g, FigureSpec())
    assert len(calls) == p.n == 4


def test_lift_touching_the_domain_up_to_rounding_is_drawn():
    # n = 3 on the hexagonal torus: the lift of circle 1 at (0, 1/sqrt(3))
    # touches the domain's left edge, and rounding puts it 5.6e-17 outside
    m = ModuliPoint(0.5, SQRT3 / 2)
    p = optimal_packing(3, m)
    q = np.array(p.centers[1]) - (1.0, 0.0)
    edge = np.array([m.x, m.y])
    gap = float(np.hypot(*(q @ edge / (edge @ edge) * edge - q))) - p.radius
    assert 0 < gap < 1e-16
    assert render._disk_meets_domain(q, p.radius, m)


def test_empty_packing():
    p = Packing(m=ModuliPoint(0, 1), centers=(), radius=0.1)
    g = extract_graph(p)
    svg = render_packing(p, g, FigureSpec())
    assert "<polyline" in svg and "</svg>" in svg

