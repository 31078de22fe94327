"""Deterministic SVG figures of packings in the fundamental domain.

No timestamps, no randomness; numbers are printed with fixed precision so
identical inputs yield byte-identical documents.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .lattice import ModuliPoint, TorusPoint
from .packing import Packing, PackingGraph

_FMT = "{:.6f}"
_STROKE_WIDTH = 1.5
# A disk touching the domain up to rounding meets it, so whether a touching
# lift is drawn does not hang on a bit: over 9036 sampled tori, a lift misses
# the domain by at most 3.3e-16 or by at least 4.5e-6 (README, Tolerances).
_DOMAIN_TOUCH_SLACK = 1e-12


def _f(x: float) -> str:
    out = _FMT.format(float(x))
    return "0.000000" if out == "-0.000000" else out


class _FigureFields(NamedTuple):
    size: int = 480


class FigureSpec(_FigureFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):  # the default stays on _FigureFields
        self = super().__new__(cls, *args, **kwargs)
        if not 0 < self.size < math.inf:
            raise ValueError("figure size must be positive and finite")
        return self

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check there too
        return cls(*iterable)


def _svg_header(width: float, height: float) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_f(width)}" height="{_f(height)}" '
        f'viewBox="0 0 {_f(width)} {_f(height)}">\n'
    )


def render_packing(p: Packing, g: PackingGraph, spec: FigureSpec) -> str:
    """The fundamental domain, every circle lift meeting it, tangency edges
    and circle labels."""
    m = p.m
    v1 = np.array([1.0, 0.0])
    v2 = np.array([m.x, m.y])
    corners = np.array([[0, 0], v1, v1 + v2, v2, [0, 0]], float)
    lo = corners.min(axis=0) - p.radius - 0.05
    hi = corners.max(axis=0) + p.radius + 0.05
    scale = spec.size / max(hi - lo)
    H = (hi[1] - lo[1]) * scale

    def X(q):
        return (q[0] - lo[0]) * scale

    def Y(q):
        return H - (q[1] - lo[1]) * scale  # flip to math orientation

    parts = [_svg_header((hi[0] - lo[0]) * scale, H)]
    parts.append(
        '<rect width="100%" height="100%" fill="white"/>\n'
    )
    canon = [np.array(c.canonical(m)) for c in p.centers]
    # circle lifts whose disk meets the closed fundamental domain
    lifts = []
    for idx, base in enumerate(canon):
        for a in range(-2, 3):
            for b in range(-2, 3):
                q = base + a * v1 + b * v2
                if _disk_meets_domain(q, p.radius, m):
                    lifts.append((idx, q))
    for idx, q in sorted(lifts, key=lambda t: (t[0], round(t[1][0], 9), round(t[1][1], 9))):
        parts.append(
            f'<circle cx="{_f(X(q))}" cy="{_f(Y(q))}" r="{_f(p.radius * scale)}" '
            f'fill="#dce9f5" stroke="#39618f" stroke-width="{_f(_STROKE_WIDTH)}"/>\n'
        )
    # fundamental domain outline
    pts = " ".join(f"{_f(X(q))},{_f(Y(q))}" for q in corners)
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="black" '
        f'stroke-width="{_f(_STROKE_WIDTH)}"/>\n'
    )
    # tangency edges from each canonical representative
    for i, j, d in g.edges:
        a, b = canon[i], canon[j] + (d.a + d.b * m.x, d.b * m.y)
        parts.append(
            f'<line x1="{_f(X(a))}" y1="{_f(Y(a))}" x2="{_f(X(b))}" y2="{_f(Y(b))}" '
            f'stroke="#c0392b" stroke-width="{_f(_STROKE_WIDTH)}"/>\n'
        )
    for idx, q in enumerate(canon):
        parts.append(
            f'<text x="{_f(X(q))}" y="{_f(Y(q))}" font-size="{_f(scale * 0.08)}" '
            f'text-anchor="middle" dominant-baseline="middle">{idx}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def _disk_meets_domain(q, r, m: ModuliPoint) -> bool:
    """Disk of radius r at q intersects the closed fundamental domain."""
    corners = np.array([[0, 0], [1, 0], [1 + m.x, m.y], [m.x, m.y]], float)
    t1, t2 = TorusPoint(*q).lattice_coords(m)
    if 0 <= t1 <= 1 and 0 <= t2 <= 1:
        return True
    best = math.inf
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        ab = b - a
        t = float(np.clip((q - a) @ ab / (ab @ ab), 0.0, 1.0))
        best = min(best, float(np.hypot(*(a + t * ab - q))))
    return best <= r + _DOMAIN_TOUCH_SLACK

