"""Moduli-strip regions for 2, 3 and 4 circles, and the self-tangent boundary.

The optimal radius is piecewise-analytic over the strip; the pieces are
stacked vertically and separated by circle/line arcs.  Region membership
uses closed lower bounds and open upper bounds on each curve's float value
at x, so within a few ulps of a curve the rounding decides:
(0.49999957015004626, 0.8660256519584252) lies above y = (2 - x)/sqrt(3)
yet lands in R1_4.  Such tori carry an advisory boundary flag (BOUNDARY_TOL).
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import AlphaOutOfRange, UnsupportedN
from .lattice import ModuliPoint

if TYPE_CHECKING:
    import numpy as np

    from .stream import Stream

SQRT3 = math.sqrt(3.0)

BOUNDARY_TOL = 1e-9


def _strip_bottom(x: float) -> float:
    return math.sqrt(max(1.0 - x * x, 0.0))


# The strip bottom, then the upper boundary curves of the regions, bottom-up;
# the last region is unbounded above.  Region i (1-based) is
# curve[i-1](x) <= y < curve[i](x).
_CURVES = {
    2: [
        _strip_bottom,
        lambda x: math.sqrt(max(1.0 - (x - 0.5) ** 2, 0.0)) + SQRT3 / 2,
    ],
    3: [
        _strip_bottom,
        lambda x: math.sqrt(max(1.0 / 3.0 - x * x, 0.0)) + SQRT3 / 3,
        lambda x: math.sqrt(max(1.0 - x * x, 0.0)) + SQRT3,
    ],
    4: [
        _strip_bottom,
        lambda x: (2.0 - x) / SQRT3,
        lambda x: math.sqrt(max(1.0 / 3.0 - (x - 0.5) ** 2, 0.0)) + SQRT3 / 2,
        lambda x: math.sqrt(max(1.0 - (x - 0.5) ** 2, 0.0)) + 3 * SQRT3 / 2,
    ],
}


def region_count(n: int) -> int:
    _check_n(n)
    return len(_CURVES[n])


def boundary_curve(n: int, index: int, x: float) -> float:
    """y-value of the upper boundary of region `index` (1-based) at x;
    index 0 gives the strip bottom, the lower bound of region 1."""
    _check_n(n)
    curves = _CURVES[n]
    if not 0 <= index < len(curves):
        raise ValueError(f"region {index} of n={n} has no upper boundary curve")
    return curves[index](x)


def _check_n(n: int) -> None:
    if n not in (2, 3, 4):
        raise UnsupportedN(f"n must be 2, 3 or 4, got {n}")


class RegionId(NamedTuple):
    n: int
    index: int
    boundary_flags: frozenset[str]

    @property
    def name(self) -> str:
        return f"R{self.index}_{self.n}"

    @property
    def is_free(self) -> bool:
        """The topmost (radius 1/2, self-tangent) region."""
        return self.index == region_count(self.n)

    def __str__(self) -> str:
        return self.name


def classify(n: int, m: ModuliPoint) -> RegionId:
    """Locate m in the region table for n circles.

    Lower bounds are closed, upper bounds open, on the curves' float values
    (see the module docstring).  Points within strip validation slack below
    the bottom curve fall into region 1.
    """
    _check_n(n)
    curves = _CURVES[n]
    x, y = m.x, m.y
    index = len(curves)  # top region if nothing below matches
    for i in range(1, len(curves)):
        if y < curves[i](x):
            index = i
            break
    flags = set()
    lower = curves[index - 1](x)
    if abs(y - lower) <= BOUNDARY_TOL:
        flags.add("lower")
    if index < len(curves) and abs(y - curves[index](x)) <= BOUNDARY_TOL:
        flags.add("upper")
    if abs(x) <= BOUNDARY_TOL:
        flags.add("left")
    if abs(x - 0.5) <= BOUNDARY_TOL:
        flags.add("right")
    return RegionId(n, index, frozenset(flags))


def self_tangent_boundary(n: int, alpha: float) -> ModuliPoint:
    """Torus whose optimal packing is the layered self-tangent family.

    For the layer wrap angle alpha in [pi/3, pi/2] the second generator is
    <x, (n-1)/2*sqrt(3) + sin(alpha)> with x = 1/2 - cos(alpha) for even n
    and x = cos(alpha) for odd n.
    """
    _check_n(n)
    # no slack: acos(0.5), radians(60), asin(1), linspace's ends land inside
    if not (math.pi / 3 <= alpha <= math.pi / 2):
        raise AlphaOutOfRange(f"alpha = {alpha} outside [pi/3, pi/2]")
    x = 0.5 - math.cos(alpha) if n % 2 == 0 else math.cos(alpha)
    # onto the walls: cos(pi/3) rounds to 0.5000000000000001
    x = min(max(x, 0.0), 0.5)
    y = (n - 1) / 2 * SQRT3 + math.sin(alpha)
    return ModuliPoint(x, y)


def in_free_region(n: int, m: ModuliPoint) -> bool:
    """True iff every optimal packing consists of free self-tangent circles
    (strictly above the self-tangent boundary curve)."""
    return m.y > boundary_curve(n, region_count(n) - 1, m.x)


# ---------------------------------------------------------------------------
# seeded samplers used by the verification CLI and the test suite; rng is
# anything with numpy's scalar uniform(lo, hi)

_TOP_REGION_HEIGHT = 2.0


# Share of a column's height kept clear of its region's curves when sampling.
_INTERIOR_MARGIN = 1e-3


def sample_interior(n: int, index: int, rng: Stream | np.random.Generator) -> ModuliPoint:
    """Uniform-ish sample strictly inside region `index`."""
    _check_n(n)
    curves = _CURVES[n]
    if not 1 <= index <= len(curves):
        raise ValueError(f"no region {index} for n={n}")
    for _ in range(1000):
        x = float(rng.uniform(0.0, 0.5))
        lo = curves[index - 1](x)
        hi = curves[index](x) if index < len(curves) else lo + _TOP_REGION_HEIGHT
        gap = hi - lo
        if gap <= 4 * _INTERIOR_MARGIN * max(gap, 1.0):
            continue  # pinched column (e.g. R2_4 near x = 0)
        pad = _INTERIOR_MARGIN * gap
        y = float(rng.uniform(lo + pad, hi - pad))
        m = ModuliPoint(x, y)
        if classify(n, m).index == index:
            return m
    raise RuntimeError(f"could not sample interior of R{index}_{n}")


def sample_boundary(n: int, index: int, rng: Stream | np.random.Generator) -> ModuliPoint:
    """Point exactly on the upper boundary curve of region `index`."""
    x = float(rng.uniform(0.0, 0.5))
    return ModuliPoint(x, boundary_curve(n, index, x))
