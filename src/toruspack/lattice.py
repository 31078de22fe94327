"""Flat tori: standard-basis reduction and the one translate window.

A flat torus is the plane modulo the lattice of two independent vectors.
Rescaled and relabeled, the generators become <1,0> and <x,y> with
x^2 + y^2 >= 1, y > 0 and 0 <= x <= 1/2 (the unoriented moduli strip), the
normal form everything downstream assumes; a ModuliPoint cannot be built
outside it.  Every distance reads one window: for two circles the 4 corners
of their difference's lattice cell (`corner_translates`, which the oracle's
array kernel `_corner_arrays` matches bit for bit), for a circle's own
translates the 3 LOOP_SHIFTS.  The module runs on the standard library
alone, so `solve` loads no numpy.

Why it suffices.  A translate t has squared length
Q = (t1 + x t2)^2 + y^2 t2^2, and the corners take per coordinate two values
l_c <= 0 <= l_c + 1, the nearer m_c <= 1/2 from 0.  Weights 1 + l_c and -l_c
give coordinate c mean 0 and mean square m_c (1 - m_c), so Q's weighted mean
over the corners of a row, or over all four, is at least d0^2, d0 the
shortest corner.  With x <= 1/2 and y^2 >= 1 - x^2, Q off the corners exceeds
one such mean by at least 1/2: off both rows (|t2| >= 1 + m_2, Q >=
y^2 t2^2), the four's, by 1/2 + m_2/2; on the near row (|t2| = m_2,
|t1| >= 1 + m_1), that row's, by t1^2 + 2x t1 t2 - m_1 (1 - m_1) >= 1/2 + m_1/2;
on the far row, the near row's, by (|t1| - x (1 - m_2))^2 - m_1 (1 - m_1)
+ y^2 (1 - 2 m_2) - x^2 m_2^2 >= 2 (1 - x)(1 - m_2) >= 1/2.  Hence:
  1. for two circles the nearest translate and its ties are corners (the
     Delaunay fact of Conway & Sloane, Sphere Packings, Lattices and Groups,
     ch. 2), and a translate of length at most L off the corners is at least
     L - sqrt(L^2 - 1/2) longer than the nearest: 0.2929 at L = 1 (sharp at
     x = 1/2, y = sqrt(7)/2, difference (0, 1/2)), 0.2305 at L = 1.2;
  2. the LOOP_SHIFTS hold every loop shorter than sqrt(2), up to sign, and
     v1 is the shortest: |v2| >= 1, |v2 - v1|^2 >= 2 - 2x >= 1,
     |v1 + v2|^2 >= 2, and |b| >= 2 or |a + b x| >= 3/2 on the other a v1 + b v2.
A contact of a packing that does not overlap is at most 1 + 2 tol long and
within 2 tol of its pair's d0 (2r - tol <= 1 and <= d0), so both claims hold
every contact at tol <= TOL_CEIL = 0.1 (2 tol = 0.2 < 0.2305 at L = 1.2).
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateLattice, OutOfModuliStrip

# Absolute tolerance for reading tangencies off a packing; the default of
# packing.extract_graph and of every caller that reads a closed-form optimum.
DEFAULT_TOL = 1e-9

# A basis is degenerate when |v1 x v2| <= DEGENERATE_BASIS_TOL |v|^2, v the
# longer vector: sin(angle) |short| / |long| that small is cross-product
# rounding of a near-parallel basis, or a torus thinner than 1 : 1e12.  A sine
# alone would admit (1, 0), (0.3, 1e300), whose figure overflows in render.
DEGENERATE_BASIS_TOL = 1e-12

# Slack below the strip's bottom arc x^2 + y^2 = 1 alone: a point computed
# to lie on the arc can miss it by float noise (e.g. (1/2, sqrt(3)/2) has
# x^2 + y^2 = 1 - 1e-16).  reduce_to_standard_basis on 2 x 100 000 random
# bases (unimodular change, rotation, reflection, scale 10^+-2) of points
# on the arc, both corners included, landed at most 1.8e-15 below it, so
# 1e-12 keeps a margin of over 500x.  It also leaves DEFAULT_TOL a margin:
# the lowest torus it admits on x = 1/2 is (0.5, 0.8660254037838613), where
# the n = 4 layout overlaps by 1.0e-12.  The walls x = 0 and x = 1/2 get no
# slack: the reduction and every sampler build x in [0, 1/2] exactly, and
# past a wall the closed-form layouts overlap by more than DEFAULT_TOL.
_STRIP_EPS = 1e-12


class LatticeBasis(NamedTuple):
    """Two plane vectors spanning a lattice."""

    v1: tuple[float, float]
    v2: tuple[float, float]


class _ModuliFields(NamedTuple):
    x: float
    y: float


class ModuliPoint(_ModuliFields):
    """Normalized torus: generators <1,0> and <x,y> in the unoriented strip,
    checked once, when it is built (outside it, or at an infinite y, raises
    OutOfModuliStrip).  x = -0.0 is stored as 0.0: one x on the wall."""

    __slots__ = ()

    def __new__(cls, x: float, y: float):
        if not (x * x + y * y >= 1.0 - _STRIP_EPS and 0.0 < y < math.inf and 0.0 <= x <= 0.5):
            raise OutOfModuliStrip(f"({x}, {y}) outside the moduli strip")
        return super().__new__(cls, x + 0.0, y)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check there too
        return cls(*iterable)


class TorusPoint(NamedTuple):
    """A point on the torus, held as a plane representative (u, w)."""

    u: float
    w: float

    def lattice_coords(self, m: ModuliPoint) -> tuple[float, float]:
        """(t1, t2) with (u, w) = t1*v1 + t2*v2."""
        t2 = self.w / m.y
        t1 = self.u - t2 * m.x
        return t1, t2

    def canonical(self, m: ModuliPoint) -> "TorusPoint":
        """Representative in the fundamental domain 0 <= t1, t2 < 1."""
        t1, t2 = self.lattice_coords(m)
        t1 -= math.floor(t1)
        t2 -= math.floor(t2)
        # guard against t = 1 - eps rounding back up
        if t1 >= 1.0:
            t1 = 0.0
        if t2 >= 1.0:
            t2 = 0.0
        return TorusPoint(t1 + t2 * m.x, t2 * m.y)


class Displacement(NamedTuple):
    """Lattice element a*v1 + b*v2 labelling one tangency witness."""

    a: int
    b: int


class BasisReduction(NamedTuple):
    """Record of the transform mapping an input basis to standard form.

    Composition contract (rows are vectors):
        (unimodular @ [v1; v2]) @ similarity.T == [[1, 0], [x, y]]
    `similarity` already contains the scaling and any reflections;
    `reflected` records whether the plane map reverses orientation.
    """

    scale: float
    unimodular: tuple[tuple[int, int], tuple[int, int]]
    reflected: bool
    similarity: tuple[tuple[float, float], tuple[float, float]]


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as a fused multiply-add rounds it, except that
    a zero comes out +0.0 (as from numpy's products, whose sums start at
    +0.0).  The sum is taken exactly in integers, and int / int rounds once
    (to -0.0 where a negative sum underflows, which adding +0.0 turns into
    +0.0)."""
    (an, ad), (bn, bd), (cn, cd) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
    return (an * bn * cd + cn * ad * bd) / (ad * bd * cd) + 0.0


def _dot(u: tuple[float, float], v: tuple[float, float]) -> float:
    """u . v rounded as numpy's u @ v rounds it: u0 v0, then u1 v1 fused in."""
    return _fma(u[1], v[1], u[0] * v[0])


def _degenerate(basis: LatticeBasis) -> DegenerateLattice:
    return DegenerateLattice(f"basis {basis.v1}, {basis.v2} is degenerate or not finite: nearly "
                             f"parallel, or a torus thinner than 1 : {1 / DEGENERATE_BASIS_TOL:g}")


def reduce_to_standard_basis(basis: LatticeBasis) -> tuple[ModuliPoint, BasisReduction]:
    """Lagrange-Gauss reduce, scale the short vector to 1, fold unoriented.

    Returns the strip point (x, y) plus the full transform record.  x = 0 and
    x = 1/2 are kept as closed boundary values, never folded away.

    The test and the reduction run on the basis times 2^-e, the power of two
    that brings the longer vector's length into [1/2, 1], and scale and
    similarity take 2^-e back.  That scaling is exact, so at every scale that
    keeps the coordinates and the scale normal floats the reduction gives the
    same strip point, bit for bit, and the scale divided exactly.  The one
    exception is an already-standard basis, v1 = (1, 0) with v2 in the strip:
    it reduces to v2 itself, while the same basis at another scale is
    reduced and may round: (1, 0), (0.5, 0.8660254037844386) gives x = 0.5,
    and twice that basis gives x = 0.4999999999999999.

    The arithmetic is on floats, rounded as numpy's 2-vector and 2 x 2
    products round it: where those fuse a multiply-add, `_fma` does too.
    """
    h1, h2 = math.hypot(*basis.v1), math.hypot(*basis.v2)
    if not h1 < math.inf > h2:  # a NaN or infinite coordinate fails this too
        raise _degenerate(basis)
    e = math.frexp(max(h1, h2))[1]
    u1, u2 = ((math.ldexp(a, -e), math.ldexp(b, -e)) for a, b in (basis.v1, basis.v2))
    norm = math.sqrt(max(_dot(u1, u1), _dot(u2, u2)))
    if not abs(u1[0] * u2[1] - u1[1] * u2[0]) > DEGENERATE_BASIS_TOL * norm * norm:
        raise _degenerate(basis)
    if basis.v1 == (1.0, 0.0):
        # already-standard inputs reduce to themselves exactly
        try:
            m = ModuliPoint(float(basis.v2[0]), float(basis.v2[1]))
            return m, BasisReduction(
                scale=1.0,
                unimodular=((1, 0), (0, 1)),
                reflected=False,
                similarity=((1.0, 0.0), (0.0, 1.0)),
            )
        except OutOfModuliStrip:
            pass
    U = [[1, 0], [0, 1]]  # row i: u_i in the input vectors
    if _dot(u1, u1) > _dot(u2, u2):
        u1, u2 = u2, u1
        U.reverse()
    while True:
        q = round(_dot(u2, u1) / _dot(u1, u1))
        if q:
            u2 = (u2[0] - q * u1[0], u2[1] - q * u1[1])
            U[1] = [b - q * a for a, b in zip(*U)]
        if _dot(u2, u2) < _dot(u1, u1):
            u1, u2 = u2, u1
            U.reverse()
        else:
            break

    s = 1.0 / math.hypot(*u1)
    c, sn = u1[0] * s, u1[1] * s
    rot = [[c * s, sn * s], [-sn * s, c * s]]
    # row i of numpy's rot @ u2: rot[i][1] u2[1], then rot[i][0] u2[0] fused in
    w0, w1 = (_fma(r[0], u2[0], r[1] * u2[1]) for r in rot)
    reflected = False
    # the reflections below are numpy's products diag(+-1, -+1) @ rot, whose
    # sums start at +0.0: a zero entry comes out +0.0
    if w1 < 0:
        rot = [[r + 0.0 for r in rot[0]], [0.0 - r for r in rot[1]]]
        w1 = -w1
        reflected = not reflected
    # Gauss reduction already gives |x| <= 1/2; the shear folds into (-1/2, 1/2]
    k = math.ceil(w0 - 0.5)
    if k:
        U[1] = [b - k * a for a, b in zip(*U)]
        w0 -= k
    if w0 < 0:
        rot = [[0.0 - r for r in rot[0]], [r + 0.0 for r in rot[1]]]
        w0 = -w0
        reflected = not reflected
        # negating the first axis flips v1; restore with the unimodular part
        U[0] = [-a for a in U[0]]
    m = ModuliPoint(w0, w1)
    try:
        scale = math.ldexp(s, -e)
    except OverflowError:  # the shortest vector is shorter than 1 / the largest float
        raise DegenerateLattice(f"basis {basis.v1}, {basis.v2} is degenerate or not finite") from None
    rec = BasisReduction(
        scale=scale,
        unimodular=(tuple(U[0]), tuple(U[1])),
        reflected=reflected,
        similarity=tuple(tuple(math.ldexp(r, -e) for r in row) for row in rot),
    )
    return m, rec


# The loop shifts (s1, s2): v2, v1 - v2 and v1, one of each +-pair.
LOOP_SHIFTS = ((0, 1), (1, -1), (1, 0))

TOL_CEIL = 0.1  # the largest tangency tolerance the window holds every contact at


def corner_translates(t1: float, t2: float, m: ModuliPoint) -> list[tuple[int, int, float, float]]:
    """The 4 corners (a, b) = (0, 0), (0, 1), (1, 0), (1, 1) of the lattice
    cell of the difference t, as (s1, s2, x, y), the integer shift and the
    vector (t1 + s1) v1 + (t2 + s2) v2: coordinate c is f = t_c - rint(t_c)
    at 0 and f - copysign(1, f) at 1, rounded as in oracle._corner_arrays."""
    corners = []
    for t in (t1, t2):
        r = round(t)
        f = t - r + 0.0  # +0.0 at t = -0.0, as numpy's f - rint(f)
        g = math.copysign(1.0, f)
        corners.append(((-r, f), (-r - int(g), f - g)))
    return [(s1, s2, f1 + m.x * f2, m.y * f2) for s1, f1 in corners[0] for s2, f2 in corners[1]]


def torus_distance(p: TorusPoint, q: TorusPoint, m: ModuliPoint) -> float:
    """Distance between the circle centers on the torus."""
    (p1, p2), (q1, q2) = p.lattice_coords(m), q.lattice_coords(m)
    return min(math.hypot(x, y) for _, _, x, y in corner_translates(q1 - p1, q2 - p2, m))


def fundamental_domain_area(m: ModuliPoint) -> float:
    """Area of the torus; with v1 = <1,0> this is just y."""
    return m.y
