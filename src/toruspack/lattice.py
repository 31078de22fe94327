"""Flat tori: standard-basis reduction and the toroidal metric.

A flat torus is the quotient of the plane by the lattice spanned by two
independent vectors.  Any such lattice can be rescaled and relabeled so the
generators become <1,0> and <x,y> with x^2 + y^2 >= 1, y > 0 and
0 <= x <= 1/2 (the unoriented moduli strip); everything downstream assumes
that normal form, and a ModuliPoint cannot be built outside it.  This
module performs the reduction and holds the one distance kernel on the
reduced torus, `wrapped_translates`: the 9 lattice translates of a
difference nearest the origin, which include its nearest translate and
every translate of length at most 1 (so every tangency and overlap of
circles of radius at most 1/2).  The oracle's ascent reads 4 of
them, the corners of each difference's lattice cell, which hold the
nearest; its tests check that window against this kernel bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateLattice, OutOfModuliStrip

# Absolute tolerance for reading tangencies off a packing; the default of
# packing.extract_graph and of every caller that reads a closed-form optimum.
DEFAULT_TOL = 1e-9

# A basis is degenerate when |v1 x v2| <= DEGENERATE_BASIS_TOL |v|^2 (v the
# longer vector): a sine of their angle that small is cross-product rounding.
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


@dataclass(frozen=True)
class LatticeBasis:
    """Two plane vectors spanning a lattice."""

    v1: tuple[float, float]
    v2: tuple[float, float]


@dataclass(frozen=True)
class ModuliPoint:
    """Normalized torus: generators <1,0> and <x,y> in the unoriented strip,
    checked once, when it is built (outside it raises OutOfModuliStrip)."""

    x: float
    y: float

    def __post_init__(self):
        if not (
            self.x * self.x + self.y * self.y >= 1.0 - _STRIP_EPS
            and self.y > 0.0
            and 0.0 <= self.x <= 0.5
        ):
            raise OutOfModuliStrip(f"({self.x}, {self.y}) outside the moduli strip")

    @property
    def basis(self) -> np.ndarray:
        """Row-stacked generators [[1, 0], [x, y]]."""
        return np.array([[1.0, 0.0], [self.x, self.y]])


@dataclass(frozen=True)
class TorusPoint:
    """A point on the torus, held as a plane representative (u, w)."""

    u: float
    w: float

    def coords(self) -> np.ndarray:
        return np.array([self.u, self.w])

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


@dataclass(frozen=True)
class Displacement:
    """Lattice element a*v1 + b*v2 labelling one tangency witness."""

    a: int
    b: int

    def vector(self, m: ModuliPoint) -> np.ndarray:
        return np.array([self.a + self.b * m.x, self.b * m.y])


@dataclass(frozen=True)
class BasisReduction:
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


def reduce_to_standard_basis(basis: LatticeBasis) -> tuple[ModuliPoint, BasisReduction]:
    """Lagrange-Gauss reduce, scale the short vector to 1, fold unoriented.

    Returns the strip point (x, y) plus the full transform record.  x = 0 and
    x = 1/2 are kept as closed boundary values, never folded away.

    The test and the reduction run on the basis times 2^-e, the power of two
    that brings the longer vector's length into [1/2, 1], and scale and
    similarity take 2^-e back.  That scaling is exact, so at every scale that
    keeps the coordinates and the scale normal floats the reduction gives the
    same strip point, bit for bit, and the scale divided exactly.
    """
    e = math.frexp(max(math.hypot(*basis.v1), math.hypot(*basis.v2)))[1]
    u1, u2 = np.ldexp(np.array([basis.v1, basis.v2], float), -e)
    norm = max(np.linalg.norm(u1), np.linalg.norm(u2))
    cross = u1[0] * u2[1] - u1[1] * u2[0]
    # written so that a NaN or infinite coordinate fails it too
    if not (0.0 < norm < math.inf and abs(cross) > DEGENERATE_BASIS_TOL * norm * norm):
        raise DegenerateLattice(f"basis {basis.v1}, {basis.v2} is degenerate or not finite")
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
    U = np.eye(2, dtype=np.int64)

    def swap():
        nonlocal u1, u2
        u1, u2 = u2, u1
        U[[0, 1]] = U[[1, 0]]

    if u1 @ u1 > u2 @ u2:
        swap()
    while True:
        q = round((u2 @ u1) / (u1 @ u1))
        if q:
            u2 = u2 - q * u1
            U[1] -= q * U[0]
        if u2 @ u2 < u1 @ u1:
            swap()
        else:
            break

    s = 1.0 / math.hypot(*u1)
    c, sn = u1 * s
    rot = np.array([[c, sn], [-sn, c]]) * s
    w = rot @ u2
    reflected = False
    if w[1] < 0:
        rot = np.array([[1.0, 0.0], [0.0, -1.0]]) @ rot
        w = np.array([w[0], -w[1]])
        reflected = not reflected
    # Gauss reduction already gives |x| <= 1/2; the shear folds into (-1/2, 1/2]
    k = math.ceil(w[0] - 0.5)
    if k:
        U[1] -= k * U[0]
        w = np.array([w[0] - k, w[1]])
    if w[0] < 0:
        rot = np.array([[-1.0, 0.0], [0.0, 1.0]]) @ rot
        w = np.array([-w[0], w[1]])
        reflected = not reflected
        # negating the first axis flips v1; restore with the unimodular part
        U[0] = -U[0]
    m = ModuliPoint(float(w[0]), float(w[1]))
    try:
        scale = math.ldexp(s, -e)
    except OverflowError:  # the shortest vector is shorter than 1 / the largest float
        raise DegenerateLattice(f"basis {basis.v1}, {basis.v2} is degenerate or not finite") from None
    rot = np.ldexp(rot, -e)
    rec = BasisReduction(
        scale=scale,
        unimodular=((int(U[0, 0]), int(U[0, 1])), (int(U[1, 0]), int(U[1, 1]))),
        reflected=reflected,
        similarity=((float(rot[0, 0]), float(rot[0, 1])), (float(rot[1, 0]), float(rot[1, 1]))),
    )
    return m, rec


# a (row 0) and b (row 1) of the 9 translates a v1 + b v2, |a|, |b| <= 1
TRANSLATE_WINDOW = np.array([np.repeat([-1.0, 0.0, 1.0], 3), np.tile([-1.0, 0.0, 1.0], 3)])


def wrapped_translates(frac: np.ndarray, m: ModuliPoint) -> tuple[np.ndarray, np.ndarray]:
    """The 9 translates nearest the origin of the fractional differences frac.

    frac (..., 2) holds lattice coordinates (t1, t2); each is wrapped into
    [-1/2, 1/2]^2 and shifted by the columns of TRANSLATE_WINDOW.  Returns
    the integer shifts s and the plane vectors (t1 + s1) v1 + (t2 + s2) v2,
    both (2, ..., 9) with the coordinate axis first.

    In the strip |t1 v1 + t2 v2| >= (sqrt(3)/2) max(|t1|, |t2|) (y^2 >= 3/4;
    x <= 1/2 and x^2 + y^2 >= 1 give t1^2 + 2x t1 t2 + t2^2 >= (3/4) t1^2),
    so every translate outside the window is at least 3 sqrt(3)/4 = 1.299
    long: all tangencies and overlaps (distance <= 1) lie inside it.  So do
    the nearest translate and its ties, whatever their length: stepping t2
    toward 0 shortens any translate with |t2| >= 3/2, and for |t2| < 3/2
    the best t1 lies within 1/2 of -x t2, hence |t1| <= 5/4.
    """
    f = np.moveaxis(frac, -1, 0)[..., None]
    s = TRANSLATE_WINDOW.reshape((2,) + (1,) * (frac.ndim - 1) + (9,)) - np.rint(f)
    t = f + s
    return s, np.stack([t[0] + m.x * t[1], m.y * t[1]])


@lru_cache(maxsize=None)
def pair_indices(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, k), built once per (n, k) for the pairwise
    callers of wrapped_translates: the pairs i <= j (k = 0) or i < j
    (k = 1) of n points."""
    I, J = np.triu_indices(n, k)
    I.flags.writeable = J.flags.writeable = False  # shared by every caller
    return I, J


def torus_distance(p: TorusPoint, q: TorusPoint, m: ModuliPoint) -> float:
    """Distance between the circle centers on the torus."""
    frac = np.subtract(q.lattice_coords(m), p.lattice_coords(m))
    _, v = wrapped_translates(frac, m)
    return float(np.hypot(v[0], v[1]).min())


def fundamental_domain_area(m: ModuliPoint) -> float:
    """Area of the torus; with v1 = <1,0> this is just y."""
    return m.y
