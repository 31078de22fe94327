"""Flat tori: standard-basis reduction and the toroidal metric.

A flat torus is the quotient of the plane by the lattice spanned by two
independent vectors.  Any such lattice can be rescaled and relabeled so the
generators become <1,0> and <x,y> with x^2 + y^2 >= 1, y > 0 and
0 <= x <= 1/2 (the unoriented moduli strip); everything downstream assumes
that normal form.  This module performs the reduction and provides distance
and tangency primitives on the reduced torus.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLattice, OutOfModuliStrip, OverlapDetected

# Absolute tolerance for tangency detection; configurable per call.
DEFAULT_TOL = 1e-9

# Slack for validating strip membership (pure float noise, e.g. (1/2, sqrt(3)/2)
# has x^2 + y^2 = 1 - 1e-16).
_STRIP_EPS = 1e-9


@dataclass(frozen=True)
class LatticeBasis:
    """Two plane vectors spanning a lattice."""

    v1: tuple[float, float]
    v2: tuple[float, float]

    def cross(self) -> float:
        return self.v1[0] * self.v2[1] - self.v1[1] * self.v2[0]


@dataclass(frozen=True)
class ModuliPoint:
    """Normalized torus: generators <1,0> and <x,y> in the unoriented strip."""

    x: float
    y: float

    def validate(self) -> "ModuliPoint":
        if not (
            self.x * self.x + self.y * self.y >= 1.0 - _STRIP_EPS
            and self.y > 0.0
            and -_STRIP_EPS <= self.x <= 0.5 + _STRIP_EPS
        ):
            raise OutOfModuliStrip(f"({self.x}, {self.y}) outside the moduli strip")
        return self

    @property
    def basis(self) -> np.ndarray:
        """Row-stacked generators [[1, 0], [x, y]]."""
        return np.array([[1.0, 0.0], [self.x, self.y]])

    def shortest_vector(self) -> float:
        """Length of the shortest nonzero lattice vector (1 in the strip)."""
        best = math.inf
        for a in range(-2, 3):
            for b in range(-2, 3):
                if a == 0 and b == 0:
                    continue
                best = min(best, math.hypot(a + b * self.x, b * self.y))
        return best


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

    def __neg__(self) -> "Displacement":
        return Displacement(-self.a, -self.b)


@dataclass(frozen=True)
class BasisReduction:
    """Record of the transform mapping an input basis to standard form.

    Composition contract (rows are vectors):
        (unimodular @ [v1; v2]) @ similarity.T == [[1, 0], [x, y]]
    `similarity` already contains the scaling and any reflections;
    `reflected` records whether the plane map reverses orientation.
    """

    moduli: ModuliPoint
    scale: float
    unimodular: tuple[tuple[int, int], tuple[int, int]]
    reflected: bool
    similarity: tuple[tuple[float, float], tuple[float, float]]

    def apply(self, point: np.ndarray) -> np.ndarray:
        """Map a plane point through the similarity (lattice part excluded)."""
        return np.asarray(self.similarity) @ np.asarray(point, float)


def reduce_to_standard_basis(basis: LatticeBasis, tol: float = 1e-12) -> tuple[ModuliPoint, BasisReduction]:
    """Lagrange-Gauss reduce, scale the short vector to 1, fold unoriented.

    Returns the strip point (x, y) plus the full transform record.  x = 0 and
    x = 1/2 are kept as closed boundary values, never folded away.
    """
    u1 = np.array(basis.v1, float)
    u2 = np.array(basis.v2, float)
    norm = max(np.linalg.norm(u1), np.linalg.norm(u2))
    if norm == 0.0 or abs(basis.cross()) <= tol * norm * norm:
        raise DegenerateLattice(f"basis {basis.v1}, {basis.v2} is degenerate")
    if basis.v1 == (1.0, 0.0):
        # already-standard inputs reduce to themselves exactly
        try:
            m = ModuliPoint(float(u2[0]), float(u2[1])).validate()
            return m, BasisReduction(
                moduli=m,
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
        u2 = u2 - k * u1
        U[1] -= k * U[0]
        w = np.array([w[0] - k, w[1]])
    if w[0] < 0:
        rot = np.array([[-1.0, 0.0], [0.0, 1.0]]) @ rot
        w = np.array([-w[0], w[1]])
        reflected = not reflected
        # negating the first axis flips v1; restore with the unimodular part
        U[0] = -U[0]
        u1 = -u1
    m = ModuliPoint(float(w[0]), float(w[1])).validate()
    rec = BasisReduction(
        moduli=m,
        scale=s,
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


def _translate_window(width: int) -> np.ndarray:
    r = np.arange(-width, width + 1)
    return np.stack(np.meshgrid(r, r, indexing="ij"), -1).reshape(-1, 2)


def _min_translate(delta: np.ndarray, m: ModuliPoint, width: int = 2) -> tuple[float, np.ndarray, np.ndarray]:
    """min over |a|,|b| <= width of |delta + a v1 + b v2|, widening on demand.

    The window |a|,|b| <= 2 suffices in the standard strip for canonical
    representatives (|x| <= 1/2, y >= sqrt(3)/2 bound the drift per step);
    we still widen whenever the argmin touches the window boundary.
    """
    while True:
        offs = _translate_window(width)
        vecs = delta + offs[:, :1] * np.array([1.0, 0.0]) + offs[:, 1:] * np.array([m.x, m.y])
        d = np.hypot(vecs[:, 0], vecs[:, 1])
        k = int(np.argmin(d))
        if np.abs(offs[k]).max() < width or width >= 64:
            return float(d[k]), offs, d
        width *= 2


def torus_distance(p: TorusPoint, q: TorusPoint, m: ModuliPoint) -> float:
    """Distance between the circle centers on the torus."""
    m.validate()
    pc = p.canonical(m)
    qc = q.canonical(m)
    delta = qc.coords() - pc.coords()
    dist, _, _ = _min_translate(delta, m)
    return dist


def tangency_displacements(
    p: TorusPoint,
    q: TorusPoint,
    m: ModuliPoint,
    r: float,
    tol: float = DEFAULT_TOL,
) -> list[Displacement]:
    """All lattice translates realizing a tangency |q + t - p| = 2r.

    For p = q (the self-tangency query) t = 0 is excluded and each +-t pair
    is reported once.  Raises OverlapDetected when some translate comes
    closer than 2r - tol.
    """
    m.validate()
    if r <= 0:
        raise ValueError("radius must be positive")
    pc = p.canonical(m)
    qc = q.canonical(m)
    same = np.allclose(pc.coords(), qc.coords(), atol=1e-12)
    delta = qc.coords() - pc.coords()
    _, offs, d = _min_translate(delta, m)
    out = []
    for (a, b), dist in zip(offs, d):
        if same and a == 0 and b == 0:
            continue
        if dist < 2 * r - tol:
            raise OverlapDetected(
                f"centers at distance {dist:.12g} < 2r = {2 * r:.12g}"
            )
        if abs(dist - 2 * r) <= tol:
            if same and (a, b) < (0, 0):
                continue  # count each self-tangency pair once
            out.append(Displacement(int(a), int(b)))
    out.sort(key=lambda t: (t.a, t.b))
    return out


def fundamental_domain_area(m: ModuliPoint) -> float:
    """Area of the torus; with v1 = <1,0> this is just y."""
    m.validate()
    return m.y
