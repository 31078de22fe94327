"""Strut frameworks from packings, and their rigidity decided by duality.

A packing graph becomes a strut framework (edges may not shrink to first
order): its loopless edges, kept as the tuples of their ends and vectors.
Translations are the only trivial motions on the fixed torus, so vertex 0
is pinned: the framework is infinitesimally rigid when no nonzero velocity
field v has  (v_j - v_i) . e >= 0  on every strut (i, j, e).  By
Roth and Whiteley (Trans. AMS 265, 1981; for packings Connelly, Eur. J.
Combin. 29, 2008) that holds exactly when a proper stress exists (w_e <= -1
with sum_e w_e e = 0 at every vertex) and the bar framework has full rank
2(n - 1).  `decide_rigidity` runs the stress LP once: if it is infeasible,
its Farkas multipliers are a flex (strict on some strut); if it is feasible,
its final basis holds rank(A) strut columns, so 2(n - 1) of them prove full
rank and the stress certifies rigidity.  Only a shorter basis builds the
pinned rigidity matrix, whose kernel vector is then a flex.

The exact work runs on strut vectors rationalized to denominators at most
1e12 (the rational `Fraction.limit_denominator` gives, found in integers,
once per distinct coordinate), from which `_equilibrium_system` writes the
stress LP, and `_pinned_rows` the pinned rigidity matrix, directly as
`exact_lp` integer rows.  Every certificate is re-checked against the
original floats; a failed re-check raises `CertificateCheckFailed` instead
of passing for a verdict.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CertificateCheckFailed, InconsistentLengths
from .exact_lp import Row, feasible_rows, nullspace
from .lattice import DEFAULT_TOL
from .packing import Packing, PackingGraph, contacts, has_halfplane_vertex

RATIONALIZE_DENOMINATOR = 10**12
# Every exact certificate is re-checked on the float strut vectors, so the
# check sees only the rationalization (below 1e-12) and float rounding: the
# largest normalized stress residual was 3.7e-16 over 242 stresses, and the
# least flex strut product -5.6e-17 over 166 flexes (decide_rigidity on the
# closed-form optima of every region, 40 per region, and on every probe
# sample of identify(3) and identify(4)).  1e-6 is a margin, not a derived
# value: a billion times those, and still small enough that a certificate
# off by 1e-5 fails.
FLOAT_CHECK_TOL = 1e-6

RationalVector = tuple[tuple[int, int], tuple[int, int]]  # ((p0, q0), (p1, q1))


class StrutFramework(NamedTuple):
    """n vertices and k struts: strut s joins vertices ends[s] = (i, j),
    i != j, along its realized edge vector vectors[s] = (x, y) from i to j.

    Loops are dropped at build time: a self-tangency constrains nothing to
    first order on the fixed torus.
    """

    n: int
    ends: tuple[tuple[int, int], ...]
    vectors: tuple[tuple[float, float], ...]

    def strut_counts(self) -> list[int]:
        counts = [0] * self.n
        for i, j in self.ends:
            counts[i] += 1
            counts[j] += 1
        return counts


class FlexVector(NamedTuple):
    velocities: tuple[tuple[float, float], ...]


class Stress(NamedTuple):
    coefficients: tuple[float, ...]


def build_framework(p: Packing, g: PackingGraph, tol: float = DEFAULT_TOL) -> StrutFramework:
    return _framework(p, g, p.edge_vectors(g), tol)


def _framework(p: Packing, g: PackingGraph, vectors, tol: float) -> StrutFramework:
    """build_framework on the edge vectors of g (Packing.edge_vectors)."""
    target = 2 * p.radius
    ends, struts = [], []
    for (i, j, d), e in zip(g.edges, vectors):
        if i == j:  # a self-tangency is a trivial strut inequality
            continue
        length = math.hypot(*e)
        if abs(length - target) > tol:
            raise InconsistentLengths(f"strut ({i},{j},{d.a},{d.b}) has length {length}, expected {target}")
        ends.append((i, j))
        struts.append(e)
    return StrutFramework(n=g.vertex_count, ends=tuple(ends), vectors=tuple(struts))


def _rationalize(x: float) -> tuple[int, int]:
    """Numerator and denominator of Fraction(x).limit_denominator(
    RATIONALIZE_DENOMINATOR), in integers: the same continued-fraction
    bounds, and the closer one, the convergent p1/q1 on a tie."""
    n0, d0 = x.as_integer_ratio()
    if d0 <= RATIONALIZE_DENOMINATOR:
        return n0, d0
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = n0, d0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > RATIONALIZE_DENOMINATOR:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (RATIONALIZE_DENOMINATOR - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # |p1/q1 - x| <= |p2/q2 - x|, times d0 q1 q2 > 0
    if abs(p1 * d0 - n0 * q1) * q2 <= abs(p2 * d0 - n0 * q2) * q1:
        return p1, q1
    return p2, q2


def _equilibrium_system(f: StrutFramework) -> tuple[list[Row], list[RationalVector]]:
    """The integer rows (exact_lp) of [A | b] with b = -A 1, and each
    strut's rationalized vector as ((p0, q0), (p1, q1)).  Rows 2v, 2v+1 of
    A: each strut's rationalized vector pointing away from v.  Each distinct
    coordinate is rationalized once, and each row is put over the lcm of its
    denominators, where it is in lowest terms."""
    rational: dict[float, tuple[int, int]] = {}
    entries: list[list[tuple[int, int, int]]] = [[] for _ in range(2 * f.n)]
    struts = []
    for k, ((i, j), e) in enumerate(zip(f.ends, f.vectors)):
        for x in e:
            if x not in rational:
                rational[x] = _rationalize(x)
        (p0, q0), (p1, q1) = strut = rational[e[0]], rational[e[1]]
        for v, sign in ((i, 1), (j, -1)):
            entries[2 * v].append((k, sign * p0, q0))
            entries[2 * v + 1].append((k, sign * p1, q1))
        struts.append(strut)
    rows = []
    for row in entries:
        D = math.lcm(*(q for _, _, q in row))
        N = [0] * (len(f.ends) + 1)
        for k, p, q in row:
            N[k] = p * (D // q)
        N[-1] = -sum(N)
        rows.append((N, D))
    return rows, struts


def _pinned_rows(f: StrutFramework, struts: list[RationalVector]) -> list[Row]:
    """The integer rows of the pinned rigidity matrix, A's transpose without
    vertex 0's rows, from the rationalized strut vectors, each row over the
    lcm of its two denominators."""
    pinned = []
    for (i, j), ((p0, q0), (p1, q1)) in zip(f.ends, struts):
        D = math.lcm(q0, q1)
        N = [0] * (2 * f.n)
        N[2 * i], N[2 * i + 1] = a, b = p0 * (D // q0), p1 * (D // q1)
        N[2 * j], N[2 * j + 1] = -a, -b
        pinned.append((N[2:], D))
    return pinned


class RigidityDecision(NamedTuple):
    """A flex when the framework is flexible, and the proper stress whenever
    one exists (a rigid framework always has one)."""

    flex: FlexVector | None
    stress: Stress | None

    @property
    def rigid(self) -> bool:
        return self.flex is None


def decide_rigidity(f: StrutFramework) -> RigidityDecision:
    """Flex or stress certificate from one phase-1 stress LP.  When it is
    feasible, its final basis holds rank(A) strut columns; A has rank at
    most 2(n - 1) (each coordinate's rows sum to zero), and the pinned
    rigidity matrix has the rank of A.  So a basis of 2(n - 1) struts
    proves full rank, and only a shorter one calls `nullspace`, for the
    flex."""
    rows, struts = _equilibrium_system(f)
    # substitute w = -1 - s with s >= 0:  A s = -A 1 = b
    s, y, basis = feasible_rows(rows)
    if s is None:
        # column k of y.A is -(y_j - y_i) . e_k: y.A <= 0 and
        # y.b = -sum(y.A) > 0 make y a flex, strict on some strut
        return RigidityDecision(flex=_checked_flex(f, y), stress=None)
    stress = None
    if f.ends:
        stress = Stress(tuple(-1.0 - float(si) for si in s))
        if not verify_stress(f, stress):
            raise CertificateCheckFailed(f"exact proper stress fails the float check: {stress}")
    flex = None
    if sum(j < len(f.ends) for j in basis) < 2 * (f.n - 1):
        kernel = nullspace(_pinned_rows(f, struts), 2 * (f.n - 1))
        flex = _checked_flex(f, [0, 0, *kernel[0]])
    return RigidityDecision(flex=flex, stress=stress)


def _checked_flex(f: StrutFramework, v) -> FlexVector:
    """The velocities v = (vx0, vy0, vx1, ...), rationals: pin vertex 0,
    scale the largest component to 1, re-check in floats.  The components
    are scaled as integers over one denominator; int / int rounds correctly,
    as Fraction.__float__ does, so each float is that of the scaled rational."""
    L = math.lcm(*(c.denominator for c in v))
    N = [c.numerator * (L // c.denominator) for c in v]
    shifted = [a - N[k % 2] for k, a in enumerate(N)]
    top = max(map(abs, shifted))
    scaled = [a / top for a in shifted]
    flex = FlexVector(tuple(zip(scaled[::2], scaled[1::2])))
    if not verify_flex(f, flex):
        raise CertificateCheckFailed(f"exact flex fails the float check: {flex}")
    return flex


def verify_flex(f: StrutFramework, flex: FlexVector) -> bool:
    v = flex.velocities
    if max(abs(c) for vel in v for c in vel) <= FLOAT_CHECK_TOL:
        return False
    return not any((v[j][0] - v[i][0]) * ex + (v[j][1] - v[i][1]) * ey < -FLOAT_CHECK_TOL
                   for (i, j), (ex, ey) in zip(f.ends, f.vectors))


def verify_stress(f: StrutFramework, stress: Stress) -> bool:
    w = stress.coefficients
    if any(wk > -1 + FLOAT_CHECK_TOL for wk in w):
        return False
    resid = [0.0] * (2 * f.n)
    scale = 0.0
    for wk, (i, j), (ex, ey) in zip(w, f.ends, f.vectors):
        resid[2 * i] += wk * ex
        resid[2 * i + 1] += wk * ey
        resid[2 * j] -= wk * ex
        resid[2 * j + 1] -= wk * ey
        scale += abs(wk) * math.hypot(ex, ey)
    return all(abs(r) <= FLOAT_CHECK_TOL * max(scale, 1.0) for r in resid)


def classify_packing(p: Packing, tol: float = DEFAULT_TOL) -> str:
    """'rigid-LMD', 'flexible' or 'free-circle' for the packing's framework."""
    g, vectors = contacts(p, tol)
    f = _framework(p, g, vectors, tol)
    counts = f.strut_counts()
    if min(counts, default=0) < 3 or has_halfplane_vertex(g, vectors):
        return "free-circle"
    return "rigid-LMD" if decide_rigidity(f).rigid else "flexible"
