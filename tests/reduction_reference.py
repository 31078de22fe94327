"""Reference for `toruspack.lattice.reduce_to_standard_basis`: the numpy
reduction it replaced, kept verbatim.

The reduction now runs on Python floats, with one exact fused
multiply-add (`lattice._fma`) where numpy's 2-vector dot and 2 x 2
matrix-vector product fuse one; the property test in test_lattice.py
asserts that both give the same strip point and transform record, bit for
bit, or both raise DegenerateLattice.  That holds where numpy's products
fuse as on the x86-64 FMA machine the goldens were recorded on (OpenBLAS);
the float reduction rounds so on every machine.  `numpy_fuses` probes
that on one pair whose fused and unfused sums differ, and the
property test is skipped where it does not hold.
"""
from __future__ import annotations

import math

import numpy as np

from toruspack.errors import DegenerateLattice, OutOfModuliStrip
from toruspack.lattice import DEGENERATE_BASIS_TOL, BasisReduction, LatticeBasis, ModuliPoint


def numpy_fuses() -> bool:
    """Whether numpy's 2-vector dot and 2 x 2 matrix-vector product fuse the
    multiply-add that `lattice._dot` and the reduction's `lattice._fma`
    fuse: (1 + 2^-52)(1 - 2^-53) - 1 is 2^-53 - 2^-105 fused and 0.0
    unfused.  It reads numpy alone, so a fault in `_fma` cannot skip the
    test that would show it."""
    a, b = 1.0 + 2.0**-52, 1.0 - 2.0**-53
    dot = np.array([-1.0, a]) @ np.array([1.0, b])
    row = (np.array([[a, -1.0], [0.0, 1.0]]) @ np.array([b, 1.0]))[0]
    return dot == row == 2.0**-53 - 2.0**-105


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
        raise DegenerateLattice(f"basis {basis.v1}, {basis.v2} is degenerate or not finite: nearly "
                                f"parallel, or a torus thinner than 1 : {1 / DEGENERATE_BASIS_TOL:g}")
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
