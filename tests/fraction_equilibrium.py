"""Reference for `toruspack.rigidity._equilibrium_system`: the equilibrium
system built one `Fraction` per entry, each strut coordinate rationalized
by `Fraction.limit_denominator`.

`_equilibrium_system` writes the same systems directly as `exact_lp`
integer rows; the tests in test_rigidity.py assert that its rows are the
integer rows of these matrices.
"""
from __future__ import annotations

from fractions import Fraction

from toruspack.rigidity import RATIONALIZE_DENOMINATOR


def equilibrium_system(f) -> tuple[list[list[Fraction]], list[Fraction]]:
    """A and b = -A 1.  Rows 2v, 2v+1 of A: each strut's rationalized vector
    pointing away from v.  A's transpose without vertex 0's rows is the
    pinned rigidity matrix."""
    zero = Fraction(0)
    A = [[zero] * len(f.ends) for _ in range(2 * f.n)]
    b = [zero] * (2 * f.n)
    for k, ((i, j), e) in enumerate(zip(f.ends, f.vectors)):
        for c in (0, 1):
            x = Fraction(e[c]).limit_denominator(RATIONALIZE_DENOMINATOR)
            A[2 * i + c][k] = x
            A[2 * j + c][k] = -x
            b[2 * i + c] -= x
            b[2 * j + c] += x
    return A, b
