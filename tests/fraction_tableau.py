"""Reference for `toruspack.exact_lp`: the same phase-1 simplex and
reduced row echelon form on a tableau of one `Fraction` per entry.

`toruspack.exact_lp` keeps its tableau as integer rows without the artificial
columns, and solves the Farkas multipliers from the final basis; here they
are read off the artificial block.  The property tests in test_rigidity.py
assert that both give identical results.
"""
from __future__ import annotations

from fractions import Fraction

Vec = list[Fraction]
Mat = list[list[Fraction]]


def _to_fraction_matrix(rows) -> Mat:
    return [[Fraction(v) for v in row] for row in rows]


def phase1(A_eq, b_eq):
    """Phase 1 on  A_eq x = b_eq, x >= 0  from the artificial basis, which
    minimizes the sum of artificials: the final tableau T over the columns
    [A | I | b] (rows with b < 0 negated), its basis, the objective row and
    the negated rows.  The objective row is kept as u.[A | I | b] for the
    simplex multipliers u, so its artificial block is u itself; at the
    optimum u.A <= 0 (no entering column) and u.b equals the remaining
    infeasibility.
    """
    A = _to_fraction_matrix(A_eq)
    b = [Fraction(v) for v in b_eq]
    m = len(A)
    n = len(A[0])
    flipped = [bi < 0 for bi in b]
    for i in range(m):
        if flipped[i]:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    # columns: n structural + m artificial, rhs last
    T = [A[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    red = [sum(T[i][j] for i in range(m)) for j in range(n + m + 1)]  # u = 1
    while True:
        enter = next((j for j in range(n) if red[j] > 0), None)
        if enter is None:
            break
        # red[enter] > 0 sums the column over artificial rows, so some entry
        # is positive and the ratio test is never empty
        _, _, piv = min(
            (T[i][-1] / T[i][enter], basis[i], i) for i in range(m) if T[i][enter] > 0
        )
        _pivot(T, piv, enter)
        f = red[enter]
        red = [a - f * b_ for a, b_ in zip(red, T[piv])]
        basis[piv] = enter
    return T, basis, red, flipped


def _pivot(T: Mat, piv: int, enter: int) -> None:
    pv = T[piv][enter]
    T[piv] = [v / pv for v in T[piv]]
    for i in range(len(T)):
        if i != piv and T[i][enter]:
            f = T[i][enter]
            T[i] = [a - f * b_ for a, b_ in zip(T[i], T[piv])]


def feasible_nonnegative(A_eq, b_eq) -> tuple[Vec | None, Vec | None, list[int]]:
    """Decide  A_eq x = b_eq, x >= 0:  (x, None, basis) if feasible, else
    (None, y, basis) with  y.A_eq <= 0  componentwise and  y.b_eq > 0
    (Farkas' lemma), y read off the artificial block of phase 1's objective
    row.  A feasible basis then has each artificial left at 0 pivoted out on
    the first nonzero structural entry of its row.
    """
    m = len(A_eq)
    if m == 0:
        return [], None, []
    n = len(A_eq[0])
    T, basis, red, flipped = phase1(A_eq, b_eq)
    if red[-1] != 0:  # u.b = remaining infeasibility
        y = [-u if flip else u for u, flip in zip(red[n:n + m], flipped)]
        return None, y, basis
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if T[i][j]), None)
            if enter is not None:
                _pivot(T, i, enter)
                basis[i] = enter
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i][-1]
    return x, None, basis


def nullspace(rows, ncols: int) -> list[Vec]:
    """Basis of {x : rows . x = 0} over the rationals (empty iff full column
    rank); one vector per non-pivot column of the reduced row echelon form."""
    R = _to_fraction_matrix(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(R)) if R[i][c]), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        pv = R[r][c]
        R[r] = [v / pv for v in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [a - f * b_ for a, b_ in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for i, c in enumerate(pivots):
            x[c] = -R[i][free]
        basis.append(x)
    return basis
