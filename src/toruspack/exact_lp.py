"""Exact-rational linear algebra for the rigidity certificates.

Two routines, both exact over the rationals so that a yes/no answer is a
certificate rather than a tolerance call:

  * `feasible_rows`: phase-1 tableau simplex (Bland's rule, no cycling)
    for  A x = b, x >= 0.  It returns either a solution x or a Farkas
    certificate y with  y.A <= 0  and  y.b > 0, read off the final simplex
    multipliers, so infeasibility is proved, not just reported.
  * `nullspace`: a basis of {x : A x = 0} by reduced row echelon form; the
    exact rank is the column count minus its length.

Both work on integer rows: a row is a pair (N, D) of a list of Python ints
and one positive int, meaning the entries N[j] / D.  The rigidity module
builds its rows straight from the strut coordinates, in lowest terms.  A
row is brought to lowest terms (one gcd of D and all of N) only when it
becomes the pivot row, once per pivot, where a tableau of one `Fraction`
per entry pays a gcd per entry after every update.  An update cuts the
row's entry N[e] and the pivot's D by their gcd and leaves the row
unreduced.  Since D > 0, every sign and zero
test reads a numerator alone, and the ratio test compares N_i[-1] / N_i[e]
(D cancels) by cross-multiplying, ties to the least basis index.  So both
routines take exactly the pivots of a `Fraction` tableau, every entry is
the same rational, and the `Fraction`s built once at return, which reduce
it, are identical.

Problem sizes are tiny (at most a few dozen rows and columns), so the dense
tableau is plenty.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vec = list[Fraction]
Row = tuple[list[int], int]  # (N, D): entries N[j] / D, D > 0


def _reduced(N: list[int], D: int) -> Row:
    g = gcd(D, *N)
    if g == 1:
        return N, D
    return [v // g for v in N], D // g


def _normalized(row: Row, e: int) -> Row:
    """row / row[e]: the entries N / N[e], with a positive denominator."""
    N, _ = row
    if N[e] < 0:
        N = [-v for v in N]
    return _reduced(N, N[e])


def _eliminate(row: Row, pivot: Row, e: int) -> Row:
    """row - row[e] * pivot, for a pivot row with pivot[e] == 1, not reduced:
    (N Dp - f P) / (D Dp) with f = N[e] and Dp cut by gcd(f, Dp)."""
    N, D = row
    P, Dp = pivot
    g = gcd(N[e], Dp)
    f, Dp = N[e] // g, Dp // g
    return [a * Dp - f * b for a, b in zip(N, P)], D * Dp


def feasible_rows(rows: list[Row]) -> tuple[Vec | None, Vec | None]:
    """Decide  A_eq x = b_eq, x >= 0  on the integer rows of [A_eq | b_eq]:
    (x, None) if feasible, else (None, y) with  y.A_eq <= 0  componentwise
    and  y.b_eq > 0  (Farkas' lemma).

    Phase 1 minimizes the sum of artificials from the artificial basis.  The
    objective row is kept as u.[A | I | b] for the simplex multipliers u, so
    its artificial block is u itself; at the optimum u.A <= 0 (no entering
    column) and u.b equals the remaining infeasibility.
    """
    m = len(rows)
    if m == 0:
        return [], None
    n = len(rows[0][0]) - 1
    # columns: n structural + m artificial, rhs last; rows with b < 0 negated
    T: list[Row] = []
    flipped = []
    for i, (N, D) in enumerate(rows):
        flip = N[-1] < 0
        if flip:
            N = [-v for v in N]
        flipped.append(flip)
        artificial = [0] * m
        artificial[i] = D
        T.append((N[:n] + artificial + N[n:], D))
    basis = [n + i for i in range(m)]
    # objective row: the sum of the rows (u = 1) over their common denominator
    Dr = lcm(*(D for _, D in T))
    red = _reduced([sum(c) for c in zip(*([v * (Dr // D) for v in N] for N, D in T))], Dr)
    while True:
        enter = next((j for j in range(n) if red[0][j] > 0), None)
        if enter is None:
            break
        # Bland's ratio test: the least N[-1] / N[enter] over N[enter] > 0
        # (compared by cross-multiplying), ties to the least basis index.
        # red[enter] > 0 sums the column over artificial rows, so some entry
        # is positive and the test is never empty.
        piv = None
        for i, (N, _) in enumerate(T):
            if N[enter] > 0:
                if piv is None:
                    piv, P = i, N
                    continue
                lhs, rhs = N[-1] * P[enter], P[-1] * N[enter]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[piv]):
                    piv, P = i, N
        T[piv] = pivot = _normalized(T[piv], enter)
        for i, row in enumerate(T):
            if i != piv and row[0][enter]:
                T[i] = _eliminate(row, pivot, enter)
        red = _eliminate(red, pivot, enter)
        basis[piv] = enter
    U, Dr = red
    if U[-1] != 0:  # u.b = remaining infeasibility
        y = [Fraction(-u if flip else u, Dr) for u, flip in zip(U[n:n + m], flipped)]
        return None, y
    x = [Fraction(0)] * n
    for (N, D), bi in zip(T, basis):
        if bi < n:
            x[bi] = Fraction(N[-1], D)
    return x, None


def nullspace(rows: list[Row], ncols: int) -> list[Vec]:
    """Basis of {x : rows . x = 0} over the rationals for integer rows (empty
    iff full column rank); one vector per non-pivot column of the reduced
    row echelon form."""
    R = list(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(R)) if R[i][0][c]), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        R[r] = pivot = _normalized(R[r], c)
        for i, row in enumerate(R):
            if i != r and row[0][c]:
                R[i] = _eliminate(row, pivot, c)
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for (N, D), c in zip(R, pivots):
            x[c] = Fraction(-N[free], D)
        basis.append(x)
    return basis
