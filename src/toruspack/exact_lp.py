"""Exact-rational linear algebra for the rigidity certificates.

Two routines, both exact over the rationals so that a yes/no answer is a
certificate rather than a tolerance call:

  * `feasible_rows`: phase-1 tableau simplex (Bland's rule, no cycling)
    for  A x = b, x >= 0, on a tableau without artificial columns.  It
    returns either a solution x or a Farkas certificate y with  y.A <= 0
    and  y.b > 0, the final simplex multipliers solved from the final
    basis, so infeasibility is proved, not just reported; and that basis,
    whose structural columns number rank(A) when x exists.
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


def _pivot(T: list[Row], piv: int, enter: int) -> Row:
    """Pivot the tableau T on row piv, column enter; returns the pivot row."""
    T[piv] = pivot = _normalized(T[piv], enter)
    for i, row in enumerate(T):
        if i != piv and row[0][enter]:
            T[i] = _eliminate(row, pivot, enter)
    return pivot


def feasible_rows(rows: list[Row]) -> tuple[Vec | None, Vec | None, list[int]]:
    """Decide  A_eq x = b_eq, x >= 0  on the integer rows of [A_eq | b_eq]:
    (x, None, basis) if feasible, else (None, y, basis) with  y.A_eq <= 0
    componentwise and  y.b_eq > 0  (Farkas' lemma).  basis[i] is the column
    basic in row i at the end: j < n for a structural column, n + i for row
    i's artificial.

    Phase 1 minimizes the sum of artificials from the artificial basis.  The
    tableau holds only the structural columns and the right-hand side: an
    artificial never re-enters, and the entering scan and ratio test read
    no artificial entry.  The objective row is u.[A | b] for the simplex
    multipliers u; at the optimum u.A <= 0 (no entering column) and u.b
    equals the remaining infeasibility, and y is u solved from the final
    basis (`_multipliers`).
    """
    m = len(rows)
    if m == 0:
        return [], None, []
    n = len(rows[0][0]) - 1
    # rows with b < 0 negated
    T: list[Row] = [([-v for v in N], D) if N[-1] < 0 else (N, D) for N, D in rows]
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
        red = _eliminate(red, _pivot(T, piv, enter), enter)
        basis[piv] = enter
    if red[0][-1] != 0:  # u.b = remaining infeasibility
        return None, _multipliers(rows, basis), basis
    # an artificial left basic sits at 0: pivot it out on the first nonzero
    # structural entry of its row (x does not move), so that a row keeps
    # its artificial only if it is all zero, and the basis holds rank(A)
    # structural columns
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if T[i][0][j]), None)
            if enter is not None:
                _pivot(T, i, enter)
                basis[i] = enter
    x = [Fraction(0)] * n
    for (N, D), bi in zip(T, basis):
        if bi < n:
            x[bi] = Fraction(N[-1], D)
    return x, None, basis


def _multipliers(rows: list[Row], basis: list[int]) -> Vec:
    """y = s u, from a phase-1 basis B alone, for the simplex multipliers u
    on the rows of [A | b] (row i enters the tableau times s_i, -1 where
    b_i < 0).  u solves u B = c_B: u_i = 1 on the rows F whose artificial
    is basic, and u.(s A)_j = 0 for each basic structural column j.  So
    y_i = s_i on F, and the other rows R solve the nonsingular (as B is)

        sum_R z_i N_i[j] = -sum_F s_i N_i[j] / D_i,   z_i = y_i / D_i,

    over the basic structural columns j, as the one kernel vector (z, 1)
    of its integer rows [M | -c]."""
    n = len(rows[0][0]) - 1
    s = [-1 if N[-1] < 0 else 1 for N, _ in rows]
    y = [Fraction(si) for si in s]
    R = [i for i, j in enumerate(basis) if j < n]
    F = [i for i, j in enumerate(basis) if j >= n]
    L = lcm(*(rows[i][1] for i in F))
    system = [([rows[i][0][j] * L for i in R]
               + [sum(s[i] * rows[i][0][j] * (L // rows[i][1]) for i in F)], L)
              for j in (basis[i] for i in R)]
    (z,) = nullspace(system, len(R) + 1)
    for i, zi in zip(R, z):
        y[i] = zi * rows[i][1]
    return y


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
        _pivot(R, r, c)
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
