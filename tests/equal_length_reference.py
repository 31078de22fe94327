"""Reference for the kernel of `toruspack.realization._solve_equal_lengths`:
residuals, Jacobian and normal equations written with `np.einsum`.

The solver forms the Jacobian by elementwise multiply-adds and the normal
equations by BLAS products; the property test in test_realization.py
asserts that both agree.
"""
from __future__ import annotations

import numpy as np


def edge_vectors(u, A, c):
    """(B, E, 2) edge vectors A u + c of the starts u (B, k)."""
    return np.einsum("etk,bk->bet", A, u) + c


def equal_length_terms(u, A, c, hinge=None, active=None):
    """Residuals (B, m) and Jacobian (B, m, k): the edges' |d|^2 - L^2
    (times the active mask), then the hinges' (L^2 - |q|^2)_+."""
    L = u[:, -1:]
    d = edge_vectors(u, A, c)
    r = (d**2).sum(-1) - L**2
    J = 2 * np.einsum("bet,etk->bek", d, A)
    J[:, :, -1] -= 2 * L
    if active is not None:
        r *= active
        J *= active[..., None]
    if hinge is None:
        return r, J
    Aq, cq = hinge
    q = edge_vectors(u, Aq, cq)
    gap = L**2 - (q**2).sum(-1)
    on = gap > 0
    Jq = -2 * np.einsum("bpt,ptk->bpk", q, Aq)
    Jq[:, :, -1] += 2 * L
    Jq *= on[..., None]
    return np.concatenate([r, gap * on], 1), np.concatenate([J, Jq], 1)


def normal_equations(J, r):
    """J^T J (B, k, k) and J^T r (B, k)."""
    return np.einsum("bmi,bmj->bij", J, J), np.einsum("bmi,bm->bi", J, r)
