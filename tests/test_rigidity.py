import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_equilibrium
import fraction_tableau as reference
import rigidity_reference
from toruspack import exact_lp, rigidity
from toruspack.closed_form import optimal_centers
from toruspack.errors import CertificateCheckFailed, InconsistentLengths, TorusPackError
from toruspack.exact_lp import feasible_rows, nullspace
from toruspack.lattice import DEFAULT_TOL, ModuliPoint, TorusPoint
from toruspack.packing import Packing, extract_graph
from toruspack.realization import REALIZATION_CLEARANCE, realize_embedding
from toruspack.regions import boundary_curve, region_count, sample_boundary, sample_interior
from toruspack.rigidity import (
    RATIONALIZE_DENOMINATOR,
    StrutFramework,
    build_framework,
    classify_packing,
    decide_rigidity,
    verify_flex,
    verify_stress,
)

SQRT3 = math.sqrt(3.0)
GOLDEN = Path(__file__).with_name("rigidity_golden.json")


def optimal_packing(n, m):
    sol = optimal_centers(n, m)
    return Packing(m=m, centers=sol.centers, radius=sol.radius)


def framework_of(n, struts):
    """The StrutFramework on n vertices with struts (i, j, (ex, ey))."""
    return StrutFramework(n=n, ends=tuple((i, j) for i, j, _ in struts),
                          vectors=tuple(e for _, _, e in struts))


class TestExactLP:
    def test_feasibility(self):
        # x1 + x2 = 2, x1 - x2 = 0  ->  x = (1, 1), both columns basic
        x, y, basis = feasible_nonnegative([[1, 1], [1, -1]], [2, 0])
        assert x == [Fraction(1), Fraction(1)] and y is None
        assert sorted(basis) == [0, 1]
        x, y, basis = feasible_nonnegative([[1, 1]], [-1])
        assert x is None and _is_farkas([[1, 1]], [-1], y)
        assert basis == [2]  # row 0's artificial

    def test_degenerate_origin(self):
        # rows tight at zero and a redundant pair; Bland's rule must not cycle
        A = [[1, -1, 0], [-1, 1, 0], [1, 1, 1], [2, 2, 2]]
        x, y, basis = feasible_nonnegative(A, [0, 0, 2, 4])
        assert y is None and min(x) >= 0
        assert [sum(a * v for a, v in zip(row, x)) for row in A] == [0, 0, 2, 4]
        assert sum(j < 3 for j in basis) == 2  # rank(A)
        x, y, _ = feasible_nonnegative(A, [0, 0, 2, 3])
        assert x is None and _is_farkas(A, [0, 0, 2, 3], y)

    def test_against_scipy(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(79)
        outcomes = set()
        for _ in range(60):
            ncon, nvar = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            A = rng.integers(-4, 5, (ncon, nvar))
            b = rng.integers(-5, 6, ncon)
            x, y, basis = feasible_nonnegative(A.tolist(), b.tolist())
            ref = linprog(np.zeros(nvar), A_eq=A, b_eq=b, bounds=[(0, None)] * nvar, method="highs")
            assert ref.status in (0, 2)
            outcomes.add(ref.status)
            if ref.status == 0:
                assert y is None and min(x) >= 0
                assert [sum(int(a) * v for a, v in zip(row, x)) for row in A] == b.tolist()
                assert sum(j < nvar for j in basis) == np.linalg.matrix_rank(A)
            else:
                assert x is None and _is_farkas(A.tolist(), b.tolist(), y)
        assert outcomes == {0, 2}

    def test_nullspace_rank(self):
        # rank 2 of 3 columns: one kernel vector, exactly annihilated
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        (v,) = nullspace(_rows(rows), 3)
        assert all(sum(Fraction(a) * x for a, x in zip(row, v)) == 0 for row in rows)
        assert nullspace(_rows([[1, 0], [0, 3]]), 2) == []
        assert len(nullspace([], 2)) == 2


def _row(values):
    """The numbers as one integer row (N, D) over the lcm of their
    lowest-terms denominators, where it is in lowest terms."""
    pairs = [Fraction(v).as_integer_ratio() for v in values]
    D = math.lcm(*(d for _, d in pairs))
    return [n * (D // d) for n, d in pairs], D


def _rows(matrix):
    return [_row(row) for row in matrix]


def feasible_nonnegative(A_eq, b_eq):
    """exact_lp.feasible_rows on the integer rows of [A_eq | b_eq]: x, y and
    the final basis."""
    return feasible_rows(_rows([*a, bi] for a, bi in zip(A_eq, b_eq)))


@st.composite
def linear_systems(draw, entries):
    """(A, b) with 1-6 rows and 1-8 columns; rows after the first may be
    zero, or copies or negations of an earlier row, and right-hand sides may
    be zero, so the ratio test sees ties."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["new", "zero", "copy", "negated"])) if rows else "new"
        if kind == "new":
            rows.append(draw(st.lists(entries, min_size=n + 1, max_size=n + 1)))
        elif kind == "zero":
            rows.append([0] * n + [draw(entries)])
        else:
            row = draw(st.sampled_from(rows))
            rows.append(list(row) if kind == "copy" else [-v for v in row])
    b = [0 if draw(st.booleans()) else row[-1] for row in rows]
    return [row[:-1] for row in rows], b


INTEGERS = st.integers(-4, 4)
FRACTIONS = st.fractions(-4, 4, max_denominator=RATIONALIZE_DENOMINATOR)


class TestIntegerTableau:
    """The integer-row tableau against the one-`Fraction`-per-entry reference
    in fraction_tableau.py, which keeps the artificial columns: the same
    pivots give the same rationals and the same final basis."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(linear_systems(INTEGERS), linear_systems(FRACTIONS)))
    # a ratio-test tie that the row index alone breaks differently from
    # the basis index (a different Farkas certificate)
    @example(([[0, 0, 0, 0, 1], [0, 0, 0, 1, 1], [0, 0, 0, 0, 0]], [0, 0, 1]))
    def test_matches_fraction_tableau(self, system):
        A, b = system
        n = len(A[0])
        Ab = [row + [bi] for row, bi in zip(A, b)]
        # equal rationals at return hide a wrong intermediate row, so every
        # pivot row is also checked to be in lowest terms, and every row
        # update (left unreduced) to hold row - row[e] * pivot
        with mock.patch.object(exact_lp, "_normalized", _lowest_terms(exact_lp._normalized)), \
                mock.patch.object(exact_lp, "_eliminate", _exact_update(exact_lp._eliminate)):
            got = feasible_nonnegative(A, b)
            assert got == reference.feasible_nonnegative(A, b)
            assert nullspace(_rows(A), n) == reference.nullspace(A, n)
            assert nullspace(_rows(Ab), n + 1) == reference.nullspace(Ab, n + 1)
        x, _, basis = got
        if x is not None:  # a feasible basis holds rank(A) structural columns
            assert sum(j < n for j in basis) == n - len(reference.nullspace(A, n))

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(linear_systems(INTEGERS), linear_systems(FRACTIONS)))
    @example(([[0, 0, 0, 0, 1], [0, 0, 0, 1, 1], [0, 0, 0, 0, 0]], [0, 0, 1]))
    def test_multipliers_match_artificial_block(self, system):
        """The simplex multipliers that exact_lp solves from phase 1's final
        basis are the artificial block of the reference's objective row
        (negated on the rows with b < 0), feasible or not."""
        A, b = system
        n, m = len(A[0]), len(A)
        _, basis, red, flipped = reference.phase1(A, b)
        want = [-u if flip else u for u, flip in zip(red[n:n + m], flipped)]
        assert exact_lp._multipliers(_rows([*a, bi] for a, bi in zip(A, b)), basis) == want


def _lowest_terms(update):
    def checked(*args):
        N, D = row = update(*args)
        assert D > 0 and math.gcd(D, *N) == 1, row
        return row
    return checked


def _exact_update(eliminate):
    def checked(row, pivot, e):
        out = eliminate(row, pivot, e)
        assert out[1] > 0, out
        r, p, got = map(_fractions, (row, pivot, out))
        assert got == [a - r[e] * b for a, b in zip(r, p)], out
        return out
    return checked


def _fractions(row):
    N, D = row
    return [Fraction(v, D) for v in N]


def _is_farkas(A, b, y) -> bool:
    yA = [sum(yi * Fraction(row[j]) for yi, row in zip(y, A)) for j in range(len(A[0]))]
    return max(yA) <= 0 and sum(yi * bi for yi, bi in zip(y, b)) > 0


class TestFramework:
    def test_square_torus_struts(self):
        p = optimal_packing(2, ModuliPoint(0, 1))
        g = extract_graph(p)
        f = build_framework(p, g)
        assert f.n == 2 and len(f.ends) == 4
        dirs = {tuple(np.sign(np.round(e, 9)).astype(int)) for e in f.vectors}
        assert dirs == {(1, 1), (-1, 1), (1, -1), (-1, -1)}

    def test_layered_loops_dropped(self):
        m = ModuliPoint(0, SQRT3 + 1)
        p = optimal_packing(3, m)
        g = extract_graph(p)
        f = build_framework(p, g)
        assert g.loop_count() == 3
        assert len(f.ends) == 5  # two double tangencies plus one single

    def test_strut_off_tangency_raises(self):
        # just below the R1_4 top edge: read at 1e-2, the graph gains two
        # pairs that do not touch, and their struts are refused
        p = optimal_packing(4, ModuliPoint(0.0, 1.154))
        crisp, loose = extract_graph(p), extract_graph(p, tol=1e-2)
        assert (len(crisp.edges), len(loose.edges)) == (10, 12)
        assert len(build_framework(p, crisp).ends) == 10
        with pytest.raises(InconsistentLengths):
            build_framework(p, loose)

    def test_empty(self):
        f = framework_of(1, [])
        decision = decide_rigidity(f)
        assert decision.flex is None and decision.stress is None


class TestFlex:
    def test_square_torus_rigid(self):
        p = optimal_packing(2, ModuliPoint(0, 1))
        f = build_framework(p, extract_graph(p))
        assert decide_rigidity(f).flex is None

    def test_horizontal_pair_flexes(self):
        p = Packing(
            m=ModuliPoint(0, 1),
            centers=(TorusPoint(0, 0), TorusPoint(0.5, 0)),
            radius=0.25,
        )
        f = build_framework(p, extract_graph(p))
        flex = decide_rigidity(f).flex
        assert flex is not None
        assert verify_flex(f, flex)
        vx, vy = flex.velocities[1]
        assert abs(vx) < 1e-9 and abs(vy) > 0.5  # vertical slide

    def test_flex_translation_invariance(self):
        p = Packing(
            m=ModuliPoint(0, 1),
            centers=(TorusPoint(0, 0), TorusPoint(0.5, 0)),
            radius=0.25,
        )
        f = build_framework(p, extract_graph(p))
        flex = decide_rigidity(f).flex
        shifted = type(flex)(tuple((vx + 0.3, vy - 0.1) for vx, vy in flex.velocities))
        for (i, j), e in zip(f.ends, f.vectors):
            v = np.asarray(shifted.velocities[j]) - np.asarray(shifted.velocities[i])
            assert v @ np.asarray(e) >= -1e-9


class TestStress:
    def test_square_torus_proper_stress(self):
        p = optimal_packing(2, ModuliPoint(0, 1))
        f = build_framework(p, extract_graph(p))
        stress = decide_rigidity(f).stress
        assert stress is not None
        assert verify_stress(f, stress)
        assert all(w == pytest.approx(-1.0) for w in stress.coefficients)

    def test_horizontal_pair_stress_but_flexible(self):
        # the two struts leave each vertex in opposite directions, so the
        # constant stress -1 balances; the framework still flexes vertically
        p = Packing(
            m=ModuliPoint(0, 1),
            centers=(TorusPoint(0, 0), TorusPoint(0.5, 0)),
            radius=0.25,
        )
        f = build_framework(p, extract_graph(p))
        decision = decide_rigidity(f)
        assert decision.stress is not None and verify_stress(f, decision.stress)
        assert decision.flex is not None

    def test_single_strut_no_stress(self):
        f = framework_of(2, [(0, 1, (0.5, 0.0))])
        assert decide_rigidity(f).stress is None

    def test_triangular_three_circle_stress(self):
        m = ModuliPoint(0.5, SQRT3 / 2)
        p = optimal_packing(3, m)
        f = build_framework(p, extract_graph(p))
        stress = decide_rigidity(f).stress
        assert stress is not None
        assert verify_stress(f, stress)


class TestClassify:
    def test_interior_optimum_rigid(self):
        assert classify_packing(optimal_packing(4, ModuliPoint(0.25, 1.3))) == "rigid-LMD"

    def test_centers_canonicalized_once(self, monkeypatch):
        # one set of canonical points serves the tangencies and their
        # vectors (packing.contacts); the framework needs no further pass
        p = optimal_packing(4, ModuliPoint(0.25, 1.3))
        calls = []
        canonical = TorusPoint.canonical
        monkeypatch.setattr(TorusPoint, "canonical", lambda c, m: calls.append(c) or canonical(c, m))
        assert classify_packing(p) == "rigid-LMD"
        assert len(calls) == p.n

    def test_untouched_circle_free(self):
        p = Packing(
            m=ModuliPoint(0, 3),
            centers=(TorusPoint(0, 0), TorusPoint(0.5, 0.85), TorusPoint(0, 1.7)),
            radius=0.35,
        )
        assert classify_packing(p) == "free-circle"

    def test_duality_spot_check(self):
        # rigid frameworks with spanning struts never show both a flex and
        # no stress in these optima
        rng = np.random.default_rng(83)
        for n in (2, 3, 4):
            for idx in range(1, region_count(n)):
                m = sample_interior(n, idx, rng)
                p = optimal_packing(n, m)
                f = build_framework(p, extract_graph(p))
                decision = decide_rigidity(f)
                assert decision.flex is None
                assert decision.stress is not None

    def test_rationalization_stability(self):
        rng = np.random.default_rng(89)
        p = optimal_packing(3, ModuliPoint(0.2, 1.2))
        f = build_framework(p, extract_graph(p))
        base = decide_rigidity(f).rigid
        for _ in range(5):
            vectors = tuple(
                (e[0] + rng.uniform(-1e-13, 1e-13), e[1] + rng.uniform(-1e-13, 1e-13))
                for e in f.vectors
            )
            f2 = StrutFramework(n=f.n, ends=f.ends, vectors=vectors)
            assert decide_rigidity(f2).rigid == base


def horizontal_pair():
    return Packing(
        m=ModuliPoint(0, 1),
        centers=(TorusPoint(0, 0), TorusPoint(0.5, 0)),
        radius=0.25,
    )


class TestFloatChecks:
    """FLOAT_CHECK_TOL: a true certificate misses by rounding alone (3.7e-16
    at most, see rigidity), so one that is off by 1e-5 must fail."""

    def test_flex_with_a_strut_shrinking_by_1e_5_fails(self):
        p = horizontal_pair()
        f = build_framework(p, extract_graph(p))
        flex = decide_rigidity(f).flex
        assert verify_flex(f, flex)
        # the two struts are (+-0.5, 0): a horizontal velocity of 2e-5 on
        # vertex 1 shrinks one of them at the rate 1e-5
        (v0, (vx, vy)) = flex.velocities
        doctored = type(flex)((v0, (vx + 2e-5, vy)))
        v = np.asarray(doctored.velocities)
        i, j = np.array(f.ends).T
        assert np.vecdot(v[j] - v[i], f.vectors).min() == pytest.approx(-1e-5, rel=1e-9)
        assert not verify_flex(f, doctored)

    def test_stress_off_equilibrium_by_1e_5_fails(self):
        p = optimal_packing(2, ModuliPoint(0, 1))
        f = build_framework(p, extract_graph(p))
        stress = decide_rigidity(f).stress
        assert verify_stress(f, stress)
        w = np.array(stress.coefficients)
        scale = float(np.abs(w) @ np.hypot(*np.array(f.vectors).T))
        # more negative stays proper; the residual over the scale is 1e-5
        w[0] -= 1e-5 * scale / float(np.hypot(*f.vectors[0]))
        assert not verify_stress(f, type(stress)(tuple(w)))

    def test_stress_coefficient_of_minus_1_plus_1e_5_fails(self):
        p = optimal_packing(2, ModuliPoint(0, 1))
        f = build_framework(p, extract_graph(p))
        stress = decide_rigidity(f).stress
        w = np.array(stress.coefficients)
        assert w.max() == -1.0
        # scaled, it stays in equilibrium but is no longer proper
        assert not verify_stress(f, type(stress)(tuple(w * (1 - 1e-5))))


def _reference_flexible(f) -> bool:
    """Box search: maximize +-v_k over {v : (v_j - v_i).e >= 0, |v| <= 1}."""
    from scipy.optimize import linprog

    nv = 2 * (f.n - 1)
    rows = []
    for (i, j), e in zip(f.ends, f.vectors):
        row = np.zeros(nv)
        if j:
            row[2 * j - 2 : 2 * j] -= e
        if i:
            row[2 * i - 2 : 2 * i] += e
        rows.append(row)
    for k in range(nv):
        for sign in (1.0, -1.0):
            c = np.zeros(nv)
            c[k] = -sign
            res = linprog(c, A_ub=np.array(rows), b_ub=np.zeros(len(rows)),
                          bounds=[(-1, 1)] * nv, method="highs")
            if res.status == 0 and -res.fun > 1e-7:
                return True
    return False


def _reference_stress_and_rank(f) -> tuple[bool, int]:
    """Stress LP by scipy (w <= -1, equilibrium) and the numpy rank of the
    rigidity matrix with vertex 0 pinned."""
    from scipy.optimize import linprog

    n, m = f.n, len(f.ends)
    A = np.zeros((2 * n, m))
    R = np.zeros((m, 2 * n))
    for k, ((i, j), e) in enumerate(zip(f.ends, f.vectors)):
        A[2 * i : 2 * i + 2, k] += e
        A[2 * j : 2 * j + 2, k] -= e
        R[k, 2 * j : 2 * j + 2] += e
        R[k, 2 * i : 2 * i + 2] -= e
    res = linprog(np.zeros(m), A_eq=A, b_eq=np.zeros(2 * n),
                  bounds=[(None, -1)] * m, method="highs")
    return res.status == 0, int(np.linalg.matrix_rank(R[:, 2:], tol=1e-9))


class TestDecision:
    def test_random_frameworks_against_reference(self):
        rng = np.random.default_rng(97)
        verdicts = set()
        for _ in range(60):
            n = int(rng.integers(2, 4))
            struts = []
            for _ in range(int(rng.integers(2, 9))):
                i, j = (int(v) for v in rng.choice(n, 2, replace=False))
                t = rng.uniform(0, 2 * math.pi)
                struts.append((i, j, (0.5 * math.cos(t), 0.5 * math.sin(t))))
            f = framework_of(n, struts)
            decision = decide_rigidity(f)
            flexible = _reference_flexible(f)
            has_stress, rank = _reference_stress_and_rank(f)
            assert decision.rigid == (not flexible)
            assert (decision.stress is not None) == has_stress
            # Roth-Whiteley, checked on the reference side alone
            assert flexible == (not has_stress or rank < 2 * (n - 1))
            if decision.flex is not None:
                assert verify_flex(f, decision.flex)
            verdicts.add((decision.rigid, has_stress))
        # rigid, Farkas flex, and stress-but-rank-short all occur
        assert {(True, True), (False, False), (False, True)} <= verdicts

    def test_horizontal_pair_kernel_flex(self):
        p = horizontal_pair()
        decision = decide_rigidity(build_framework(p, extract_graph(p)))
        assert decision.stress is not None and not decision.rigid
        vx, vy = decision.flex.velocities[1]
        assert abs(vx) < 1e-9 and abs(vy) > 0.5

    def test_stress_but_rank_short(self):
        # three circles in a horizontal row on the square torus: the
        # constant stress balances, but nothing holds them vertically
        p = Packing(
            m=ModuliPoint(0, 1),
            centers=(TorusPoint(0, 0), TorusPoint(1 / 3, 0), TorusPoint(2 / 3, 0)),
            radius=1 / 6,
        )
        f = build_framework(p, extract_graph(p))
        calls = []
        with mock.patch.object(rigidity, "nullspace", lambda *a: calls.append(a) or nullspace(*a)):
            decision = decide_rigidity(f)
        assert len(calls) == 1  # the LP's basis is one strut short of rank 4
        assert decision.stress is not None and verify_stress(f, decision.stress)
        assert not decision.rigid and verify_flex(f, decision.flex)
        assert all(abs(vx) < 1e-9 for vx, _ in decision.flex.velocities)
        # the flex of the first kernel vector of the Fraction pinned matrix,
        # pinned and scaled in Fractions
        A, _ = fraction_equilibrium.equilibrium_system(f)
        v = [0, 0, *reference.nullspace([list(col) for col in zip(*A[2:])], 4)[0]]
        shifted = [c - v[k % 2] for k, c in enumerate(v)]
        top = max(map(abs, shifted))
        want = [float(c / top) for c in shifted]
        assert decision.flex.velocities == tuple(zip(want[::2], want[1::2]))

    def test_failed_float_check_raises(self, monkeypatch):
        p = horizontal_pair()
        pair = build_framework(p, extract_graph(p))
        q = optimal_packing(2, ModuliPoint(0, 1))
        square = build_framework(q, extract_graph(q))
        monkeypatch.setattr(rigidity, "verify_flex", lambda *a, **k: False)
        with pytest.raises(CertificateCheckFailed):
            decide_rigidity(pair)
        monkeypatch.setattr(rigidity, "verify_stress", lambda *a, **k: False)
        with pytest.raises(CertificateCheckFailed):
            decide_rigidity(square)
        with pytest.raises(CertificateCheckFailed):
            classify_packing(q)


ECG22_SAMPLES = Path(__file__).with_name("ecg22_samples.json")


def _recorded_packing(rec):
    """A packing from moduli, centers and edge length written as float.hex."""
    x, y = (float.fromhex(v) for v in rec["m"])
    centers = tuple(TorusPoint(*(float.fromhex(v) for v in c)) for c in rec["centers"])
    radius = float.fromhex(rec["edge_length"]) / 2
    return Packing(m=ModuliPoint(x, y), centers=centers, radius=radius)


def _closed_form_packings(seed, per_region):
    """The closed-form optimum of every region of n = 2, 3, 4 at seeded
    interior tori, with the tangency tolerance of a closed form."""
    rng = np.random.default_rng(seed)
    for n in (2, 3, 4):
        for idx in range(1, region_count(n) + 1):
            for k in range(per_region):
                yield f"R{idx}_{n}/{k}", optimal_packing(n, sample_interior(n, idx, rng)), DEFAULT_TOL


def _golden_packings():
    """The closed-form optimum of every region at two tori each, then two
    realizations of ECG2-2.  Those two are read from ecg22_samples.json:
    realize_embedding's samples (250 attempts, seed 77) as the solver drew
    them at 2c8e7d2, so the digests do not follow the solver's last bits."""
    yield from _closed_form_packings(101, 2)
    for label, rec in sorted(json.loads(ECG22_SAMPLES.read_text()).items()):
        yield label, _recorded_packing(rec), 1e-7


def _golden_frameworks():
    for label, p, tol in _golden_packings():
        yield label, build_framework(p, extract_graph(p, tol=tol), tol=tol)


def test_ecg22_realizations_flex(catalog3):
    """The solver still draws the two ECG2-2 samples that the golden
    frameworks stand for, and they are flexible with a checked flex."""
    embedding = catalog3.by_name("ECG2-2").embedding
    samples = realize_embedding(embedding, attempts=250, seed=77, max_samples=2)
    assert len(samples) == 2
    for s in samples:
        p = Packing(m=s.m, centers=s.centers, radius=s.edge_length / 2)
        assert classify_packing(p, tol=1e-7) == "flexible"
        f = build_framework(p, extract_graph(p, tol=1e-7), tol=1e-7)
        flex = decide_rigidity(f).flex
        assert flex is not None and verify_flex(f, flex)


def test_certificates_match_golden():
    """Flex and stress certificates stay identical: the digests in
    rigidity_golden.json were recorded from these frameworks at 2445afc.
    The stress LP's right-hand side, built from the struts, is -A 1."""
    got = {}
    for label, f in _golden_frameworks():
        rows, _ = rigidity._equilibrium_system(f)
        assert all(N[-1] == -sum(N[:-1]) for N, _ in rows), label
        got[label] = hashlib.sha256(repr(decide_rigidity(f)).encode()).hexdigest()
    assert got == json.loads(GOLDEN.read_text())


def test_one_full_row_reduction_per_pivot():
    """exact_lp brings a row to lowest terms only when it becomes the pivot,
    plus once for each phase-1 objective row: an updated row is left
    unreduced.  Counted over decide_rigidity on the golden frameworks and on
    the closed-form optima of every region at three more tori each."""
    calls = {"_reduced": 0, "_normalized": 0, "feasible_rows": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return mock.patch.object(module, name, wrapper)

    more = (
        (label, build_framework(p, extract_graph(p, tol=tol), tol=tol))
        for label, p, tol in _closed_form_packings(103, 3)
    )
    with counted(exact_lp, "_reduced"), counted(exact_lp, "_normalized"), \
            counted(rigidity, "feasible_rows"):
        for _, f in (*_golden_frameworks(), *more):
            decide_rigidity(f)
    assert calls["feasible_rows"] > 0 and calls["_normalized"] > calls["feasible_rows"]
    assert calls["_reduced"] == calls["_normalized"] + calls["feasible_rows"]


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-2, 2)))
@example(0.0)
@example(-0.0)
@example(-0.7)
@example(5e-324)  # subnormal: rounds to 0 or 1 / RATIONALIZE_DENOMINATOR
@example(0.5)  # denominator already at most RATIONALIZE_DENOMINATOR
@example(1 / 3)
@example(SQRT3 / 2)
@example(-SQRT3 / 2)
def test_rationalize_matches_limit_denominator(x):
    q = Fraction(x).limit_denominator(RATIONALIZE_DENOMINATOR)
    assert rigidity._rationalize(x) == (q.numerator, q.denominator)


def test_rows_match_fraction_construction():
    """The integer rows of the stress LP and of the pinned rigidity matrix
    (built from the stress LP's rationalized struts) are the integer rows
    (_row) of the Fraction matrices in fraction_equilibrium.py, on the
    golden frameworks and on the closed-form optima of every region at three
    more tori each."""
    more = (
        (label, build_framework(p, extract_graph(p, tol=tol), tol=tol))
        for label, p, tol in _closed_form_packings(103, 3)
    )
    for label, f in (*_golden_frameworks(), *more):
        A, b = fraction_equilibrium.equilibrium_system(f)
        rows, struts = rigidity._equilibrium_system(f)
        assert rows == [_row([*a, bi]) for a, bi in zip(A, b)], label
        assert rigidity._pinned_rows(f, struts) == _rows(zip(*A[2:])), label


def test_rigid_optima_make_no_nullspace_call():
    """The stress LP's final basis proves full rank on every rigid
    closed-form optimum: no region's optimum builds the pinned rigidity
    matrix, at forty interior tori per region and on the golden
    frameworks."""

    def forbidden(*args):
        raise AssertionError("nullspace called on a rigid framework")

    frameworks = [(label, build_framework(p, extract_graph(p, tol=tol), tol=tol))
                  for label, p, tol in _closed_form_packings(109, 40)]
    frameworks += [(label, f) for label, f in _golden_frameworks() if not label.startswith("ECG")]
    rigid = set()
    with mock.patch.object(rigidity, "nullspace", forbidden):
        for label, f in frameworks:
            if min(f.strut_counts()) >= 3:
                assert decide_rigidity(f).rigid, label
                rigid.add(label.split("/")[0])
    assert rigid == {f"R{idx}_{n}" for n in (2, 3, 4) for idx in range(1, region_count(n))}


def test_classify_makes_no_fraction_round_trip():
    """classify_packing reaches every verdict without rationalizing through
    Fraction.limit_denominator."""

    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction round trip in classify_packing")

    with mock.patch.object(Fraction, "limit_denominator", forbidden):
        verdicts = {label: classify_packing(p, tol=tol) for label, p, tol in _golden_packings()}
    assert {verdicts.pop(f"ECG2-2/{k}") for k in range(2)} == {"flexible"}
    assert set(verdicts.values()) == {"rigid-LMD", "free-circle"}


def _outcome(fn, *args):
    """fn's result, or the class of the package error it raises."""
    try:
        return fn(*args)
    except TorusPackError as exc:
        return type(exc)


def _region_diagram_packings(per_set):
    """The closed-form optimum of every region of n = 2, 3, 4 at per_set
    interior tori each, at per_set tori on each region curve, and at the
    corners of the region diagram: the strip's two and both ends of every
    curve."""
    rng = np.random.default_rng(107)
    for n in (2, 3, 4):
        count = region_count(n)
        tori = [sample_interior(n, idx, rng) for idx in range(1, count + 1) for _ in range(per_set)]
        tori += [sample_boundary(n, idx, rng) for idx in range(1, count) for _ in range(per_set)]
        tori += [ModuliPoint(0.0, 1.0), ModuliPoint(0.5, SQRT3 / 2)]
        tori += [ModuliPoint(x, boundary_curve(n, idx, x)) for idx in range(1, count) for x in (0.0, 0.5)]
        for m in tori:
            yield f"n={n} ({m.x!r}, {m.y!r})", optimal_packing(n, m)


def test_float_path_matches_numpy_reference(catalog3, catalog4):
    """Edge vectors, framework, half-plane test and float re-checks on
    Python floats against their numpy versions in rigidity_reference.py:
    the same edge vectors bit for bit, the same classify_packing verdicts at
    tol 1e-9 and 1e-7, and the same certificates from decide_rigidity, on
    the region diagram's closed-form optima and on every probe sample."""
    cases = [(label, p, extract_graph(p), DEFAULT_TOL) for label, p in _region_diagram_packings(40)]
    samples = [(f"{e.name} sample {k}", Packing(m=s.m, centers=s.centers, radius=s.edge_length / 2),
                s.graph, REALIZATION_CLEARANCE)
               for cat in (catalog3, catalog4) for e in cat.entries for k, s in enumerate(e.samples)]
    assert len(samples) == 48
    verdicts = set()
    for label, p, g, tol in cases + samples:
        want = rigidity_reference.edge_vectors(p, g)
        assert np.array(p.edge_vectors(g), float).reshape(-1, 2).tobytes() == want.tobytes(), label
        for t in (1e-9, 1e-7):
            verdict = _outcome(classify_packing, p, t)
            assert verdict == _outcome(rigidity_reference.classify_packing, p, t), (label, t)
            verdicts.add(verdict)
        f, ref = build_framework(p, g, tol), rigidity_reference.framework(p, g, want, tol)
        assert f.strut_counts() == ref.strut_counts().tolist(), label
        assert decide_rigidity(f) == rigidity_reference.decide_rigidity(ref), label
    assert {"rigid-LMD", "flexible", "free-circle"} <= verdicts
