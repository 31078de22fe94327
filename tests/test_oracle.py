import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import equal_length_reference as reference
import realization_reference
from toruspack import oracle
from toruspack.closed_form import optimal_radius
from toruspack.ecg import EXPECTED_NOT_REALIZABLE, REALIZE_ATTEMPTS, REALIZE_SEED
from toruspack.errors import NoTorusEmbedding
from toruspack.lattice import ModuliPoint, TorusPoint, wrapped_translates
from toruspack.oracle import (
    compare_with_closed_form,
    maximize_min_distances,
    realize_embedding,
)
from toruspack.packing import Packing, contacts, extract_graph
from toruspack.regions import region_count, sample_interior

SQRT3 = math.sqrt(3.0)

RESTARTS = 60  # plenty for these smoke cases; acceptance uses 200


class TestMaxMin:
    def test_single_circle(self):
        res = maximize_min_distances(1, [ModuliPoint(0.3, 2.0)], restarts=5, seed=1)[0]
        assert res.best_radius == pytest.approx(0.5, abs=1e-12)

    def test_two_on_square(self):
        res = maximize_min_distances(2, [ModuliPoint(0, 1)], restarts=RESTARTS, seed=1)[0]
        assert res.best_radius == pytest.approx(math.sqrt(2) / 4, abs=1e-6)

    def test_three_on_triangular(self):
        res = maximize_min_distances(3, [ModuliPoint(0.5, SQRT3 / 2)], restarts=RESTARTS, seed=1)[0]
        assert res.best_radius == pytest.approx(1 / math.sqrt(12), abs=1e-6)

    def test_deterministic(self):
        a = maximize_min_distances(3, [ModuliPoint(0.1, 1.4)], restarts=20, seed=9)[0]
        b = maximize_min_distances(3, [ModuliPoint(0.1, 1.4)], restarts=20, seed=9)[0]
        assert a.best_radius == b.best_radius
        assert all(
            (p.u, p.w) == (q.u, q.w) for p, q in zip(a.best_centers, b.best_centers)
        )

    def test_never_exceeds_formula(self):
        rng = np.random.default_rng(97)
        from toruspack.regions import region_count, sample_interior

        for n in (2, 3, 4):
            for idx in range(1, region_count(n) + 1):
                m = sample_interior(n, idx, rng)
                cmp = compare_with_closed_form(n, m, restarts=40, seed=3)
                assert cmp.oracle_radius <= cmp.formula_radius + 1e-6

    @pytest.mark.parametrize("x, y", [
        (0.044922935011779075, 1.116060699989568),
        (0.024726060575226194, 1.1425781670439192),
        (0.2524725827819966, 0.9952302128383985),
    ])
    def test_lands_on_formula(self, x, y):
        # n = 4 criterion-3 tori: the first two stayed 6e-6..7e-6 short with
        # a one-point-at-a-time polish before one refine, the third 6.6e-5
        # short with a single refine round
        m = ModuliPoint(x, y)
        res = maximize_min_distances(4, [m], restarts=200, seed=101)[0]
        assert abs(res.best_radius - optimal_radius(4, m)) <= 1e-9

    def test_free_region_caps_at_half(self):
        res = maximize_min_distances(3, [ModuliPoint(0, 3)], restarts=RESTARTS, seed=2)[0]
        assert res.best_radius == pytest.approx(0.5, abs=1e-6)
        p = Packing(
            m=ModuliPoint(0, 3), centers=res.best_centers, radius=res.best_radius
        )
        g = extract_graph(p, tol=1e-5)
        assert g.loop_count() >= 1


def _corners(d, m):
    """The 4 corners of the lattice cell of each difference d (..., 2),
    plainly: wrap f = d - rint(d), take t_c in {f_c, f_c - copysign(1, f_c)}
    for each coordinate, and return the 4 plane vectors (2, ...) in the
    order (f1, f2), (f1, g2), (g1, f2), (g1, g2), g = f - copysign(1, f)."""
    f = d - np.rint(d)
    g = f - np.copysign(1.0, f)
    return [
        np.stack([t1 + m.x * t2, m.y * t2])
        for t1 in (f[..., 0], g[..., 0])
        for t2 in (f[..., 1], g[..., 1])
    ]


def _reference_ascent(T, m):
    """The soft-min ascent of one torus written plainly on the corner
    window, every sum a left-to-right Python sum: the arithmetic the
    buffered, batched kernel keeps, in the same order."""
    n = T.shape[1]
    I, J = np.triu_indices(n, k=1)
    binv = np.linalg.inv(m.basis)
    beta, step = 64.0, 0.08
    for it in range(220):
        v = _corners(T[:, J] - T[:, I], m)  # 4 x (2, R, P)
        dist = [np.sqrt(c[0] ** 2 + c[1] ** 2 + 1e-18) for c in v]
        dmin = np.min(dist, axis=(0, 2))[:, None]
        w = [np.exp(-beta * (d - dmin)) for d in dist]
        total = sum(sum(w).T)  # each pair's 4 corners, then the pairs in turn
        w = [wc / (total[:, None] * d) for wc, d in zip(w, dist)]
        contrib = sum(wc * c for wc, c in zip(w, v))  # (2, R, P)
        grad = np.zeros((2,) + T.shape[:2])
        for p, (i, j) in enumerate(zip(I, J)):
            grad[:, :, j] += contrib[:, :, p]
            grad[:, :, i] -= contrib[:, :, p]
        grad = np.moveaxis(grad, 0, -1)
        norm = np.sqrt((grad**2).sum(-1, keepdims=True)) + 1e-15
        T = (T + (step * grad / norm) @ binv) % 1.0
        if (it + 1) % 22 == 0:
            beta = min(beta * 2, 65536.0)
            step *= 0.75
    return T


def _tori(n, count, seed):
    rng = np.random.default_rng(seed)
    return [sample_interior(n, 1 + k % region_count(n), rng) for k in range(count)]


_POOL = {n: _tori(n, 4, 40 + n) for n in (2, 3, 4)}


@functools.cache
def _alone(n, k, seed):
    return maximize_min_distances(n, [_POOL[n][k]], restarts=10, seed=seed)[0]


class TestBatchedAscent:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_kernel_matches_reference(self, n):
        tori = _tori(n, 3, n)
        T0 = np.random.default_rng(n).random((12, n, 2))
        ends = oracle._ascent(T0, tori)
        for m, T in zip(tori, ends):
            np.testing.assert_array_equal(T, _reference_ascent(T0.copy(), m))

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([2, 3, 4]), picks=st.lists(st.integers(0, 3), min_size=1, max_size=6),
           seed=st.integers(0, 2))
    def test_batch_gives_each_torus_its_own_result(self, n, picks, seed):
        # any subset, order and repeats of tori: each result is bit for bit
        # the one-torus call's
        batched = maximize_min_distances(n, [_POOL[n][k] for k in picks], restarts=10, seed=seed)
        assert [repr(r) for r in batched] == [repr(_alone(n, k, seed)) for k in picks]

    @pytest.mark.parametrize("budget", [1, 3 * 4 * 3 * 10 * 8])
    def test_blocks_give_each_torus_its_own_result(self, monkeypatch, budget):
        # blocks of one torus, then of three (3 + 1 for four tori)
        whole = maximize_min_distances(3, _POOL[3], restarts=10, seed=1)
        monkeypatch.setattr(oracle, "ASCENT_BLOCK_BYTES", budget)
        blocked = maximize_min_distances(3, _POOL[3], restarts=10, seed=1)
        assert [repr(r) for r in blocked] == [repr(r) for r in whole]

    def test_ascent_makes_no_einsum_call(self, monkeypatch):
        def einsum(*args, **kwargs):
            raise AssertionError("np.einsum called")

        monkeypatch.setattr(np, "einsum", einsum)
        assert len(maximize_min_distances(3, _POOL[3][:2], restarts=10, seed=1)) == 2

    def test_refine_is_one_solve_per_round(self, monkeypatch):
        # four tori: one batched solve per round, not one per torus
        calls = []
        solve = oracle._solve_equal_lengths

        def counting(*args):
            calls.append(len(args[-1]))
            return solve(*args)

        monkeypatch.setattr(oracle, "_solve_equal_lengths", counting)
        batched = maximize_min_distances(4, _POOL[4], restarts=10, seed=0)
        assert 1 <= len(calls) <= oracle.REFINE_ROUNDS
        assert calls[0] == len(_POOL[4]) * 10  # every candidate of every torus
        assert [repr(r) for r in batched] == [repr(_alone(4, k, 0)) for k in range(4)]

    def test_empty_table_and_single_circle(self):
        assert maximize_min_distances(3, [], restarts=5, seed=0) == []
        ones = maximize_min_distances(1, _POOL[2][:2], restarts=5, seed=0)
        assert [r.best_radius for r in ones] == [0.5, 0.5]


_X = st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5))


@st.composite
def _strip_tori(draw):
    x = draw(_X)
    y_min = math.sqrt(max(1.0 - x * x, 0.75))
    y = draw(st.one_of(st.just(y_min), st.floats(y_min, 2.0), st.floats(2.0, 1e3)))
    return ModuliPoint(x, y)


_DIFF = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(-1e12, 1e12),
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, 1e-300, -1e-300]),
)


@settings(max_examples=300, deadline=None)
@given(m=_strip_tori(), d=hnp.arrays(float, st.tuples(st.integers(1, 40), st.just(2)), elements=_DIFF))
@example(m=ModuliPoint(0.5, SQRT3 / 2), d=np.array([[1 / 3, 1 / 3], [0.5, 0.5], [-0.5, 0.5]]))
@example(m=ModuliPoint(0.0, 1.0), d=np.array([[0.5, 0.5], [0.5, -0.0], [-0.0, 0.5]]))
def test_corner_window_holds_the_nearest_translate(m, d):
    """The ascent's 4 corners hold the minimum of wrapped_translates's 9
    bit for bit, on every torus of the strip and every difference."""
    _, v = wrapped_translates(d, m)
    corners = np.stack(_corners(d, m), -1)
    nine = np.sqrt(v[0] ** 2 + v[1] ** 2).min(-1)
    four = np.sqrt(corners[0] ** 2 + corners[1] ** 2).min(-1)
    np.testing.assert_array_equal(four, nine)


class TestRealize:
    def _survivors(self, n):
        from toruspack.ecg import identify

        return identify(n)

    def test_realization_reproduces_embedding(self):
        from toruspack.ecg import identify

        cat = identify(3)
        entry = cat.by_name("ECG1-1")
        samples = realize_embedding(entry.embedding, attempts=120, seed=3, max_samples=4)
        assert samples
        for s in samples:
            assert s.residual < 1e-10
            p = Packing(m=s.m, centers=s.centers, radius=s.edge_length / 2)
            g = extract_graph(p, tol=1e-6)
            assert len(g.edges) == entry.embedding.graph.edge_count

    def test_family_spans_regions(self):
        from toruspack.ecg import identify
        from toruspack.regions import classify

        cat = identify(3)
        entry = cat.by_name("ECG1-1")
        samples = realize_embedding(entry.embedding, attempts=200, seed=11, max_samples=8)
        regions = {classify(3, s.m).name for s in samples}
        assert "R1_3" in regions

    def test_clearance_rejects_limit_point(self, catalog3, monkeypatch):
        # Solve ECG1-1 with one pair of unjoined neighbours held at 1 + 1e-6
        # times the edge length: a limit point of the graph with that edge
        # added (ECG2-1).  Read at the extraction tolerance it is ECG1-1;
        # at REALIZATION_CLEARANCE it gains the edge and is rejected.
        e = catalog3.by_name("ECG1-1").embedding
        A, c, darts = oracle._realization_system(e)
        Aq, cq, joined = oracle._tangent_pairs(A, c, darts)
        rng = np.random.default_rng(5)
        u0 = np.column_stack([rng.uniform(-1, 2, (200, 4)), rng.uniform(-0.9, 0.9, 200),
                              rng.uniform(0.5, 3.6, 200), rng.uniform(0.4, 1.05, 200)])
        near = []
        for p in np.flatnonzero(~joined):
            rows = np.concatenate([A, Aq[p : p + 1] / (1 + 1e-6)])
            offsets = np.concatenate([c, cq[p : p + 1] / (1 + 1e-6)])
            u = oracle._solve_equal_lengths(*_stacked(rows, offsets, None, None, len(u0)), u0)
            d = oracle._edge_vectors(u, rows, offsets)
            residual = np.abs(np.hypot(d[..., 0], d[..., 1]) - np.abs(u[:, -1:])).max(1)
            near += list(u[residual <= oracle.RESIDUAL_TOL])
        assert near
        assert not any(oracle._validate_solution(e, x, 0.0) for x in near)
        monkeypatch.setattr(oracle, "REALIZATION_CLEARANCE", 1e-7)
        assert any(oracle._validate_solution(e, x, 0.0) for x in near)

    @pytest.mark.parametrize("excess, loops", [(5e-10, 3), (5e-6, 0)])
    def test_radius_past_the_cap_rejected(self, catalog3, excess, loops):
        # three circles on the torus (0, 3.5), no two closer than 1.2, at
        # radius 1/2 + excess: each meets its translate by (1, 0) at distance
        # 1 < 2r.  At 5e-10 contacts reads three loops; at 5e-6 it reads
        # neither a loop nor an overlap, so the cap must hold with no slack
        centers = (TorusPoint(0.0, 0.0), TorusPoint(0.5, 1.1), TorusPoint(0.0, 2.2))
        packing = Packing(m=ModuliPoint(0.0, 3.5), centers=centers, radius=0.5 + excess)
        assert contacts(packing, oracle.REALIZATION_CLEARANCE)[0].loop_count() == loops
        e = catalog3.by_name("ECG1-1").embedding
        u = np.array([0.5, 1.1, 0.0, 2.2, 0.0, 3.5, 1.0 + 2 * excess])
        assert oracle._validate_solution(e, u, 0.0) is None

    @settings(max_examples=25, deadline=None)
    @given(pick=st.integers(0, 26), seed=st.integers(0, 2**16),
           attempts=st.integers(1, 300), max_samples=st.integers(1, 10))
    # the first block holds some samples and the second the rest
    @example(pick=16, seed=29745, attempts=36, max_samples=4)  # ECG13-2: 2 + 2
    @example(pick=6, seed=55848, attempts=58, max_samples=8)  # ECG6-1: 4 + 4
    def test_blocks_match_one_batch(self, catalog3, catalog4, pick, seed, attempts, max_samples):
        # the blocks' samples, in order, are those of one batch of all starts
        e = (catalog3.survivors() + catalog4.survivors())[pick].embedding
        got = realize_embedding(e, attempts=attempts, seed=seed, max_samples=max_samples)
        ref = realization_reference.realize_embedding(e, attempts, seed, max_samples)
        assert repr(got) == repr(ref)

    def test_solved_and_unsolved_starts_lie_far_apart(self, catalog3, monkeypatch):
        # the one solved test, residual <= RESIDUAL_TOL, needs no second one:
        # every non-degenerate start of the n = 3 survivors (ECG2-2 among
        # them) at REALIZE_SEED lands 100x inside it or 100x outside
        residuals = []
        solve = oracle._solve_equal_lengths

        def recording(rows, offsets, sign, active, u0):
            u = solve(rows, offsets, sign, active, u0)
            d = oracle._edge_vectors(u, rows[sign > 0], offsets[:, sign > 0])
            L = np.abs(u[:, -1])
            sound = (L >= oracle.DEGENERATE_SCALE) & (np.abs(u[:, -2]) >= oracle.DEGENERATE_SCALE)
            residuals.extend(np.abs(np.hypot(d[..., 0], d[..., 1]) - L[:, None]).max(1)[sound])
            return u

        monkeypatch.setattr(oracle, "_solve_equal_lengths", recording)
        survivors = catalog3.survivors()
        assert "ECG2-2" in [entry.name for entry in survivors]
        for entry in survivors:
            realize_embedding(entry.embedding, attempts=REALIZE_ATTEMPTS, seed=REALIZE_SEED,
                              max_samples=REALIZE_ATTEMPTS)
        residuals = np.array(residuals)
        solved = residuals <= oracle.RESIDUAL_TOL / 100
        assert solved.any() and (~solved).any()
        assert (residuals[~solved] >= 100 * oracle.RESIDUAL_TOL).all()

    @pytest.mark.parametrize("name", ["ECG2-2", sorted(EXPECTED_NOT_REALIZABLE)[0]])
    def test_solves_starts_until_last_sample(self, catalog3, catalog4, monkeypatch, name):
        # the ECG2-2 probe holds its 8 samples before its last start; a
        # name that realizes nothing solves every start
        solved = []
        solve = oracle._solve_equal_lengths

        def counting(*args):
            solved.append(len(args[-1]))
            return solve(*args)

        monkeypatch.setattr(oracle, "_solve_equal_lengths", counting)
        entry = (catalog3 if name == "ECG2-2" else catalog4).by_name(name)
        samples = realize_embedding(entry.embedding, attempts=REALIZE_ATTEMPTS,
                                    seed=REALIZE_SEED, max_samples=8)
        assert samples == list(entry.samples)
        if name == "ECG2-2":
            assert len(samples) == 8 and sum(solved) < REALIZE_ATTEMPTS
        else:
            assert not samples and sum(solved) == REALIZE_ATTEMPTS

    def test_probe_canonicalizes_each_center_twice(self, catalog3, monkeypatch):
        # per validated start: the sample's centers, then their graph at
        # REALIZATION_CLEARANCE and its edge vectors (packing.contacts)
        calls = []
        canonical = TorusPoint.canonical
        monkeypatch.setattr(TorusPoint, "canonical", lambda c, m: calls.append(c) or canonical(c, m))
        samples = realize_embedding(catalog3.by_name("ECG2-2").embedding, attempts=REALIZE_ATTEMPTS,
                                    seed=REALIZE_SEED, max_samples=8)
        assert len(samples) == 8 and len(calls) == 48

    @pytest.mark.parametrize("error", [NoTorusEmbedding("not 2-cell"), ValueError("shapes")],
                             ids=["no-embedding", "other"])
    def test_only_a_drawing_without_embedding_is_rejected(self, catalog3, monkeypatch, error):
        # a drawing with no torus embedding rejects its start; any other
        # ValueError (a numpy shape bug, say) is no verdict and propagates
        def embedding_from_packing(g, vectors):
            raise error

        monkeypatch.setattr(oracle, "embedding_from_packing", embedding_from_packing)
        e = catalog3.by_name("ECG1-1").embedding
        if isinstance(error, NoTorusEmbedding):
            assert realize_embedding(e, attempts=120, seed=3, max_samples=4) == []
        else:
            with pytest.raises(ValueError, match="shapes"):
                realize_embedding(e, attempts=120, seed=3, max_samples=4)


def _random_system(rng, E, k, P):
    """Random edge tensors (the length column of A is zero, as in both
    callers) and starts whose length sits at the median tangent-pair
    length, so that about half the hinge terms are active."""
    A = rng.normal(size=(E, 2, k))
    A[:, :, -1] = 0.0
    c = rng.normal(size=(E, 2))
    Aq = rng.normal(size=(P, 2, k))
    Aq[:, :, -1] = 0.0
    cq = rng.normal(size=(P, 2))
    u = rng.normal(size=(3, k))
    q = oracle._edge_vectors(u, Aq, cq)
    u[:, -1] = np.median(np.hypot(q[..., 0], q[..., 1]), axis=1) if P else 1.0
    return A, c, (Aq, cq) if P else None, u


def _stacked(A, c, hinge, active, B):
    """The solver's one system for B starts: the edge rows A (sign +1), then
    the hinge rows (sign -1) if any; offsets c (E, 2) shared or (B, E, 2)
    per start, and each hinge's cq shared; the edges' (B, E) mask active,
    or all of them, and every hinge active."""
    Aq, cq = hinge if hinge is not None else (np.zeros((0,) + A.shape[1:]), np.zeros((0, 2)))
    offsets = np.concatenate([np.broadcast_to(c, (B,) + c.shape[-2:]), np.broadcast_to(cq, (B,) + cq.shape)], 1)
    active = np.ones((B, len(A))) if active is None else active
    return (np.concatenate([A, Aq]), offsets, np.repeat([1.0, -1.0], [len(A), len(Aq)]),
            np.concatenate([active, np.ones((B, len(Aq)))], 1))


def _terms(u, A, c, hinge=None, active=None):
    """The solver's residuals (B, m) and Jacobian (B, m, k) at the starts u."""
    rows, offsets, sign, mask = _stacked(A, c, hinge, active, len(u))
    r, w, s = oracle._equal_length_terms(u, rows, offsets, sign, mask)
    return r, oracle._jacobian(w, s, rows)


def _magnitudes(u, A, c, hinge):
    """For each entry of r (B, m) and J (B, m, k), the sum of the magnitudes
    of the terms its formula adds up: its rounding error is a small
    multiple of machine epsilon times this."""
    rows, offsets, _, _ = _stacked(
        np.abs(A), np.abs(c), None if hinge is None else (np.abs(hinge[0]), np.abs(hinge[1])), None, len(u)
    )
    D = reference.edge_vectors(np.abs(u), rows, offsets)
    L = np.abs(u[:, -1:])
    size_J = 2 * np.einsum("bet,etk->bek", D, np.abs(rows))
    size_J[..., -1] += 2 * L
    return (D**2).sum(-1) + L**2, size_J


def _solver_systems():
    """Three systems of six starts: hinges with a shared c and a consistent
    solution, per-start c with active masks, and both at once.  Every
    other start's c is perturbed off the solution, so that starts finish
    at different iterations."""
    rng = np.random.default_rng(29)
    systems = []
    for k, E, P, per_start in ((7, 6, 9, False), (5, 8, 0, True), (6, 5, 4, True)):
        A, c, hinge, _ = _random_system(rng, E, k, P)
        u_star = rng.normal(size=k)
        u_star[-1] = rng.uniform(0.5, 1.5)
        theta = rng.uniform(0, 2 * math.pi, E)
        c = u_star[-1] * np.stack([np.cos(theta), np.sin(theta)], 1) - A @ u_star
        u0 = u_star + 0.3 * rng.normal(size=(6, k))
        active = None
        if per_start:
            c = c + 0.1 * rng.normal(size=(6, E, 2)) * (np.arange(6) % 2)[:, None, None]
            active = (rng.random((6, E)) < 0.8).astype(float)
        systems.append((A, c, hinge, active, u0))
    return systems


_SYSTEMS = _solver_systems()


def _solve_picks(which, picks):
    A, c, hinge, active, u0 = _SYSTEMS[which]
    sel = np.array(picks)
    rows, offsets, sign, mask = _stacked(A, c, hinge, active, len(u0))
    return oracle._solve_equal_lengths(rows, offsets[sel], sign, mask[sel], u0[sel])


@functools.cache
def _solved_alone(which, b):
    return _solve_picks(which, [b])[0].tobytes()


class TestEqualLengthSolver:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), E=st.integers(1, 12), k=st.integers(2, 9),
           P=st.integers(0, 10), per_start_c=st.booleans(), masked=st.booleans())
    def test_kernel_matches_einsum_reference(self, seed, E, k, P, per_start_c, masked):
        rng = np.random.default_rng(seed)
        A, c, hinge, u = _random_system(rng, E, k, P)
        u[:, -1] *= 1.001  # off the median hinge, which _random_system puts on its switch
        if per_start_c:
            c = c + rng.normal(size=(len(u), E, 2))
        active = (rng.random((len(u), E)) < 0.7).astype(float) if masked else None
        r, J = _terms(u, A, c, hinge, active)
        JTJ, JTr = oracle._normal_equations(J, r)
        r_ref, J_ref = reference.equal_length_terms(u, A, c, hinge, active)
        JTJ_ref, JTr_ref = reference.normal_equations(J_ref, r_ref)
        # every entry within 1e-12 of the sum of the magnitudes it adds up
        size_r, size_J = _magnitudes(u, A, c, hinge)
        size_JTJ, size_JTr = reference.normal_equations(size_J, size_r)
        for got, ref, size in [(r, r_ref, size_r), (J, J_ref, size_J),
                               (JTJ, JTJ_ref, size_JTJ), (JTr, JTr_ref, size_JTr)]:
            assert got.shape == ref.shape
            assert (np.abs(got - ref) <= 1e-12 * size).all()

    @settings(max_examples=30, deadline=None)
    @given(which=st.integers(0, len(_SYSTEMS) - 1),
           picks=st.lists(st.integers(0, 5), min_size=1, max_size=8))
    def test_each_start_solves_as_alone(self, which, picks):
        # any subset, order and repeats of starts: each start's u is bit for
        # bit its one-start result
        u = _solve_picks(which, picks)
        assert [x.tobytes() for x in u] == [_solved_alone(which, b) for b in picks]

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), E=st.integers(1, 12),
           k=st.integers(2, 9), P=st.integers(0, 10))
    def test_jacobian_matches_central_differences(self, seed, E, k, P):
        A, c, hinge, u = _random_system(np.random.default_rng(seed), E, k, P)
        r, J = _terms(u, A, c, hinge)
        h = 1e-6
        fd = np.empty_like(J)
        for i in range(k):
            step = np.zeros(k)
            step[i] = h
            fd[..., i] = (_terms(u + step, A, c, hinge)[0]
                          - _terms(u - step, A, c, hinge)[0]) / (2 * h)
        # the hinge is not differentiable where it switches on
        smooth = np.ones_like(r, dtype=bool)
        if hinge is not None:
            q = oracle._edge_vectors(u, *hinge)
            gap = u[:, -1:] ** 2 - (q**2).sum(-1)
            smooth[:, E:] = np.abs(gap) > 1e-4
        np.testing.assert_allclose(J[smooth], fd[smooth], rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scipy_least_squares(self, seed):
        least_squares = pytest.importorskip("scipy.optimize").least_squares
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 8))
        overdetermined = seed % 2 == 0
        E = k + 3 if overdetermined else k - 2
        # a consistent system: every edge has length L at u_star
        u_star = rng.normal(size=k)
        u_star[-1] = rng.uniform(0.5, 1.5)
        A = rng.normal(size=(E, 2, k))
        A[:, :, -1] = 0.0
        theta = rng.uniform(0, 2 * math.pi, E)
        c = u_star[-1] * np.stack([np.cos(theta), np.sin(theta)], 1) - A @ u_star
        u0 = u_star + 0.05 * rng.normal(size=(4, k))
        u = oracle._solve_equal_lengths(*_stacked(A, c, None, None, len(u0)), u0)
        cost = 0.5 * (reference.equal_length_terms(u, A, c)[0] ** 2).sum(1)
        for b in range(len(u0)):
            ref = least_squares(
                lambda v: _terms(v[None], A, c)[0][0], u0[b],
                method="lm" if overdetermined else "trf",
                xtol=1e-15, ftol=1e-15, gtol=1e-15,
            )
            assert ref.cost < 1e-20
            assert cost[b] <= 1e-22
            if overdetermined:  # the zero-residual point is locally unique
                np.testing.assert_allclose(u[b], ref.x, atol=1e-8)
