import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import equal_length_reference as reference
import realization_reference
from toruspack import realization
from toruspack.ecg import NOT_REALIZABLE, PUBLISHED, REALIZE_ATTEMPTS, REALIZE_SEED
from toruspack.errors import NoTorusEmbedding
from toruspack.lattice import ModuliPoint, TorusPoint
from toruspack.packing import Packing, contacts, extract_graph
from toruspack.realization import realize_embedding


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
        A, c, darts = realization._realization_system(e)
        Aq, cq, joined = realization._tangent_pairs(A, c, darts)
        rng = np.random.default_rng(5)
        u0 = np.column_stack([rng.uniform(-1, 2, (200, 4)), rng.uniform(-0.9, 0.9, 200),
                              rng.uniform(0.5, 3.6, 200), rng.uniform(0.4, 1.05, 200)])
        near = []
        for p in np.flatnonzero(~joined):
            rows = np.concatenate([A, Aq[p : p + 1] / (1 + 1e-6)])
            offsets = np.concatenate([c, cq[p : p + 1] / (1 + 1e-6)])
            u = realization._solve_equal_lengths(*_stacked(rows, offsets, None, None, len(u0)), u0)
            d = realization._edge_vectors(u, rows, offsets)
            residual = np.abs(np.hypot(d[..., 0], d[..., 1]) - np.abs(u[:, -1:])).max(1)
            near += list(u[residual <= realization.RESIDUAL_TOL])
        assert near
        assert not any(realization._validate_solution(e, x, 0.0) for x in near)
        monkeypatch.setattr(realization, "REALIZATION_CLEARANCE", 1e-7)
        assert any(realization._validate_solution(e, x, 0.0) for x in near)

    @pytest.mark.parametrize("excess, loops", [(5e-10, 3), (5e-6, 0)])
    def test_radius_past_the_cap_rejected(self, catalog3, excess, loops):
        # three circles on the torus (0, 3.5), no two closer than 1.2, at
        # radius 1/2 + excess: each meets its translate by (1, 0) at distance
        # 1 < 2r.  At 5e-10 contacts reads three loops; at 5e-6 it reads
        # neither a loop nor an overlap, so the cap must hold with no slack
        centers = (TorusPoint(0.0, 0.0), TorusPoint(0.5, 1.1), TorusPoint(0.0, 2.2))
        packing = Packing(m=ModuliPoint(0.0, 3.5), centers=centers, radius=0.5 + excess)
        assert contacts(packing, realization.REALIZATION_CLEARANCE)[0].loop_count() == loops
        e = catalog3.by_name("ECG1-1").embedding
        u = np.array([0.5, 1.1, 0.0, 2.2, 0.0, 3.5, 1.0 + 2 * excess])
        assert realization._validate_solution(e, u, 0.0) is None

    @settings(max_examples=25, deadline=None)
    @given(pick=st.integers(0, 26), seed=st.integers(0, 2**16),
           attempts=st.integers(1, 300), max_samples=st.integers(1, 10))
    # the first block holds some samples and the second the rest
    @example(pick=16, seed=29745, attempts=36, max_samples=4)  # ECG13-2: 2 + 2
    @example(pick=6, seed=55848, attempts=58, max_samples=8)  # ECG6-1: 4 + 4
    # a start whose tangent directions leave a gap of pi passes the block
    # screen and is rejected by _validate_solution's half-plane test
    @example(pick=8, seed=2026, attempts=240, max_samples=8)  # ECG4-1
    @example(pick=11, seed=2026, attempts=240, max_samples=8)  # ECG4-2
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
        solve = realization._solve_equal_lengths

        def recording(rows, offsets, sign, u0):
            u = solve(rows, offsets, sign, u0)
            assert (sign == sign[0]).all()  # every start signs the rows alike
            d = realization._edge_vectors(u, rows[sign[0] > 0], offsets[:, sign[0] > 0])
            L = np.abs(u[:, -1])
            sound = (L >= realization.DEGENERATE_SCALE) & (np.abs(u[:, -2]) >= realization.DEGENERATE_SCALE)
            residuals.extend(np.abs(np.hypot(d[..., 0], d[..., 1]) - L[:, None]).max(1)[sound])
            return u

        monkeypatch.setattr(realization, "_solve_equal_lengths", recording)
        survivors = catalog3.survivors()
        assert "ECG2-2" in [entry.name for entry in survivors]
        for entry in survivors:
            realize_embedding(entry.embedding, attempts=REALIZE_ATTEMPTS, seed=REALIZE_SEED,
                              max_samples=REALIZE_ATTEMPTS)
        residuals = np.array(residuals)
        solved = residuals <= realization.RESIDUAL_TOL / 100
        assert solved.any() and (~solved).any()
        assert (residuals[~solved] >= 100 * realization.RESIDUAL_TOL).all()

    def test_kept_edges_are_tangencies_well_inside_the_clearance(self, catalog3):
        # _validate_solution does not check edge lengths: a kept start has a
        # residual of at most RESIDUAL_TOL at L >= DEGENERATE_SCALE, and under
        # the radius cap the reduction scales it by at most 1 / L.  So its
        # edges agree with 2r to RESIDUAL_TOL / DEGENERATE_SCALE, which must
        # stay 100x inside REALIZATION_CLEARANCE, where its graph is read
        bound = realization.RESIDUAL_TOL / realization.DEGENERATE_SCALE
        assert bound <= realization.REALIZATION_CLEARANCE / 100
        for entry in catalog3.survivors():
            for s in realize_embedding(entry.embedding, attempts=REALIZE_ATTEMPTS,
                                       seed=REALIZE_SEED, max_samples=8):
                p = Packing(m=s.m, centers=s.centers, radius=s.edge_length / 2)
                g, vectors = contacts(p, realization.REALIZATION_CLEARANCE)
                assert g == s.graph and s.residual <= bound
                error = max(abs(math.hypot(*e) - s.edge_length) for e in vectors)
                assert error <= s.residual + 1e-15

    def test_skips_an_empty_block(self, catalog3, monkeypatch):
        # attempts <= FIRST_BLOCK_PER_SAMPLE * max_samples leaves the second
        # block empty; it is not solved, and the samples are one batch's
        sizes = []
        solve = realization._solve_equal_lengths

        def recording(*args):
            sizes.append(len(args[-1]))
            return solve(*args)

        for entry in catalog3.survivors():
            e = entry.embedding
            ref = realization_reference.realize_embedding(e, REALIZE_ATTEMPTS, REALIZE_SEED,
                                                          REALIZE_ATTEMPTS)
            with monkeypatch.context() as mp:
                mp.setattr(realization, "_solve_equal_lengths", recording)
                got = realize_embedding(e, attempts=REALIZE_ATTEMPTS, seed=REALIZE_SEED,
                                        max_samples=REALIZE_ATTEMPTS)
            assert repr(got) == repr(ref)
        assert sizes == [REALIZE_ATTEMPTS] * len(catalog3.survivors())

    def test_zero_samples_solves_nothing(self, catalog3, monkeypatch):
        # max_samples = 0 leaves the first block empty and skips the second
        solved = []
        solve = realization._solve_equal_lengths
        monkeypatch.setattr(realization, "_solve_equal_lengths", lambda *args: solved.append(args) or solve(*args))
        e = catalog3.by_name("ECG2-2").embedding
        assert realize_embedding(e, attempts=60, seed=2026, max_samples=0) == []
        assert not solved

    @pytest.mark.parametrize("name", ["ECG2-2", min(n for n, (c, _) in PUBLISHED.items() if c == NOT_REALIZABLE)])
    def test_solves_starts_until_last_sample(self, catalog3, catalog4, monkeypatch, name):
        # the ECG2-2 probe holds its 8 samples before its last start; a
        # name that realizes nothing solves every start
        solved = []
        solve = realization._solve_equal_lengths

        def counting(*args):
            solved.append(len(args[-1]))
            return solve(*args)

        monkeypatch.setattr(realization, "_solve_equal_lengths", counting)
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

        monkeypatch.setattr(realization, "embedding_from_packing", embedding_from_packing)
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
    q = realization._edge_vectors(u, Aq, cq)
    u[:, -1] = np.median(np.hypot(q[..., 0], q[..., 1]), axis=1) if P else 1.0
    return A, c, (Aq, cq) if P else None, u


def _stacked(A, c, hinge, active, B):
    """The solver's one system for B starts: the edge rows A, then the hinge
    rows if any; offsets c (E, 2) shared or (B, E, 2) per start, and each
    hinge's cq shared; the signs (B, m): +1 on the edges of the (B, E) 0/1
    mask active, or on all of them, 0 on the other edges, and -1 on every
    hinge."""
    Aq, cq = hinge if hinge is not None else (np.zeros((0,) + A.shape[1:]), np.zeros((0, 2)))
    offsets = np.concatenate([np.broadcast_to(c, (B,) + c.shape[-2:]), np.broadcast_to(cq, (B,) + cq.shape)], 1)
    active = np.ones((B, len(A))) if active is None else active
    return np.concatenate([A, Aq]), offsets, np.concatenate([active, -np.ones((B, len(Aq)))], 1)


def _terms(u, A, c, hinge=None, active=None):
    """The solver's residuals (B, m) and Jacobian (B, m, k) at the starts u."""
    rows, offsets, sign = _stacked(A, c, hinge, active, len(u))
    r, w, s = realization._equal_length_terms(u, rows, offsets, sign)
    return r, realization._jacobian(w, s, rows)


def _magnitudes(u, A, c, hinge):
    """For each entry of r (B, m) and J (B, m, k), the sum of the magnitudes
    of the terms its formula adds up: its rounding error is a small
    multiple of machine epsilon times this."""
    rows, offsets, _ = _stacked(
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
    rows, offsets, sign = _stacked(A, c, hinge, active, len(u0))
    return realization._solve_equal_lengths(rows, offsets[sel], sign[sel], u0[sel])


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
        JTJ, JTr = realization._normal_equations(J, r)
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
            q = realization._edge_vectors(u, *hinge)
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
        u = realization._solve_equal_lengths(*_stacked(A, c, None, None, len(u0)), u0)
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
