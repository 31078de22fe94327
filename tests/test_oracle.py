import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruspack import oracle
from toruspack.closed_form import optimal_radius
from toruspack.lattice import ModuliPoint
from toruspack.oracle import (
    compare_with_closed_form,
    maximize_min_distance,
    realize_embedding,
)
from toruspack.packing import Packing, extract_graph

SQRT3 = math.sqrt(3.0)

RESTARTS = 60  # plenty for these smoke cases; acceptance uses 200


class TestMaxMin:
    def test_single_circle(self):
        res = maximize_min_distance(1, ModuliPoint(0.3, 2.0), restarts=5, seed=1)
        assert res.best_radius == pytest.approx(0.5, abs=1e-12)

    def test_two_on_square(self):
        res = maximize_min_distance(2, ModuliPoint(0, 1), restarts=RESTARTS, seed=1)
        assert res.best_radius == pytest.approx(math.sqrt(2) / 4, abs=1e-6)

    def test_three_on_triangular(self):
        res = maximize_min_distance(3, ModuliPoint(0.5, SQRT3 / 2), restarts=RESTARTS, seed=1)
        assert res.best_radius == pytest.approx(1 / math.sqrt(12), abs=1e-6)

    def test_deterministic(self):
        a = maximize_min_distance(3, ModuliPoint(0.1, 1.4), restarts=20, seed=9)
        b = maximize_min_distance(3, ModuliPoint(0.1, 1.4), restarts=20, seed=9)
        assert a.best_radius == b.best_radius
        assert all(
            (p.u, p.w) == (q.u, q.w) for p, q in zip(a.best_centers, b.best_centers)
        )

    def test_threaded_matches_serial(self, monkeypatch):
        m = ModuliPoint(0.2, 1.5)
        serial = maximize_min_distance(3, m, restarts=24, seed=4)
        monkeypatch.setenv("TORUSPACK_THREADS", "4")
        threaded = maximize_min_distance(3, m, restarts=24, seed=4)
        assert serial.best_radius == threaded.best_radius
        assert serial.best_centers == threaded.best_centers
        assert serial.converged_fraction == threaded.converged_fraction

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
        res = maximize_min_distance(4, m, restarts=200, seed=101)
        assert abs(res.best_radius - optimal_radius(4, m)) <= 1e-9

    def test_free_region_caps_at_half(self):
        res = maximize_min_distance(3, ModuliPoint(0, 3), restarts=RESTARTS, seed=2)
        assert res.best_radius == pytest.approx(0.5, abs=1e-6)
        p = Packing(
            m=ModuliPoint(0, 3), centers=res.best_centers, radius=res.best_radius
        )
        g = extract_graph(p, tol=1e-5)
        assert g.loop_count() >= 1


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
        A, c, tangents = oracle._realization_system(e)
        Aq, cq, joined = oracle._tangent_pairs(A, c, tangents)
        rng = np.random.default_rng(5)
        u0 = np.column_stack([rng.uniform(-1, 2, (200, 4)), rng.uniform(-0.9, 0.9, 200),
                              rng.uniform(0.5, 3.6, 200), rng.uniform(0.4, 1.05, 200)])
        near = []
        for p in np.flatnonzero(~joined):
            held = (np.concatenate([A, Aq[p : p + 1] / (1 + 1e-6)]),
                    np.concatenate([c, cq[p : p + 1] / (1 + 1e-6)]))
            u, cost = oracle._solve_equal_lengths(*held, u0)
            near += [x for x, f in zip(u, cost) if f <= oracle.SOLVED_COST]
        assert near
        assert not any(oracle._validate_solution(e, x, 0.0) for x in near)
        monkeypatch.setattr(oracle, "REALIZATION_CLEARANCE", 1e-7)
        assert any(oracle._validate_solution(e, x, 0.0) for x in near)


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


class TestEqualLengthSolver:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), E=st.integers(1, 12),
           k=st.integers(2, 9), P=st.integers(0, 10))
    def test_jacobian_matches_central_differences(self, seed, E, k, P):
        A, c, hinge, u = _random_system(np.random.default_rng(seed), E, k, P)
        r, J = oracle._equal_length_terms(u, A, c, hinge)
        h = 1e-6
        fd = np.empty_like(J)
        for i in range(k):
            step = np.zeros(k)
            step[i] = h
            fd[..., i] = (oracle._equal_length_terms(u + step, A, c, hinge)[0]
                          - oracle._equal_length_terms(u - step, A, c, hinge)[0]) / (2 * h)
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
        u, cost = oracle._solve_equal_lengths(A, c, u0)
        for b in range(len(u0)):
            ref = least_squares(
                lambda v: oracle._equal_length_terms(v[None], A, c, None)[0][0], u0[b],
                method="lm" if overdetermined else "trf",
                xtol=1e-15, ftol=1e-15, gtol=1e-15,
            )
            assert ref.cost < 1e-20
            assert cost[b] <= oracle.SOLVED_COST
            if overdetermined:  # the zero-residual point is locally unique
                np.testing.assert_allclose(u[b], ref.x, atol=1e-8)

    def test_import_leaves_scipy_out(self):
        code = "import sys, toruspack, toruspack.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "False"
