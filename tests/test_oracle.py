import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruspack import oracle
from toruspack.closed_form import optimal_radius
from toruspack.errors import UnsupportedN
from toruspack.lattice import ModuliPoint, TorusPoint
from toruspack.oracle import compare_with_closed_form, maximize_min_distances
from toruspack.packing import Packing, extract_graph
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

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_no_restart_is_refused(self, restarts):
        # caught at entry, for every n and even with no tori
        for n, tori in ((3, [ModuliPoint(0.1, 1.4)]), (1, [ModuliPoint(0.1, 1.4)]), (3, [])):
            with pytest.raises(ValueError, match="restarts must be at least 1"):
                maximize_min_distances(n, tori, restarts=restarts, seed=0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_point_is_refused(self, n):
        # a ValueError at entry, not an IndexError from the starts
        for tori in ([ModuliPoint(0.1, 1.4)], []):
            with pytest.raises(ValueError, match="n must be at least 1"):
                maximize_min_distances(n, tori, restarts=5, seed=0)

    @pytest.mark.parametrize("n", [1, 5])
    def test_comparison_reads_the_formulas_first(self, monkeypatch, n):
        # an n with no closed form raises before any ascent runs
        def ascent(*args):
            raise AssertionError("ascent ran")

        monkeypatch.setattr(oracle, "_ascent", ascent)
        with pytest.raises(UnsupportedN):
            compare_with_closed_form(n, ModuliPoint(0.1, 1.4), restarts=5, seed=0)

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


@pytest.mark.parametrize("x, y", [(0.0, 1.0), (0.5, SQRT3 / 2), (0.3, 1.7), (0.25, 1.3)])
def test_basis_rows_map_lattice_coords_to_the_plane(x, y):
    # the ascent and refine work in lattice coordinates and map back through
    # _bases; its convention must be lattice.TorusPoint.lattice_coords's
    m = ModuliPoint(x, y)
    B = oracle._bases(np.array([x]), np.array([y]))
    assert B.tolist() == [[1.0, 0.0], [x, y]]
    # one basis per torus of a block's (K, 1, 1) moduli
    assert oracle._bases(np.full((3, 1, 1), x), np.full((3, 1, 1), y)).tolist() == [[[[1.0, 0.0], [x, y]]]] * 3
    for p in (TorusPoint(0.2, 0.1), TorusPoint(-1.3, 2.4), TorusPoint(7.5, -3.25)):
        t = p.lattice_coords(m)
        np.testing.assert_allclose(np.array(t) @ B, np.array(p), rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.array(p) @ np.linalg.inv(B), np.array(t), rtol=0, atol=1e-12)


def _reference_ascent(T, m):
    """The soft-min ascent of one torus written plainly on the corner
    window of oracle._corner_arrays, every sum a left-to-right Python sum:
    the arithmetic the buffered, batched kernel keeps, in the same order, so
    its corners are _corner_arrays's bit for bit."""
    n = T.shape[1]
    I, J = np.triu_indices(n, k=1)
    binv = np.linalg.inv(oracle._bases(np.array([m.x]), np.array([m.y])))
    (beta, beta_cap), (step, decay) = oracle.ASCENT_BETA, oracle.ASCENT_STEP
    for it in range(oracle.ASCENT_ITERS):
        v = np.moveaxis(oracle._corner_arrays(T[:, J] - T[:, I], m.x, m.y)[1], -1, 0)  # 4 x (2, R, P)
        dist = [np.sqrt(c[0] ** 2 + c[1] ** 2 + oracle.DIST_FLOOR_SQ) for c in v]
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
        norm = np.sqrt((grad**2).sum(-1, keepdims=True)) + oracle.NORM_FLOOR
        T = (T + (step * grad / norm) @ binv) % 1.0
        if (it + 1) % (oracle.ASCENT_ITERS // 10) == 0:
            beta = min(beta * 2, beta_cap)
            step *= decay
    return T


def _tori(n, count, seed):
    rng = np.random.default_rng(seed)
    return [sample_interior(n, 1 + k % region_count(n), rng) for k in range(count)]


def _moduli(tori):
    """A block's x and y arrays (K, 1, 1), as maximize_min_distances builds them."""
    return np.array([(m.x, m.y) for m in tori]).T[:, :, None, None]


_POOL = {n: _tori(n, 4, 40 + n) for n in (2, 3, 4)}


@functools.cache
def _alone(n, k, seed):
    return maximize_min_distances(n, [_POOL[n][k]], restarts=10, seed=seed)[0]


class TestBatchedAscent:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_kernel_matches_reference(self, n):
        # the schedule steps every tenth of the ascent
        assert oracle.ASCENT_ITERS > 0 and oracle.ASCENT_ITERS % 10 == 0
        tori = _tori(n, 3, n)
        T0 = np.random.default_rng(n).random((12, n, 2))
        ends = oracle._ascent(T0, *_moduli(tori))
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

    # four tori of 10 candidates each (n = 4: 4 * 6 * 10 * 8 ascent bytes a
    # torus): one block, blocks of two, blocks of one
    @pytest.mark.parametrize("budget, sizes", [(None, [40]), (2 * 1920, [20, 20]), (1, [10] * 4)])
    def test_refine_is_one_solve_per_block(self, monkeypatch, budget, sizes):
        # one batched solve per block, on every candidate of every torus of
        # it, not one per torus or per round
        calls = []
        solve = oracle._solve_equal_lengths

        def counting(*args):
            calls.append(len(args[-1]))
            return solve(*args)

        monkeypatch.setattr(oracle, "_solve_equal_lengths", counting)
        if budget is not None:
            monkeypatch.setattr(oracle, "ASCENT_BLOCK_BYTES", budget)
        batched = maximize_min_distances(4, _POOL[4], restarts=10, seed=0)
        assert calls == sizes
        assert [repr(r) for r in batched] == [repr(_alone(4, k, 0)) for k in range(4)]

    def test_empty_table_and_single_circle(self):
        assert maximize_min_distances(3, [], restarts=5, seed=0) == []
        ones = maximize_min_distances(1, _POOL[2][:2], restarts=5, seed=0)
        assert [r.best_radius for r in ones] == [0.5, 0.5]
