import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from toruspack.errors import DegenerateLattice, OutOfModuliStrip
from toruspack.lattice import (
    _STRIP_EPS,
    LatticeBasis,
    ModuliPoint,
    TorusPoint,
    fundamental_domain_area,
    reduce_to_standard_basis,
    torus_distance,
    wrapped_translates,
)

SQRT3 = math.sqrt(3.0)


def brute_min_distance(p, q, m, window=6):
    """Independent oracle: plain minimum over a wide translate window."""
    pc = p.canonical(m).coords()
    qc = q.canonical(m).coords()
    best = math.inf
    for a in range(-window, window + 1):
        for b in range(-window, window + 1):
            v = qc + a * np.array([1.0, 0.0]) + b * np.array([m.x, m.y]) - pc
            best = min(best, float(np.hypot(*v)))
    return best


class TestModuliPoint:
    def test_checked_when_built(self):
        # the strip is an invariant: outside it the 9-translate window of
        # wrapped_translates can miss the nearest translate (at (3.0, 0.1)
        # it reports 0.48452 for [0.5, 0.34], where 0.48120 is nearest)
        outside = ((3.0, 0.1), (0.3, 0.4), (0.7, 2.0), (-0.1, 1.5), (0.2, 0.0), (0.2, -1.5),
                   (-1e-10, 1.0), (0.5 + 1e-10, 1.0),  # no slack past a wall
                   # nor below the arc past float noise: at the second, the
                   # n = 4 layout would overlap by 9.99999972e-10, no margin
                   # left under DEFAULT_TOL
                   (0.0, 1.0 - 1e-10), (0.5, 0.8660254032070884))
        for x, y in outside:
            with pytest.raises(OutOfModuliStrip):
                ModuliPoint(x, y)
        # its closed edges, the bottom arc up to float noise
        for x, y in ((0.0, 1.0), (0.5, SQRT3 / 2), (0.0, 1.0 - 1e-13), (0.5, 1.0)):
            m = ModuliPoint(x, y)
            assert (m.x, m.y) == (x, y)

    def test_standard_basis_outside_strip_is_reduced(self):
        m, rec = reduce_to_standard_basis(LatticeBasis((1.0, 0.0), (3.0, 0.1)))
        assert (m.x, m.y) == pytest.approx((0.0, 10.0), abs=1e-9)
        assert rec.scale == pytest.approx(10.0)

    def test_standard_basis_past_a_wall_is_reflected(self):
        m, rec = reduce_to_standard_basis(LatticeBasis((1.0, 0.0), (-1e-10, 1.0)))
        assert (m.x, m.y) == (1e-10, 1.0)
        assert rec.reflected


class TestReduce:
    def test_square_times_two(self):
        m, rec = reduce_to_standard_basis(LatticeBasis((2, 0), (0, 2)))
        assert (m.x, m.y) == pytest.approx((0.0, 1.0), abs=1e-12)
        assert rec.scale == pytest.approx(0.5)

    def test_shear_then_reflect(self):
        m, rec = reduce_to_standard_basis(LatticeBasis((1, 0), (0.7, 1.0)))
        assert (m.x, m.y) == pytest.approx((0.3, 1.0), abs=1e-12)
        assert rec.reflected

    def test_triangular_identity(self):
        m, rec = reduce_to_standard_basis(LatticeBasis((1, 0), (0.5, SQRT3 / 2)))
        assert (m.x, m.y) == pytest.approx((0.5, SQRT3 / 2), abs=1e-12)
        assert rec.unimodular == ((1, 0), (0, 1))
        assert not rec.reflected

    def test_degenerate(self):
        with pytest.raises(DegenerateLattice):
            reduce_to_standard_basis(LatticeBasis((1, 1), (2, 2)))

    # the last basis has a shortest vector of length 1e-310: its scale,
    # 1e310, is no float
    @pytest.mark.parametrize("v1, v2", [((math.nan, 0), (0, 1)), ((1, 0), (math.nan, 1)),
                                        ((1, 0), (0, math.inf)), ((-math.inf, 0), (0, 1)),
                                        ((1e-310, 0.0), (0.0, 1e-310))])
    def test_non_finite_is_degenerate(self, v1, v2):
        with pytest.raises(DegenerateLattice, match="not finite"):
            reduce_to_standard_basis(LatticeBasis(v1, v2))

    def test_composition_contract(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            V = rng.normal(size=(2, 2)) * rng.uniform(0.2, 5)
            if abs(np.linalg.det(V)) < 1e-3:
                continue
            m, rec = reduce_to_standard_basis(LatticeBasis(tuple(V[0]), tuple(V[1])))
            U = np.array(rec.unimodular, float)
            S = np.array(rec.similarity)
            std = (U @ V) @ S.T
            assert np.allclose(std, [[1, 0], [m.x, m.y]], atol=1e-9)
            assert round(abs(np.linalg.det(np.array(rec.unimodular)))) == 1

    def test_idempotent_on_standard(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            x = rng.uniform(0, 0.5)
            y = rng.uniform(math.sqrt(max(1 - x * x, 0)) + 1e-9, 3.0)
            m0 = ModuliPoint(x, y)
            m, rec = reduce_to_standard_basis(LatticeBasis((1, 0), (x, y)))
            assert m.x == pytest.approx(m0.x, abs=1e-12)
            assert m.y == pytest.approx(m0.y, abs=1e-12)
            assert rec.scale == pytest.approx(1.0, abs=1e-12)

    def test_strip_constraints_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            V = rng.normal(size=(2, 2)) * rng.uniform(0.2, 4)
            if abs(np.linalg.det(V)) < 1e-3:
                continue
            m, _ = reduce_to_standard_basis(LatticeBasis(tuple(V[0]), tuple(V[1])))
            assert m.x * m.x + m.y * m.y >= 1 - 1e-9
            assert m.y > 0
            assert -1e-12 <= m.x <= 0.5 + 1e-12

    def test_boundary_folds_kept(self):
        # x exactly 0 and exactly 1/2 survive reduction untouched
        for x in (0.0, 0.5):
            m, _ = reduce_to_standard_basis(LatticeBasis((1, 0), (x, 1.3)))
            assert m.x == pytest.approx(x, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 0.5)),
        shears=st.lists(st.tuples(st.booleans(), st.integers(-3, 3)), min_size=1, max_size=4),
        swap=st.booleans(),
        turn=st.floats(0.0, 2 * math.pi),
        reflect=st.booleans(),
        decades=st.floats(-2.0, 2.0),
    )
    def test_arc_points_land_within_the_slack(self, x, shears, swap, turn, reflect, decades):
        # _STRIP_EPS is float noise: any basis of a torus on the bottom arc
        # (a unimodular change, a rotation, a reflection and a scale of [1, 0],
        # [x, y]) reduces to a point below the arc by far less than the slack
        y = SQRT3 / 2 if x == 0.5 else math.sqrt(1.0 - x * x)
        A = np.eye(2, dtype=np.int64)
        for upper, k in shears:
            A = np.array([[1, k], [0, 1]] if upper else [[1, 0], [k, 1]]) @ A
        if swap:
            A = A[::-1]
        Q = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
        if reflect:
            Q = Q @ np.diag([1.0, -1.0])
        B = 10.0**decades * (A @ np.array([[1.0, 0.0], [x, y]])) @ Q.T
        m, _ = reduce_to_standard_basis(LatticeBasis(tuple(B[0]), tuple(B[1])))
        assert 1.0 - (m.x * m.x + m.y * m.y) <= _STRIP_EPS / 10


# basis coordinates: 0 or of magnitude in [2^-10, 2^10], so that times 2^k
# for |k| <= 1000 they stay normal floats
_COORD = st.builds(math.copysign, st.one_of(st.just(0.0), st.floats(2.0**-10, 2.0**10)),
                   st.sampled_from([1.0, -1.0]))


class TestReduceScale:
    @settings(max_examples=200, deadline=None)
    @given(coords=st.lists(_COORD, min_size=4, max_size=4), k=st.integers(-1000, 1000))
    @example(coords=[1.0, 0.0, 0.3, 1.1], k=-1000)
    @example(coords=[0.7, -0.2, 0.4, 1.3], k=1000)
    def test_reduction_does_not_depend_on_scale(self, coords, k):
        # the basis times 2^k reduces to the same strip point, unimodular
        # change and orientation, with its scale exactly divided by 2^k
        v1, v2 = tuple(coords[:2]), tuple(coords[2:])
        try:
            m0, rec0 = reduce_to_standard_basis(LatticeBasis(v1, v2))
        except DegenerateLattice:
            assume(False)
        assume(rec0.scale < 2.0**20)  # the shortest vector times 2^-1000 stays normal
        m, rec = reduce_to_standard_basis(LatticeBasis(
            tuple(math.ldexp(a, k) for a in v1), tuple(math.ldexp(a, k) for a in v2)
        ))
        assert repr((m, rec.unimodular, rec.reflected)) == repr((m0, rec0.unimodular, rec0.reflected))
        assert rec.scale == math.ldexp(rec0.scale, -k)


class TestDistance:
    def test_lift_of_same_point(self):
        m = ModuliPoint(0, 1)
        assert torus_distance(TorusPoint(0, 0), TorusPoint(1, 0), m) == pytest.approx(0, abs=1e-12)

    def test_diagonal(self):
        m = ModuliPoint(0, 1)
        d = torus_distance(TorusPoint(0, 0), TorusPoint(0.5, 0.5), m)
        assert d == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_wraparound(self):
        m = ModuliPoint(0, 1)
        assert torus_distance(TorusPoint(0, 0), TorusPoint(0.9, 0), m) == pytest.approx(0.1, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(120):
            x = rng.uniform(0, 0.5)
            y = rng.uniform(1.0, 3.0)
            m = ModuliPoint(x, y)
            p = TorusPoint(*rng.uniform(-2, 2, 2))
            q = TorusPoint(*rng.uniform(-2, 2, 2))
            assert torus_distance(p, q, m) == pytest.approx(brute_min_distance(p, q, m), abs=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(13)
        m = ModuliPoint(0.3, 1.4)
        pts = [TorusPoint(*rng.uniform(0, 1, 2)) for _ in range(8)]
        for a in pts:
            for b in pts:
                dab = torus_distance(a, b, m)
                assert dab == pytest.approx(torus_distance(b, a, m), abs=1e-12)
                for c in pts:
                    assert dab <= torus_distance(a, c, m) + torus_distance(c, b, m) + 1e-12

    def test_lift_invariance(self):
        rng = np.random.default_rng(17)
        m = ModuliPoint(0.2, 1.7)
        for _ in range(100):
            p = TorusPoint(*rng.uniform(0, 1, 2))
            q = TorusPoint(*rng.uniform(0, 1, 2))
            a, b = rng.integers(-3, 4, 2)
            q2 = TorusPoint(q.u + a + b * m.x, q.w + b * m.y)
            assert torus_distance(p, q, m) == pytest.approx(
                torus_distance(p, q2, m), abs=1e-12
            )


def _strip_points():
    x = st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 0.5))
    rise = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 50.0))
    return st.tuples(x, rise).map(
        lambda p: ModuliPoint(p[0], min(math.sqrt(1.0 - p[0] ** 2) + p[1], 50.0))
    )


_coords = st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 1.0, exclude_max=True))
_cells = st.integers(-5, 5)


def _brute_translates(frac, m, window=6):
    """Lengths of the translates |a|, |b| <= window of frac's canonical
    representative, labelled by their integer shift from frac."""
    r = np.arange(-window, window + 1.0)
    a, b = (g.ravel() for g in np.meshgrid(r, r, indexing="ij"))
    a, b = a - np.floor(frac[0]), b - np.floor(frac[1])
    t1, t2 = frac[0] + a, frac[1] + b
    d = np.sqrt((t1 + m.x * t2) ** 2 + (m.y * t2) ** 2)
    return {(int(i), int(j)): float(e) for i, j, e in zip(a, b, d)}


class TestWrappedTranslates:
    @settings(max_examples=400, deadline=None)
    @given(_strip_points(), _coords, _coords, _coords, _coords, _cells, _cells)
    def test_matches_wide_window(self, m, p1, p2, q1, q2, k1, k2):
        frac = np.array([q1 - p1 + k1, q2 - p2 + k2])
        s, v = wrapped_translates(frac, m)
        got = {(int(a), int(b)): float(e) for a, b, e in zip(*s, np.sqrt(v[0] ** 2 + v[1] ** 2))}
        brute = _brute_translates(frac, m)
        assert got.items() <= brute.items()
        best = min(brute.values())
        assert min(got.values()) == best
        for reach in (best + 1e-12, 1.0):  # ties; tangencies and overlaps
            assert {t for t, e in got.items() if e <= reach} == {
                t for t, e in brute.items() if e <= reach
            }
        # the strip bound |t1 v1 + t2 v2| >= (sqrt(3)/2) max(|t1|, |t2|)
        assert all(e >= 3 * SQRT3 / 4 - 1e-12 for t, e in brute.items() if t not in got)

    def test_batched_shapes(self):
        rng = np.random.default_rng(21)
        m = ModuliPoint(0.3, 1.4)
        frac = rng.uniform(-4, 4, (5, 3, 2))
        s, v = wrapped_translates(frac, m)
        assert s.shape == v.shape == (2, 5, 3, 9)
        one_s, one_v = wrapped_translates(frac[2, 1], m)
        assert np.array_equal(s[:, 2, 1], one_s) and np.array_equal(v[:, 2, 1], one_v)


def test_fundamental_domain_area():
    assert fundamental_domain_area(ModuliPoint(0, 1)) == 1
    assert fundamental_domain_area(ModuliPoint(0.5, SQRT3 / 2)) == pytest.approx(SQRT3 / 2)
    assert fundamental_domain_area(ModuliPoint(0.3, 2.0)) == 2.0
