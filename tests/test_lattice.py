import math
from fractions import Fraction

import numpy as np
import pytest
import reduction_reference
from hypothesis import assume, example, given, settings, strategies as st

from toruspack import lattice
from toruspack.errors import DegenerateLattice, OutOfModuliStrip
from toruspack.lattice import (
    _STRIP_EPS,
    LOOP_SHIFTS,
    TOL_CEIL,
    LatticeBasis,
    ModuliPoint,
    TorusPoint,
    _fma,
    corner_translates,
    fundamental_domain_area,
    reduce_to_standard_basis,
    torus_distance,
)
from toruspack.oracle import _corner_arrays

SQRT3 = math.sqrt(3.0)


def brute_min_distance(p, q, m, window=6):
    """Independent oracle: plain minimum over a wide translate window."""
    pc = np.array(p.canonical(m))
    qc = np.array(q.canonical(m))
    best = math.inf
    for a in range(-window, window + 1):
        for b in range(-window, window + 1):
            v = qc + a * np.array([1.0, 0.0]) + b * np.array([m.x, m.y]) - pc
            best = min(best, float(np.hypot(*v)))
    return best


# a unimodular change (shears, then a swap), a rotation and a reflection
_DISGUISES = st.tuples(
    st.lists(st.tuples(st.booleans(), st.integers(-3, 3)), min_size=1, max_size=4),
    st.booleans(),
    st.floats(0.0, 2 * math.pi),
    st.booleans(),
)


def _disguised(x, y, shears, swap, turn, reflect, decades):
    """A basis of the torus (x, y) under the disguise, times 10^decades."""
    A = np.eye(2, dtype=np.int64)
    for upper, k in shears:
        A = np.array([[1, k], [0, 1]] if upper else [[1, 0], [k, 1]]) @ A
    if swap:
        A = A[::-1]
    Q = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
    if reflect:
        Q = Q @ np.diag([1.0, -1.0])
    B = 10.0**decades * (A @ np.array([[1.0, 0.0], [x, y]])) @ Q.T
    return LatticeBasis(tuple(map(float, B[0])), tuple(map(float, B[1])))


class TestModuliPoint:
    def test_checked_when_built(self):
        # the strip is an invariant: outside it the cell corners of
        # corner_translates can miss the nearest translate (at (3.0, 0.1)
        # they report 0.52111 for the difference (0.5, 0.34), where 0.48120
        # is nearest)
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

    def test_infinite_height_is_outside(self):
        # an accepted (0, inf) gave optimal_centers(3, .) radius 0.5 with
        # every center at w = nan
        for x, y in ((0.0, math.inf), (0.5, math.inf), (0.2, math.nan), (math.nan, 1.5)):
            with pytest.raises(OutOfModuliStrip):
                ModuliPoint(x, y)

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

    # DEGENERATE_BASIS_TOL bounds sin(angle) |short| / |long|, which is 1e-11
    # for a torus 1 : 1e11 and for a basis 1e-11 from parallel, and 1e-13
    # for a torus 1 : 1e13
    @pytest.mark.parametrize("v2, y", [((0.3, 1e11), 1e11), ((1, 1e-11), 1e11)])
    def test_thin_and_near_parallel_bases_reduce(self, v2, y):
        m, _ = reduce_to_standard_basis(LatticeBasis((1, 0), v2))
        assert m.y == pytest.approx(y)

    def test_thinner_than_the_tolerance_is_degenerate(self):
        with pytest.raises(DegenerateLattice, match="thinner than"):
            reduce_to_standard_basis(LatticeBasis((1, 0), (0.3, 1e13)))

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
        disguise=_DISGUISES,
        decades=st.floats(-2.0, 2.0),
    )
    def test_arc_points_land_within_the_slack(self, x, disguise, decades):
        # _STRIP_EPS is float noise: any basis of a torus on the bottom arc
        # (a unimodular change, a rotation, a reflection and a scale of [1, 0],
        # [x, y]) reduces to a point below the arc by far less than the slack
        y = SQRT3 / 2 if x == 0.5 else math.sqrt(1.0 - x * x)
        m, _ = reduce_to_standard_basis(_disguised(x, y, *disguise, decades))
        assert 1.0 - (m.x * m.x + m.y * m.y) <= _STRIP_EPS / 10

    def test_already_standard_basis_is_the_one_scale_exception(self):
        # an already-standard basis reduces to itself; twice it is reduced,
        # which swaps the vectors and rounds x below the wall
        m, rec = reduce_to_standard_basis(LatticeBasis((1, 0), (0.5, 0.8660254037844386)))
        assert (m.x, m.y, rec.scale, rec.unimodular) == (0.5, 0.8660254037844386, 1.0, ((1, 0), (0, 1)))
        m, rec = reduce_to_standard_basis(LatticeBasis((2, 0), (1.0, 1.7320508075688772)))
        assert (m.x, m.y, rec.scale, rec.unimodular) == (0.4999999999999999, 0.8660254037844386, 0.5,
                                                         ((0, -1), (1, -1)))


# basis coordinates: 0 or of magnitude in [2^-10, 2^10], so that times 2^k
# for |k| <= 1000 they stay normal floats
_COORD = st.builds(math.copysign, st.one_of(st.just(0.0), st.floats(2.0**-10, 2.0**10)),
                   st.sampled_from([1.0, -1.0]))


class TestReduceScale:
    @settings(max_examples=200, deadline=None)
    @given(coords=st.lists(_COORD, min_size=4, max_size=4), k=st.integers(-1000, 1000))
    @example(coords=[1.0, 0.0, 0.3, 1.1], k=-1000)
    @example(coords=[0.7, -0.2, 0.4, 1.3], k=1000)
    @example(coords=[1.0, 0.0, -0.0, 1.0], k=1)  # already standard at x = -0.0, reduced at 2x
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



def _reduction(reduce, basis):
    """repr of reduce(basis), which tells -0.0 from 0.0, or its
    DegenerateLattice message."""
    try:
        return repr(reduce(basis))
    except DegenerateLattice as exc:
        return f"DegenerateLattice: {exc}"


# the thin tori either side of DEGENERATE_BASIS_TOL, disguised so that the
# already-standard shortcut does not take them
_THIN_BASES = [((0.3, 1e11), (1, 0)), ((1, 1e-11), (1, 0)), ((3, 0), (0.9, 3e11)),
               ((0.5, 1e-11), (-2, 0.25)), ((0.3, 1e13), (1, 0))]


def _exact_reduction(basis):
    """Lagrange-Gauss reduction on Fractions of the basis's floats, with
    reduce_to_standard_basis's conventions: the exact strip point (x, y),
    the unimodular change, whether the plane map reflects, and the squared
    length of the shortest lattice vector."""
    u = [tuple(map(Fraction, v)) for v in basis]
    U = [(1, 0), (0, 1)]

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1]

    if dot(u[0], u[0]) > dot(u[1], u[1]):
        u.reverse()
        U.reverse()
    while True:
        q = round(dot(u[1], u[0]) / dot(u[0], u[0]))
        u[1] = (u[1][0] - q * u[0][0], u[1][1] - q * u[0][1])
        U[1] = (U[1][0] - q * U[0][0], U[1][1] - q * U[0][1])
        if dot(u[1], u[1]) < dot(u[0], u[0]):
            u.reverse()
            U.reverse()
        else:
            break
    short = dot(u[0], u[0])
    x, y = dot(u[0], u[1]) / short, (u[0][0] * u[1][1] - u[0][1] * u[1][0]) / short
    reflected = y < 0
    if x < 0:
        x, U[0], reflected = -x, (-U[0][0], -U[0][1]), not reflected
    return x, abs(y), tuple(U), reflected, short


# The float reduction's error bound, in units of kappa 2^-52, kappa =
# (longest input vector / shortest lattice vector)^2: the Gauss steps
# subtract multiples of vectors up to that long, each rounded relative to
# its length.  Over 20 000 disguised bases (up to four shears, scale
# 10^+-3, y up to 1e3) the largest error was 1.43 kappa 2^-52, on y.
_REDUCTION_ULPS = 4


class TestReduceMatchesExact:
    """The float reduction against exact Gauss reduction of the same input
    floats, on every host (TestReduceMatchesReference runs only where numpy
    fuses a multiply-add): the strip point within _REDUCTION_ULPS, and the
    same unimodular change up to sign and the same reflection wherever the
    exact point is farther than that from a frame tie (x = 0, x = 1/2 or the
    arc), where another frame is as good."""

    def _check(self, basis):
        try:
            m, rec = reduce_to_standard_basis(basis)
        except DegenerateLattice:
            assume(False)
        x, y, U, reflected, short = _exact_reduction(basis)
        kappa = max(Fraction(a) ** 2 + Fraction(b) ** 2 for a, b in basis) / short
        bound = _REDUCTION_ULPS * kappa * Fraction(2) ** -52
        assert abs(Fraction(m.x) - x) <= bound and abs(Fraction(m.y) - y) <= bound
        if min(x, Fraction(1, 2) - x, abs(x * x + y * y - 1)) > 2 * bound:
            assert rec.unimodular in (U, tuple(tuple(-a for a in row) for row in U))
            assert rec.reflected == reflected

    @settings(max_examples=400, deadline=None)
    @given(
        x=st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 0.5)),
        rise=st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(0.0, 1e3)),
        disguise=_DISGUISES,
        decades=st.floats(-3.0, 3.0),
    )
    def test_disguised_strip_points(self, x, rise, disguise, decades):
        y = (SQRT3 / 2 if x == 0.5 else math.sqrt(1.0 - x * x)) + rise
        self._check(_disguised(x, y, *disguise, decades))

    @settings(max_examples=400, deadline=None)
    @given(coords=st.lists(_COORD, min_size=4, max_size=4), k=st.integers(-30, 30))
    @example(coords=[1.0, 0.0, -0.0, 1.0], k=0)
    @example(coords=[1.0, 0.0, 0.5, 0.8660254037844386], k=3)
    def test_any_basis(self, coords, k):
        self._check(LatticeBasis(*(tuple(math.ldexp(a, k) for a in v) for v in (coords[:2], coords[2:]))))


@pytest.mark.skipif(not reduction_reference.numpy_fuses(),
                    reason="numpy's 2-vector products do not fuse a multiply-add on this build, "
                           "so the numpy reference rounds differently from the goldens")
class TestReduceMatchesReference:
    """The float reduction against the numpy one it replaced
    (reduction_reference.py): the same strip point and transform record,
    bit for bit, or the same DegenerateLattice.  The goldens
    (test_solve_outputs_match_golden) hold the float reduction to the same
    bits on every machine."""

    @settings(max_examples=400, deadline=None)
    @given(
        x=st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 0.5)),
        rise=st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(0.0, 1e3), st.floats(0.0, 1e13)),
        disguise=_DISGUISES,
        decades=st.floats(-3.0, 3.0),
    )
    # a turn of 1e-308 puts subnormal products into the reduction
    @example(x=0.0, rise=0.0, disguise=([(False, 0)], False, 1.1125369292536007e-308, True), decades=1.5)
    def test_disguised_strip_points(self, x, rise, disguise, decades):
        y = (SQRT3 / 2 if x == 0.5 else math.sqrt(1.0 - x * x)) + rise
        basis = _disguised(x, y, *disguise, decades)
        assert _reduction(reduce_to_standard_basis, basis) == _reduction(
            reduction_reference.reduce_to_standard_basis, basis)

    @settings(max_examples=400, deadline=None)
    @given(coords=st.lists(_COORD, min_size=4, max_size=4), k=st.integers(-30, 30))
    @example(coords=[1.0, 0.0, 1.0, 0.0], k=0)  # parallel
    @example(coords=[0.0, 0.0, 0.0, 0.0], k=0)
    def test_any_basis(self, coords, k):
        # zeros of either sign, degenerate and non-standard bases
        basis = LatticeBasis(*(tuple(math.ldexp(a, k) for a in v) for v in (coords[:2], coords[2:])))
        assert _reduction(reduce_to_standard_basis, basis) == _reduction(
            reduction_reference.reduce_to_standard_basis, basis)

    @pytest.mark.parametrize("v1, v2", _THIN_BASES + [
        ((math.nan, 0), (0, 1)), ((1, 0), (0, math.inf)), ((1e-310, 0.0), (0.0, 1e-310)),
        ((1e308, 0.0), (0.0, 1.5e308)), ((1.5e308, 1.5e308), (-1.5e308, 1.5e308))])
    def test_thin_huge_and_non_finite_bases(self, v1, v2):
        basis = LatticeBasis(v1, v2)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _reduction(reduction_reference.reduce_to_standard_basis, basis)
        assert _reduction(reduce_to_standard_basis, basis) == want

    def test_golden_cases(self):
        from test_reporting import _golden_cases

        for _, _, (v1, v2) in _golden_cases():
            basis = LatticeBasis(v1, v2)
            assert _reduction(reduce_to_standard_basis, basis) == _reduction(
                reduction_reference.reduce_to_standard_basis, basis)


def _exact_fma(a, b, c):
    """a * b + c rounded once, a zero as +0.0."""
    return float(Fraction(a) * Fraction(b) + Fraction(c)) + 0.0


# magnitudes the reduction's products take (a unit disk basis, a shortest
# vector down to 1e-13 long and its inverse), and every float whose
# products and sums stay finite
_REDUCTION_RANGE = st.builds(math.copysign, st.floats(2.0**-60, 2.0**60), st.sampled_from([1.0, -1.0]))
_FACTOR = st.one_of(_REDUCTION_RANGE, st.floats(-(2.0**511), 2.0**511))


class TestFma:
    @settings(max_examples=500, deadline=None)
    @given(a=_FACTOR, b=_FACTOR, c=st.one_of(_REDUCTION_RANGE, st.floats(-(2.0**1022), 2.0**1022)))
    @example(a=1.0 + 2.0**-52, b=1.0 - 2.0**-53, c=-1.0)  # the product's low bits alone
    @example(a=3.0 * 2.0**-520, b=5.0 * 2.0**-520, c=2.0**-1074)  # below the normal floats
    @example(a=-0.0, b=1.0, c=-0.0)  # a zero comes out +0.0
    @example(a=1.011928851253881, b=1.0994220867159345e-308, c=-1.1125369292536007e-308)  # even from below
    def test_rounds_once(self, a, b, c):
        assert repr(_fma(a, b, c)) == repr(_exact_fma(a, b, c))

    @pytest.mark.parametrize("v1, v2", _THIN_BASES[:4])
    def test_rounds_once_on_thin_tori(self, monkeypatch, v1, v2):
        calls = []

        def recording(a, b, c):
            calls.append((a, b, c))
            return _fma(a, b, c)

        monkeypatch.setattr(lattice, "_fma", recording)
        reduce_to_standard_basis(LatticeBasis(v1, v2))
        assert len(calls) > 8  # the whole reduction ran
        assert [repr(_fma(*call)) for call in calls] == [repr(_exact_fma(*call)) for call in calls]

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


def _brute_translates(frac, m, window=6):
    """Lengths of the translates |a|, |b| <= window of frac's canonical
    representative, labelled by their integer shift from frac."""
    r = np.arange(-window, window + 1.0)
    a, b = (g.ravel() for g in np.meshgrid(r, r, indexing="ij"))
    a, b = a - np.floor(frac[0]), b - np.floor(frac[1])
    t1, t2 = frac[0] + a, frac[1] + b
    d = np.sqrt((t1 + m.x * t2) ** 2 + (m.y * t2) ** 2)
    return {(int(i), int(j)): float(e) for i, j, e in zip(a, b, d)}


_SQRT7 = math.sqrt(7.0)

# thin, rectangular, hexagonal and random tori
_WINDOW_TORI = st.one_of(
    _strip_points(),
    st.builds(ModuliPoint, st.floats(0.0, 0.5), st.floats(50.0, 1e6)),
    st.builds(ModuliPoint, st.just(0.0), st.floats(1.0, 50.0)),
    st.just(ModuliPoint(0.5, SQRT3 / 2)),
    st.just(ModuliPoint(0.5, _SQRT7 / 2)),
)
_DIFFERENCES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 1e-300, -1e-300]),
                         st.floats(-6.0, 6.0), st.floats(-1e12, 1e12))


class TestCornerWindow:
    @settings(max_examples=600, deadline=None)
    @given(_WINDOW_TORI, _DIFFERENCES, _DIFFERENCES)
    @example(ModuliPoint(0.0, 1.0), -0.0, 0.5)  # Python's round(-0.0) is 0, numpy's rint -0.0
    @example(ModuliPoint(0.0, 1.0), 0.5, 0.5)  # four ties
    @example(ModuliPoint(0.5, SQRT3 / 2), 1 / 3, 1 / 3)  # three ties
    @example(ModuliPoint(0.5, _SQRT7 / 2), 0.0, 0.5)  # claim 1's sharp case
    def test_holds_every_contact(self, m, t1, t2):
        """The cell corners against every translate of a wide window: the
        scalar and array evaluators agree bit for bit; the corners hold the
        nearest translate, its ties, and every translate a contact can be
        at tol <= TOL_CEIL; off the corners the squared length exceeds the
        nearest's by 1/2; and the loop shifts hold every loop shorter than
        sqrt(2) (lattice's module docstring)."""
        got = corner_translates(t1, t2, m)
        s, v = _corner_arrays(np.array([t1, t2]), m.x, m.y)
        assert [(a, b) for a, b, _, _ in got] == [(int(a), int(b)) for a, b in s.T]
        assert repr([(x, y) for _, _, x, y in got]) == repr([(float(x), float(y)) for x, y in v.T])
        for (_, _, x, y), length in zip(got, np.hypot(v[0], v[1])):  # math.hypot and np.hypot within 1 ulp
            assert abs(math.hypot(x, y) - length) <= math.ulp(length)
        corners = {(int(a), int(b)): float(e) for a, b, e in zip(*s, np.sqrt(v[0] ** 2 + v[1] ** 2))}
        brute = _brute_translates(np.array([t1, t2]), m)
        assert corners.items() <= brute.items()
        best = min(brute.values())
        assert min(corners.values()) == best
        assert {t for t, e in brute.items() if e <= best + 1e-12} <= corners.keys()
        reach = min(best + 2 * TOL_CEIL, 1 + 2 * TOL_CEIL)
        assert {t for t, e in brute.items() if e <= reach} <= corners.keys()
        # the bound itself, where rounding stays far below the 1/2
        assert all(e * e >= best * best + 0.5 - 1e-9 for t, e in brute.items() if t not in corners and e <= 4)
        vectors = {t: e for t, e in _brute_translates(np.zeros(2), m).items() if t != (0, 0)}
        assert {t for t, e in vectors.items() if e < math.sqrt(2) - 1e-12} <= (
            set(LOOP_SHIFTS) | {(-a, -b) for a, b in LOOP_SHIFTS})
        assert vectors[1, 0] == 1.0 and min(vectors.values()) >= 1.0 - 1e-15  # v1 is the shortest

    def test_batched_shapes(self):
        rng = np.random.default_rng(21)
        m = ModuliPoint(0.3, 1.4)
        frac = rng.uniform(-4, 4, (5, 3, 2))
        s, v = _corner_arrays(frac, m.x, m.y)
        assert s.shape == v.shape == (2, 5, 3, 4)
        one_s, one_v = _corner_arrays(frac[2, 1], m.x, m.y)
        assert np.array_equal(s[:, 2, 1], one_s) and np.array_equal(v[:, 2, 1], one_v)
        # a torus per row, from x and y (5, 1) broadcast against the rows
        # (5, 3): each row is corner_translates at its own torus, bit for bit
        tori = [ModuliPoint(0.0, 1.0), ModuliPoint(0.5, SQRT3 / 2), m, ModuliPoint(0.25, 2.5), ModuliPoint(0.5, 1.1)]
        x, y = np.array([(t.x, t.y) for t in tori]).T[:, :, None]
        s, v = _corner_arrays(frac, x, y)
        assert s.shape == v.shape == (2, 5, 3, 4)
        for row, col in np.ndindex(5, 3):
            got = corner_translates(*frac[row, col].tolist(), tori[row])
            assert [(a, b) for a, b, _, _ in got] == [(int(a), int(b)) for a, b in s[:, row, col].T]
            assert repr([(p, q) for _, _, p, q in got]) == repr([(float(p), float(q)) for p, q in v[:, row, col].T])


def test_fundamental_domain_area():
    assert fundamental_domain_area(ModuliPoint(0, 1)) == 1
    assert fundamental_domain_area(ModuliPoint(0.5, SQRT3 / 2)) == pytest.approx(SQRT3 / 2)
    assert fundamental_domain_area(ModuliPoint(0.3, 2.0)) == 2.0
