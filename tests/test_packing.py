import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from test_lattice import _coords, _strip_points

from toruspack.closed_form import optimal_centers
from toruspack.errors import OverlapDetected
from toruspack.lattice import (
    DEFAULT_TOL,
    LOOP_SHIFTS,
    TOL_CEIL,
    Displacement,
    ModuliPoint,
    TorusPoint,
    corner_translates,
)
from toruspack.oracle import _corner_arrays
from toruspack.packing import (
    Packing,
    PackingGraph,
    angle_gaps,
    contacts,
    density,
    extract_graph,
    graph_from_dict,
    graph_to_dict,
    has_halfplane_vertex,
    max_radius_for_centers,
    packing_from_dict,
    packing_to_dict,
    to_json,
    TRIANGULAR_DENSITY,
    vertex_darts,
)
from toruspack.realization import REALIZATION_CLEARANCE
from toruspack.regions import boundary_curve, region_count, sample_boundary, sample_interior

SQRT3 = math.sqrt(3.0)

# The brute force and extract_graph compute each length by different float
# expressions, which can differ in the last bits (by 8e-17 on a unit length
# seen on one draw), so a length within that of 2r +- tol lands on
# different sides of the tolerance; draws with a length this close to it
# are left out.
TOLERANCE_TIE_MARGIN = 1e-12


def _brute_pair_lengths(m, centers, window=6):
    """Length of every translate |a|, |b| <= window from canonical center i
    to canonical center j, i <= j, keyed (i, j, a, b); t = 0 of a self pair
    is left out."""
    pts = [np.array(c.canonical(m)) for c in centers]
    out = {}
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            for a in range(-window, window + 1):
                for b in range(-window, window + 1):
                    if i == j and a == b == 0:
                        continue
                    v = pts[j] + np.array([a + b * m.x, b * m.y]) - pts[i]
                    out[(i, j, a, b)] = float(np.hypot(*v))
    return out


def optimal_packing(n, m):
    sol = optimal_centers(n, m)
    return Packing(m=m, centers=sol.centers, radius=sol.radius)


class TestExtract:
    def test_two_circle_square_four_edges(self):
        p = optimal_packing(2, ModuliPoint(0, 1))
        g = extract_graph(p)
        assert g.vertex_count == 2
        assert len(g.edges) == 4
        assert all(i == 0 and j == 1 for i, j, _ in g.edges)

    def test_single_selftangent_loop(self):
        p = Packing(m=ModuliPoint(0, 2), centers=(TorusPoint(0, 0),), radius=0.5)
        g = extract_graph(p)
        assert len(g.edges) == 1
        assert g.loop_count() == 1

    def test_nine_tangencies(self):
        p = optimal_packing(4, ModuliPoint(0.1, 1.0))
        assert len(extract_graph(p).edges) == 9

    def test_overlap_raises(self):
        p = Packing(
            m=ModuliPoint(0, 1),
            centers=(TorusPoint(0, 0), TorusPoint(0.2, 0)),
            radius=0.2,
        )
        with pytest.raises(OverlapDetected):
            extract_graph(p)

    def test_coincident_centers_overlap(self):
        # two distinct circles at one point, or 1e-13 apart, overlap; the
        # t = 0 translate is skipped on self pairs only
        for centers, r in (
            ((TorusPoint(0, 0), TorusPoint(0, 0)), 0.25),
            ((TorusPoint(0, 0), TorusPoint(1e-13, 0)), 0.5),
        ):
            p = Packing(m=ModuliPoint(0, 1), centers=centers, radius=r)
            with pytest.raises(OverlapDetected):
                extract_graph(p)
            with pytest.raises(OverlapDetected):
                p.validate()

    @pytest.mark.parametrize("radius", [math.nan, 0.0, -0.1, math.inf])
    def test_radius_not_positive_and_finite_is_refused(self, radius):
        # a record's radius, read by validate and by the graph readers
        record = packing_to_dict(optimal_packing(3, ModuliPoint(0.2, 1.5)))
        p = packing_from_dict({**record, "radius": radius})
        for read in (Packing.validate, extract_graph, contacts):
            with pytest.raises(ValueError, match="radius must be positive and finite"):
                read(p)

    @pytest.mark.parametrize("tol", [math.nan, -1e-9, -math.inf, 0.11, math.inf])
    def test_tolerance_outside_the_window_is_refused(self, tol):
        # two coincident circles (validate once passed them at a NaN tol) and
        # a valid n = 3 optimum (extract_graph once read an overlap at -1e-9)
        coincident = Packing(m=ModuliPoint(0, 1), centers=(TorusPoint(0, 0), TorusPoint(0, 0)), radius=0.25)
        for p in (coincident, optimal_packing(3, ModuliPoint(0.2, 1.5))):
            for read in (Packing.validate, extract_graph, contacts):
                with pytest.raises(ValueError, match="tangency tolerance"):
                    read(p, tol=tol)

    @pytest.mark.parametrize("tol", [0.0, TOL_CEIL])
    def test_tolerance_window_is_closed(self, tol):
        p = Packing(m=ModuliPoint(0, 1), centers=(TorusPoint(0, 0), TorusPoint(0.5, 0.5)), radius=0.25)
        assert p.validate(tol=tol) is p
        assert extract_graph(p, tol=tol).edges == ()

    @settings(max_examples=300, deadline=None)
    @given(
        _strip_points(),
        st.lists(st.tuples(_coords, _coords), min_size=1, max_size=4),
        st.sampled_from((1e-9, 1e-7, 0.1)),  # 0.1: at the ceiling
        st.integers(0, 30),
    )
    # half-lattice ties, all among the cell's 4 corners
    @example(ModuliPoint(0.0, 1.0), [(0.0, 0.0), (0.5, 0.5)], 1e-9, 0)
    @example(ModuliPoint(0.0, 1.0), [(0.5, 0.5), (0.0, 0.0)], 1e-9, 0)
    @example(ModuliPoint(0.5, 1.0), [(0.0, 0.5), (0.5, 0.0)], 1e-9, 0)
    @example(ModuliPoint(0.5, 1.0), [(0.5, 0.0), (0.0, 0.5)], 1e-9, 0)
    def test_matches_brute_force(self, m, frac, tol, k):
        centers = tuple(TorusPoint(t1 + t2 * m.x, t2 * m.y) for t1, t2 in frac)
        brute = _brute_pair_lengths(m, centers)
        lengths = sorted({e for e in brute.values() if e / 2 > 0})
        r = min(lengths[min(k, len(lengths) - 1)] / 2, 0.5)
        assume(all(abs(abs(e - 2 * r) - tol) > TOLERANCE_TIE_MARGIN for e in brute.values()))
        p = Packing(m=m, centers=centers, radius=r)
        if any(e < 2 * r - tol for e in brute.values()):
            with pytest.raises(OverlapDetected):
                extract_graph(p, tol=tol)
            return
        want = {
            (i, j, a, b)
            for (i, j, a, b), e in brute.items()
            if abs(e - 2 * r) <= tol and (i < j or (a, b) > (0, 0))
        }
        got = extract_graph(p, tol=tol).edges
        assert [(i, j, d.a, d.b) for i, j, d in got] == sorted(want)

    def test_tolerance_past_the_ceiling_is_refused(self):
        # at x = 1/2, y = sqrt(7)/2 the difference (0, 1/2) has its nearest
        # translate at 1/sqrt(2) and one off its cell corners at 1: at
        # tol = 0.15 both touch circles of radius 0.427, so the window
        # would drop a contact
        m = ModuliPoint(0.5, math.sqrt(7) / 2)
        centers = (TorusPoint(0.0, 0.0), TorusPoint(m.x / 2, m.y / 2))
        p = Packing(m=m, centers=centers, radius=0.427)
        brute = _brute_pair_lengths(m, centers)
        assert min(brute.values()) >= 2 * p.radius - 0.15
        assert abs(brute[0, 1, 1, -1] - 2 * p.radius) <= 0.15
        assert (1, -1) not in {(s1, s2) for s1, s2, _, _ in corner_translates(0.0, 0.5, m)}
        for read in (extract_graph, contacts):
            with pytest.raises(ValueError, match="above 0.1"):
                read(p, tol=0.15)

    def test_relabel_and_translate_invariance(self):
        rng = np.random.default_rng(61)
        m = ModuliPoint(0.2, 1.4)
        sol = optimal_centers(3, m)
        base = Packing(m=m, centers=sol.centers, radius=sol.radius)
        count = len(extract_graph(base).edges)
        perm = [2, 0, 1]
        shuffled = Packing(
            m=m, centers=tuple(sol.centers[i] for i in perm), radius=sol.radius
        )
        assert len(extract_graph(shuffled).edges) == count
        da, db = rng.uniform(0, 1, 2)
        shift = Packing(
            m=m,
            centers=tuple(
                TorusPoint(c.u + da + db * m.x, c.w + db * m.y) for c in sol.centers
            ),
            radius=sol.radius,
        )
        assert len(extract_graph(shift).edges) == count

    def test_interior_graph_bounds(self):
        rng = np.random.default_rng(67)
        for n in (3, 4):
            for idx in range(1, region_count(n)):
                for _ in range(5):
                    m = sample_interior(n, idx, rng)
                    p = optimal_packing(n, m)
                    g = extract_graph(p)
                    assert 2 * n - 1 <= len(g.edges) <= 3 * n
                    # a loop gives both of its darts to its vertex
                    assert all(3 <= len(ds) <= 6 for ds in vertex_darts(g.edges, n))
                    if n == 4:
                        pairs = [(i, j) for i, j, _ in g.edges if i != j]
                        assert max(map(pairs.count, pairs), default=0) <= 2



def _batch_graph(p, tol):
    """The graph read through the array evaluator, oracle._corner_arrays, the loop
    shifts and np.hypot: the tangencies, or OverlapDetected."""
    frac = np.array([c.canonical(p.m).lattice_coords(p.m) for c in p.centers])
    I, J = np.triu_indices(p.n, 1)
    shifts, v = _corner_arrays(frac[J] - frac[I], p.m.x, p.m.y)
    loops = np.array(LOOP_SHIFTS, float).T
    witnesses = [(I[k], J[k], *shifts[:, k, c]) for k, c in np.ndindex(len(I), 4)]
    witnesses += [(i, i, a, b) for i in range(p.n) for a, b in LOOP_SHIFTS]
    loop_lengths = list(np.hypot(loops[0] + p.m.x * loops[1], p.m.y * loops[1]))
    lengths = list(np.hypot(v[0], v[1]).ravel()) + loop_lengths * p.n
    if min(lengths) < 2 * p.radius - tol:
        return OverlapDetected
    edges = [(int(i), int(j), Displacement(int(a), int(b)))
             for (i, j, a, b), e in zip(witnesses, lengths) if abs(e - 2 * p.radius) <= tol]
    return PackingGraph(p.n, tuple(sorted(edges, key=lambda e: (e[0], e[1], e[2].a, e[2].b))))


def _scalar_graphs(p, tol):
    """extract_graph's and contacts' graphs, or OverlapDetected."""
    try:
        return extract_graph(p, tol), contacts(p, tol)[0]
    except OverlapDetected:
        return OverlapDetected, OverlapDetected


class TestEvaluatorsAgree:
    """extract_graph and contacts read one packing through the scalar
    evaluator, corner_translates; the array one gives the same graphs."""

    def test_on_closed_form_optima(self):
        rng = np.random.default_rng(29)
        for n in (2, 3, 4):
            curves = range(1, region_count(n))
            tori = [sample_interior(n, idx, rng) for idx in range(1, region_count(n) + 1) for _ in range(25)]
            tori += [sample_boundary(n, idx, rng) for idx in curves for _ in range(25)]
            tori += [ModuliPoint(0.0, 1.0), ModuliPoint(0.5, SQRT3 / 2)]
            tori += [ModuliPoint(x, boundary_curve(n, idx, x)) for idx in curves for x in (0.0, 0.5)]
            for m in tori:
                p = optimal_packing(n, m)
                want = _batch_graph(p, DEFAULT_TOL)
                assert want is not OverlapDetected
                assert _scalar_graphs(p, DEFAULT_TOL) == (want, want)

    def test_on_realization_samples(self, catalog3, catalog4):
        count = 0
        for catalog in (catalog3, catalog4):
            for s in (s for entry in catalog.entries for s in entry.samples):
                p = Packing(m=s.m, centers=s.centers, radius=s.edge_length / 2)
                assert _scalar_graphs(p, REALIZATION_CLEARANCE) == (s.graph, s.graph)
                assert _batch_graph(p, REALIZATION_CLEARANCE) == s.graph
                count += 1
        assert count  # the catalogs keep their probes' samples

class TestTangency:
    def test_self_tangency_counted_once(self):
        p = Packing(m=ModuliPoint(0, 2), centers=(TorusPoint(0, 0),), radius=0.5)
        out = [d for _, _, d in extract_graph(p).edges]
        assert len(out) == 1
        assert (out[0].a, out[0].b) == (1, 0)

    def test_four_diagonal_witnesses(self):
        p = Packing(
            m=ModuliPoint(0, 1),
            centers=(TorusPoint(0, 0), TorusPoint(0.5, 0.5)),
            radius=math.sqrt(2) / 4,
        )
        out = [d for _, _, d in extract_graph(p).edges]
        assert len(out) == 4
        assert {(d.a, d.b) for d in out} == {(0, 0), (-1, 0), (0, -1), (-1, -1)}

    def test_overlap_detected(self):
        p = Packing(
            m=ModuliPoint(0, 1),
            centers=(TorusPoint(0, 0), TorusPoint(0.5, 0.2)),
            radius=math.sqrt(2) / 4,
        )
        with pytest.raises(OverlapDetected):
            extract_graph(p)


class TestDensity:
    def test_values(self):
        p = Packing(
            m=ModuliPoint(0.5, SQRT3 / 2), centers=(TorusPoint(0, 0),), radius=0.5
        )
        assert density(p) == pytest.approx(TRIANGULAR_DENSITY, abs=1e-12)
        p2 = optimal_packing(2, ModuliPoint(0, 1))
        assert density(p2) == pytest.approx(math.pi / 4, abs=1e-12)
        p4 = Packing(
            m=ModuliPoint(0, 2 * SQRT3),
            centers=tuple(TorusPoint(0.5 * (k % 2), k * SQRT3 / 2) for k in range(4)),
            radius=0.5,
        )
        assert density(p4) == pytest.approx(TRIANGULAR_DENSITY, abs=1e-12)


class TestMaxRadius:
    def test_examples(self):
        m = ModuliPoint(0, 1)
        assert max_radius_for_centers(m, [TorusPoint(0, 0), TorusPoint(0.5, 0.5)]) == pytest.approx(
            math.sqrt(2) / 4, abs=1e-12
        )
        assert max_radius_for_centers(m, [TorusPoint(0, 0)]) == pytest.approx(0.5, abs=1e-12)
        assert max_radius_for_centers(m, [TorusPoint(0, 0), TorusPoint(0.5, 0)]) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_density_monotone_under_separation(self):
        rng = np.random.default_rng(71)
        m = ModuliPoint(0.1, 1.6)
        for _ in range(50):
            centers = [TorusPoint(*rng.uniform(0, 1, 2)) for _ in range(3)]
            r0 = max_radius_for_centers(m, centers)
            jitter = [
                TorusPoint(c.u + rng.normal(0, 0.02), c.w + rng.normal(0, 0.02))
                for c in centers
            ]
            r1 = max_radius_for_centers(m, jitter)
            d0 = density(Packing(m=m, centers=tuple(centers), radius=r0))
            d1 = density(Packing(m=m, centers=tuple(jitter), radius=r1))
            if r1 >= r0:
                assert d1 >= d0 - 1e-15


class TestAngles:
    def test_square_torus_gaps(self):
        p = optimal_packing(2, ModuliPoint(0, 1))
        for gaps in angle_gaps(*contacts(p)):
            assert gaps == pytest.approx([math.pi / 2] * 4, abs=1e-12)

    def test_triangular_close_packing_gaps(self):
        p = Packing(
            m=ModuliPoint(0.5, SQRT3 / 2), centers=(TorusPoint(0, 0),), radius=0.5
        )
        gaps = angle_gaps(*contacts(p))[0]
        assert gaps == pytest.approx([math.pi / 3] * 6, abs=1e-12)

    def test_horizontal_pair_has_pi_gap(self):
        p = Packing(
            m=ModuliPoint(0, 1),
            centers=(TorusPoint(0, 0), TorusPoint(0.5, 0)),
            radius=0.25,
        )
        for gaps in angle_gaps(*contacts(p)):
            assert gaps[-1] == pytest.approx(math.pi, abs=1e-12)


def test_halfplane_test_resolves_a_gap_of_pi_minus_1e_8():
    # ANGLE_GAP_TOL absorbs rounding alone (closed-form gaps of pi read
    # exactly pi, see packing): three loops 5e-9 apart put darts at 0, 5e-9,
    # 1e-8 and their opposites, so the largest gap is pi - 1e-8 and no
    # half-plane holds them
    vectors = tuple((math.cos(k * 5e-9), math.sin(k * 5e-9)) for k in range(3))
    g = PackingGraph(vertex_count=1, edges=tuple((0, 0, Displacement(k, 0)) for k in range(3)))
    assert angle_gaps(g, vectors)[0][-1] == pytest.approx(math.pi - 1e-8, abs=1e-15)
    assert not has_halfplane_vertex(g, vectors)


def _fits_half_turn(dirs) -> bool:
    """Every vector lies within the half-turn counterclockwise from some v_i."""
    return any(all(a[0] * b[1] - a[1] * b[0] >= 0 for b in dirs) for a in dirs)


# Tangencies at circle 0 of a two-circle graph: an edge to circle 1 gives
# one direction, a loop its +-v, and a pair of edges an exactly opposite
# pair.  Circle 1 also carries three loops 60 degrees apart, so it never
# fits in a half-plane and the verdict is circle 0's.
TANGENCY = st.tuples(
    st.floats(0, 2 * math.pi, exclude_max=True),
    st.floats(0.5, 2.0),
    st.sampled_from(["edge", "loop", "pair"]),
)
HEXAGONAL_LOOPS = [(1.0, 0.0), (0.5, SQRT3 / 2), (-0.5, SQRT3 / 2)]


@settings(max_examples=300, deadline=None)
@given(st.lists(TANGENCY, min_size=1, max_size=7))
def test_cyclic_gaps_and_halfplane_test(tangencies):
    edges, vectors, dirs = [], [], []
    for k, (theta, length, kind) in enumerate(tangencies):
        v = (length * math.cos(theta), length * math.sin(theta))
        minus = (-v[0], -v[1])
        if kind == "loop":
            edges.append((0, 0, Displacement(k, 0)))
        else:
            edges.append((0, 1, Displacement(k, 0)))
        vectors.append(v)
        dirs += [v] if kind == "edge" else [v, minus]
        if kind == "pair":
            edges.append((0, 1, Displacement(k, 1)))
            vectors.append(minus)
    assume(len(dirs) <= 7)
    # off the tolerance edge: two directions are exactly opposite or their
    # angle is more than 1e-6 away from pi
    for a in dirs:
        for b in dirs:
            if b != (-a[0], -a[1]):
                angle = math.atan2(a[0] * b[1] - a[1] * b[0], a[0] * b[0] + a[1] * b[1])
                assume(abs(abs(angle) - math.pi) > 1e-6)
    edges += [(1, 1, Displacement(9, k)) for k in range(3)]
    vectors += HEXAGONAL_LOOPS
    g = PackingGraph(vertex_count=2, edges=tuple(edges))
    # angle_gaps: the differences of the sorted math.atan2 angles, sorted
    ang = sorted(math.atan2(y, x) for x, y in dirs)
    assert angle_gaps(g, vectors)[0] == sorted(b - a for a, b in zip(ang, ang[1:] + [ang[0] + 2 * math.pi]))
    assert has_halfplane_vertex(g, vectors) == _fits_half_turn(dirs)


class TestSerialization:
    def test_round_trip(self):
        p = optimal_packing(3, ModuliPoint(0.2, 1.5))
        g = extract_graph(p)
        p2 = packing_from_dict(json.loads(to_json(packing_to_dict(p))))
        g2 = graph_from_dict(json.loads(to_json(graph_to_dict(g))))
        assert p2 == p
        assert g2 == g
        assert json.loads(to_json(packing_to_dict(p)))["schema"] == 1
