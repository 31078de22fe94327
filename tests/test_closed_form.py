import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from toruspack import closed_form
from toruspack.closed_form import (
    layered_centers,
    optimal_centers,
    optimal_radius,
    radius_branch,
    tangency_census,
)
from toruspack.errors import OutOfModuliStrip
from toruspack.lattice import _STRIP_EPS, DEFAULT_TOL, ModuliPoint, torus_distance
from toruspack.packing import Packing, TRIANGULAR_DENSITY, density, extract_graph
from toruspack.regions import boundary_curve, region_count, sample_interior

SQRT3 = math.sqrt(3.0)


class TestRadiusValues:
    def test_two_circles(self):
        assert optimal_radius(2, ModuliPoint(0.5, 2)) == 0.5
        assert optimal_radius(2, ModuliPoint(0, 1)) == pytest.approx(math.sqrt(2) / 4, abs=1e-15)

    def test_three_circles(self):
        assert optimal_radius(3, ModuliPoint(0.5, SQRT3 / 2)) == pytest.approx(
            1 / math.sqrt(12), abs=1e-15
        )
        assert optimal_radius(3, ModuliPoint(0, 2)) == pytest.approx(
            (math.sqrt(19) - 2) / 6, abs=1e-15
        )

    def test_four_circles_square_torus(self):
        # sin(pi/12) = (sqrt(6) - sqrt(2))/4
        assert optimal_radius(4, ModuliPoint(0, 1)) == pytest.approx(0.2588190, abs=1e-7)
        assert optimal_radius(4, ModuliPoint(0, 1)) == pytest.approx(math.sin(math.pi / 12), abs=1e-12)

    def test_triangular_density_check(self):
        # 3 pi r^2 / (sqrt(3)/2) equals the triangular close packing density
        r = optimal_radius(3, ModuliPoint(0.5, SQRT3 / 2))
        assert 3 * math.pi * r * r / (SQRT3 / 2) == pytest.approx(TRIANGULAR_DENSITY, abs=1e-12)


class TestContinuity:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_adjacent_branches_agree(self, n):
        rng = np.random.default_rng(41)
        for idx in range(1, region_count(n)):
            for _ in range(100):
                x = float(rng.uniform(0, 0.5))
                y = boundary_curve(n, idx, x)
                lo = radius_branch(n, idx, x, y)
                hi = radius_branch(n, idx + 1, x, y)
                if math.isnan(lo) or math.isnan(hi):
                    continue  # pinched corner of a closure
                assert abs(lo - hi) <= 1e-9

    def test_constant_on_special_boundaries(self):
        rng = np.random.default_rng(43)
        for n, idx in ((3, 1), (4, 2)):
            for _ in range(100):
                x = float(rng.uniform(0, 0.5))
                y = boundary_curve(n, idx, x)
                assert optimal_radius(n, ModuliPoint(x, y)) == pytest.approx(
                    1 / math.sqrt(12), abs=1e-12
                )


class TestCenters:
    def test_two_circle_square(self):
        sol = optimal_centers(2, ModuliPoint(0, 1))
        assert sol.aux_R == pytest.approx(1.0, abs=1e-12)
        coords = sorted((c.u, c.w) for c in sol.centers)
        assert coords[0] == pytest.approx((0, 0), abs=1e-12)
        assert coords[1] == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_triangular_three(self):
        m = ModuliPoint(0.5, SQRT3 / 2)
        sol = optimal_centers(3, m)
        for i in range(3):
            for j in range(i + 1, 3):
                d = torus_distance(sol.centers[i], sol.centers[j], m)
                assert d == pytest.approx(2 * sol.radius, abs=1e-12)

    def test_layered_witness(self):
        m = ModuliPoint(0, 2 * SQRT3)
        sol = optimal_centers(4, m)
        assert sol.radius == 0.5
        p = Packing(m=m, centers=sol.centers, radius=0.5)
        g = extract_graph(p, tol=1e-9)
        assert g.loop_count() == 4  # every circle self-tangent

    def test_classifies_once(self, monkeypatch):
        calls = []
        classify = closed_form.classify
        monkeypatch.setattr(closed_form, "classify", lambda n, m: calls.append(m) or classify(n, m))
        m = ModuliPoint(0.1, 1.0)
        sol = optimal_centers(4, m)
        assert calls == [m]
        assert sol.radius == radius_branch(4, sol.region.index, m.x, m.y)

    def test_first_center_is_origin(self):
        rng = np.random.default_rng(47)
        for n in (2, 3, 4):
            for idx in range(1, region_count(n) + 1):
                m = sample_interior(n, idx, rng)
                sol = optimal_centers(n, m)
                assert (sol.centers[0].u, sol.centers[0].w) == (0.0, 0.0)
                assert len(sol.centers) == n
                assert sol.radius >= 0.25 - 1e-12

    def test_validity_and_density_bound(self):
        rng = np.random.default_rng(53)
        for n in (2, 3, 4):
            for idx in range(1, region_count(n) + 1):
                for _ in range(6):
                    m = sample_interior(n, idx, rng)
                    sol = optimal_centers(n, m)
                    p = Packing(m=m, centers=sol.centers, radius=sol.radius)
                    p.validate(tol=1e-9)
                    assert density(p) <= TRIANGULAR_DENSITY + 1e-12

    def test_validity_above_boundaries_and_near_hexagonal_point(self):
        # a point a rounding above a boundary curve, and the thin end of
        # R1_4 where it pinches to the hexagonal point (1/2, sqrt(3)/2)
        rng = np.random.default_rng(61)
        points = []
        for n in (2, 3, 4):
            for idx in range(1, region_count(n)):
                for _ in range(20):
                    x = float(rng.uniform(0.001, 0.499))
                    y = boundary_curve(n, idx, x) + float(rng.uniform(0, 1e-9))
                    points.append((n, ModuliPoint(x, y)))
        for d in (2e-6, 1e-5, 1e-4):
            x = 0.5 - d
            points.append((4, ModuliPoint(x, (math.sqrt(1 - x * x) + boundary_curve(4, 1, x)) / 2)))
        for n, m in points:
            sol = optimal_centers(n, m)
            Packing(m=m, centers=sol.centers, radius=sol.radius).validate(tol=1e-11)
        # R1_4 and R2_4 reach the hexagonal point, where r comes down to 1/4:
        # their R must come from the branch, not from sqrt(16 r^2 - 1)
        for d in (1e-7, 3e-7, 1e-6, 3e-6, 1e-5):
            x = 0.5 - d
            lo, hi = math.sqrt(1 - x * x), boundary_curve(4, 1, x)
            for m in (ModuliPoint(x, lo + t * (hi - lo)) for t in (0.25, 0.5, 0.75)):
                sol = optimal_centers(4, m)
                assert sol.region.name == "R1_4"
                Packing(m=m, centers=sol.centers, radius=sol.radius).validate(tol=1e-15)
                with localcontext(prec=40):  # the branch's ratio, about the exact corner
                    s3 = Decimal(3).sqrt()
                    u, v = Decimal(m.x) - Decimal("0.5"), Decimal(m.y) - s3 / 2
                    exact = (u + s3 * v + 2 * (u * u + v * v)) / (v - s3 * u)
                    assert abs(Decimal(sol.aux_R) - exact) <= Decimal("1e-15")
            m = ModuliPoint(x, hi + d)
            sol = optimal_centers(4, m)
            assert sol.region.name == "R2_4"
            Packing(m=m, centers=sol.centers, radius=sol.radius).validate(tol=1e-15)

    def test_interior_semicircle_condition(self):
        from toruspack.packing import angle_spectrum

        rng = np.random.default_rng(59)
        for n in (2, 3, 4):
            for idx in range(1, region_count(n)):  # regions with r < 1/2
                for _ in range(4):
                    m = sample_interior(n, idx, rng)
                    sol = optimal_centers(n, m)
                    p = Packing(m=m, centers=sol.centers, radius=sol.radius)
                    g = extract_graph(p, tol=1e-9)
                    for gaps in angle_spectrum(g, p):
                        assert gaps[-1] < math.pi - 1e-9


# (x, y) where a region curve of some n meets another curve or a strip wall
_CUSPS = sorted(
    {(x, boundary_curve(n, i, x)) for n in (2, 3, 4) for i in range(region_count(n)) for x in (0.0, 0.5)}
)


@st.composite
def _near_cusp(draw):
    """A torus within 1e-7 of a cusp.  x is clamped to the walls and y to
    the lowest the strip admits at x (ModuliPoint's slack below the bottom
    curve), so both edges are drawn often."""
    x0, y0 = draw(st.sampled_from(_CUSPS))
    x = min(max(x0 + draw(st.floats(-1e-7, 1e-7)), 0.0), 0.5)
    y = max(y0 + draw(st.floats(-1e-7, 1e-7)), math.sqrt(1.0 - _STRIP_EPS - x * x))
    while True:
        try:
            return ModuliPoint(x, y)
        except OutOfModuliStrip:
            y = math.nextafter(y, math.inf)


def _validate_layouts(m):
    for n in (2, 3, 4):
        sol = optimal_centers(n, m)
        Packing(m=m, centers=sol.centers, radius=sol.radius).validate(tol=DEFAULT_TOL)


class TestCusps:
    @settings(max_examples=500, deadline=None)
    @given(m=_near_cusp())
    # the lowest torus admitted on x = 1/2, 5.8e-10 below the true strip:
    # the n = 4 layout overlaps by 9.99999972e-10, about 3e-17 inside the tolerance
    @example(m=ModuliPoint(0.5, 0.8660254032070884))
    def test_layouts_near_every_cusp_are_packings(self, m):
        _validate_layouts(m)

    # 1e-9 past a wall the layouts would overlap by more than DEFAULT_TOL
    # (n = 2 by 1.4e-9, n = 4 by 2.8e-9), so no such torus can be built
    @pytest.mark.parametrize("x, y", [(-1e-9, 0.9999999995000001), (0.500000001, 0.8660254026297382)])
    def test_no_torus_past_a_wall(self, x, y):
        with pytest.raises(OutOfModuliStrip):
            ModuliPoint(x, y)


class TestTangencyCensus:
    def test_paper_counts(self):
        assert tangency_census(4, ModuliPoint(0.1, 1.0)) == 9
        assert tangency_census(3, ModuliPoint(0.1, 1.5)) == 5
        assert tangency_census(2, ModuliPoint(0, 1)) == 4

    def test_layered_counts(self):
        # top-edge packings: n loops + 2(n-1) doubled + 1 single
        assert tangency_census(3, ModuliPoint(0, SQRT3 + 1)) == 8
        alpha = 1.2
        x = 0.5 - math.cos(alpha)
        y = 3 * SQRT3 / 2 + math.sin(alpha)
        assert tangency_census(4, ModuliPoint(x, y)) == 11
        # triangular endpoints double the last tangency
        assert tangency_census(3, ModuliPoint(0.5, 3 * SQRT3 / 2)) == 9
        assert tangency_census(4, ModuliPoint(0, 2 * SQRT3)) == 12

    def test_triangular_corners(self):
        assert tangency_census(3, ModuliPoint(0.5, SQRT3 / 2)) == 9
        assert tangency_census(4, ModuliPoint(0.5, SQRT3 / 2)) == 12
        assert tangency_census(4, ModuliPoint(0.0, 2 / SQRT3)) == 12


def test_layered_centers_shape():
    pts = layered_centers(4)
    assert [(p.u, p.w) for p in pts] == [
        (0.0, 0.0),
        (0.5, SQRT3 / 2),
        (0.0, SQRT3),
        (0.5, 3 * SQRT3 / 2),
    ]
