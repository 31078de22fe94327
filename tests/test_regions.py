import math

import numpy as np
import pytest

from toruspack.closed_form import optimal_centers
from toruspack.errors import AlphaOutOfRange, OutOfModuliStrip
from toruspack.lattice import ModuliPoint
from toruspack.packing import Packing, extract_graph
from toruspack.regions import (
    boundary_curve,
    classify,
    in_free_region,
    region_count,
    sample_interior,
    self_tangent_boundary,
)

SQRT3 = math.sqrt(3.0)


def _tangencies(n, m):
    sol = optimal_centers(n, m)
    return len(extract_graph(Packing(m=m, centers=sol.centers, radius=sol.radius)).edges)


class TestClassify:
    def test_examples(self):
        assert classify(2, ModuliPoint(0.2, 1.1)).name == "R1_2"
        assert classify(3, ModuliPoint(0, 2)).name == "R2_3"
        assert classify(2, ModuliPoint(0.5, 2)).name == "R2_2"

    def test_triangular_corner_four_circles(self):
        region = classify(4, ModuliPoint(0.5, SQRT3 / 2))
        assert region.name == "R1_4"
        assert "lower" in region.boundary_flags

    def test_out_of_strip(self):
        with pytest.raises(OutOfModuliStrip):
            classify(3, ModuliPoint(0.3, 0.4))
        with pytest.raises(OutOfModuliStrip):
            classify(3, ModuliPoint(0.7, 2.0))

    def test_partition(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 4):
            for _ in range(10_000 // 3):
                x = rng.uniform(0, 0.5)
                y = rng.uniform(math.sqrt(1 - x * x) + 1e-9, 4.5)
                hits = 0
                m = ModuliPoint(x, y)
                region = classify(n, m)
                for idx in range(1, region_count(n) + 1):
                    lo = boundary_curve(n, idx - 1, x) if idx > 1 else math.sqrt(max(1 - x * x, 0))
                    hi = boundary_curve(n, idx, x) if idx < region_count(n) else math.inf
                    if lo <= y < hi:
                        hits += 1
                        assert region.index == idx
                assert hits == 1

    def test_boundary_coherence(self):
        # points exactly on each curve carry the lower flag of the upper region
        rng = np.random.default_rng(29)
        for n in (2, 3, 4):
            for idx in range(1, region_count(n)):
                for _ in range(50):
                    x = float(rng.uniform(0, 0.5))
                    y = boundary_curve(n, idx, x)
                    region = classify(n, ModuliPoint(x, y))
                    assert region.index == idx + 1
                    assert "lower" in region.boundary_flags

    def test_boundary_flag_marks_the_curves_contacts(self):
        # BOUNDARY_TOL: above a curve by 1e-10 the closed-form layout still
        # has the curve's extra contacts at DEFAULT_TOL, and the torus is
        # flagged; 1e-8 above, the contact is open and the flag is off
        for n in (2, 3, 4):
            for idx in range(1, region_count(n)):
                for x in (0.1, 0.3):
                    y = boundary_curve(n, idx, x)
                    on, near, off = (ModuliPoint(x, y + d) for d in (0.0, 1e-10, 1e-8))
                    assert "lower" in classify(n, near).boundary_flags
                    assert "lower" not in classify(n, off).boundary_flags
                    assert _tangencies(n, near) == _tangencies(n, on) > _tangencies(n, off)

    def test_one_formula_per_curve(self):
        # curve 0 is the strip bottom, bit for bit
        for n in (2, 3, 4):
            for x in np.linspace(0.0, 0.5, 101):
                x = float(x)
                assert boundary_curve(n, 0, x) == math.sqrt(1.0 - x * x)
            with pytest.raises(ValueError):
                boundary_curve(n, region_count(n), 0.25)


class TestSelfTangentBoundary:
    def test_paper_values(self):
        m = self_tangent_boundary(3, math.pi / 2)
        assert (m.x, m.y) == pytest.approx((0.0, SQRT3 + 1), abs=1e-12)
        m = self_tangent_boundary(4, math.pi / 3)
        assert (m.x, m.y) == pytest.approx((0.0, 2 * SQRT3), abs=1e-12)
        m = self_tangent_boundary(2, math.pi / 2)
        assert (m.x, m.y) == pytest.approx((0.5, SQRT3 / 2 + 1), abs=1e-12)

    def test_alpha_range(self):
        # one ulp past either end is out: the range has no slack
        for alpha in (0.5, math.nextafter(math.pi / 3, 0), math.nextafter(math.pi / 2, 4)):
            with pytest.raises(AlphaOutOfRange):
                self_tangent_boundary(3, alpha)

    # common ways to write the ends land in [pi/3, pi/2] as floats, so the
    # range needs no slack
    @pytest.mark.parametrize("alpha", [
        math.acos(0.5), math.radians(60), math.atan2(math.sqrt(3), 1), math.pi - 2 * math.pi / 3,
        math.asin(math.sqrt(3) / 2), math.atan(math.sqrt(3)), 2 * math.pi / 6,
        math.asin(1), math.acos(0.0), math.atan2(1, 0), math.radians(90), math.pi - math.pi / 2,
        *np.linspace(math.pi / 3, math.pi / 2, 7)[[0, -1]],
    ])
    def test_common_spellings_of_the_ends_are_in_range(self, alpha):
        for n in (2, 3, 4):
            m = self_tangent_boundary(n, float(alpha))
            assert min(m.x, 0.5 - m.x) < 1e-15  # on a wall

    def test_traces_top_region_lower_curve(self):
        # the parametric boundary equals the closed-form curve pointwise
        for n in (2, 3, 4):
            top = region_count(n)
            for alpha in np.linspace(math.pi / 3, math.pi / 2, 100):
                m = self_tangent_boundary(n, float(alpha))
                assert m.y == pytest.approx(boundary_curve(n, top - 1, m.x), abs=1e-12)


class TestFreeRegion:
    def test_examples(self):
        assert in_free_region(3, ModuliPoint(0, 3)) is True
        assert in_free_region(3, ModuliPoint(0, SQRT3 + 1)) is False
        assert in_free_region(4, ModuliPoint(0.25, 1.2)) is False

    def test_matches_top_region(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 4):
            for _ in range(300):
                x = rng.uniform(0, 0.5)
                y = rng.uniform(1.0, 4.6)
                try:
                    m = ModuliPoint(x, y)
                except OutOfModuliStrip:
                    continue
                top = region_count(n)
                expected = classify(n, m).index == top and "lower" not in classify(n, m).boundary_flags
                assert in_free_region(n, m) == expected


def test_sample_interior_lands_inside():
    rng = np.random.default_rng(37)
    for n in (2, 3, 4):
        for idx in range(1, region_count(n) + 1):
            for _ in range(20):
                m = sample_interior(n, idx, rng)
                region = classify(n, m)
                assert region.index == idx
                assert not region.boundary_flags & {"lower", "upper"}
