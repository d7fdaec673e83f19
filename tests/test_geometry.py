import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasidiff import (
    Box,
    FisherFamily,
    ValidationError,
    VanHoveCubes,
    boundary_fraction,
    cube_sequence,
    fisher_boxes,
)


class TestBox:
    def test_basic_properties(self):
        b = Box([0.0, -1.0], [2.0, 3.0])
        assert b.dim == 2
        assert b.volume == pytest.approx(8.0)
        assert np.allclose(b.sides, [2.0, 4.0])
        assert np.allclose(b.center, [1.0, 1.0])

    def test_interval_shortcut(self):
        b = Box.interval(0.0, 5.0)
        assert b.dim == 1 and b.volume == 5.0

    @pytest.mark.parametrize("lo,hi", [([0.0], [0.0]), ([1.0], [0.0]), ([0, 0], [1, 0])])
    def test_degenerate_rejected(self, lo, hi):
        with pytest.raises(ValidationError):
            Box(lo, hi)

    def test_contains_half_open(self):
        b = Box([0.0], [1.0])
        pts = np.array([[0.0], [0.5], [1.0], [-0.1]])
        assert b.contains(pts).tolist() == [True, True, False, False]

    def test_translate(self):
        b = Box([0.0], [1.0]).translate([2.5])
        assert b.lo[0] == 2.5 and b.hi[0] == 3.5

    def test_json_round_trip(self):
        b = Box([0.25, -1.5], [2.0, 7.0])
        b2 = Box.from_json(b.to_json())
        assert np.array_equal(b.lo, b2.lo) and np.array_equal(b.hi, b2.hi)

    @given(
        lo=st.integers(-800, 800),
        width=st.integers(1, 400),
        t=st.integers(-800, 800),
        x=st.integers(-1600, 1600),
    )
    @settings(max_examples=50, deadline=None)
    def test_translation_consistency(self, lo, width, t, x):
        # eighth-integer inputs keep every sum exact, so the half-open
        # boundary is preserved under translation bit for bit
        lo, width, t, x = lo / 8.0, width / 8.0, t / 8.0, x / 8.0
        b = Box([lo], [lo + width])
        moved = b.translate([t])
        assert moved.contains(np.array([[x + t]]))[0] == b.contains(np.array([[x]]))[0]


class TestVanHove:
    def test_cube_sequence_geometry(self):
        cubes = cube_sequence(VanHoveCubes([10.0], 2.0, 2.0, 4))
        assert [c.sides[0] for c in cubes] == [2.0, 4.0, 8.0, 16.0]
        for c in cubes:
            assert c.center[0] == pytest.approx(10.0)

    def test_nested(self):
        cubes = cube_sequence(VanHoveCubes([0.0, 0.0], 1.0, 1.5, 3))
        for small, big in zip(cubes, cubes[1:]):
            assert np.all(big.lo <= small.lo) and np.all(big.hi >= small.hi)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            VanHoveCubes([0.0], -1.0, 2.0, 3)
        with pytest.raises(ValidationError):
            VanHoveCubes([0.0], 1.0, 1.0, 3)
        with pytest.raises(ValidationError):
            VanHoveCubes([0.0], 1.0, 2.0, 0)

    @pytest.mark.parametrize("center, side0, growth, count", [
        ([0.0], 0.5, 1e300, 10),  # growth**(count - 1) overflows
        ([0.0], 2.0, 1.7e308, 2),  # the last side overflows
        ([0.0], 1e-300, 1e300, 3),  # growth**2 overflows, the side would not
        ([0.0, 0.0], 1.0, 1e200, 2),  # the last volume overflows
    ])
    def test_last_cube_past_the_float_range(self, center, side0, growth, count):
        with pytest.raises(ValidationError, match="overflows a float"):
            VanHoveCubes(center, side0, growth, count)

    def test_last_cube_near_the_float_range(self):
        (cube,) = cube_sequence(VanHoveCubes([0.0], 1e308, 2.0, 1))
        assert cube.volume == 1e308
        assert cube_sequence(VanHoveCubes([0.0], 1e-300, 1e300, 2))[-1].sides[0] == pytest.approx(1.0)

    def test_boundary_fraction_formula(self):
        b = Box([0.0], [10.0])
        # 1D: ((s + 2p) - (s - 2p)) / s = 4p/s
        assert boundary_fraction(b, 0.5) == pytest.approx(4 * 0.5 / 10.0)

    def test_boundary_fraction_vanishes_along_van_hove(self):
        cubes = cube_sequence(VanHoveCubes([0.0, 0.0], 4.0, 2.0, 6))
        fracs = [boundary_fraction(c, 1.0) for c in cubes]
        assert all(b < a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] < 0.1


class TestFisher:
    def test_deterministic_boxes(self):
        fam = FisherFamily(1.0, 1)
        boxes = fisher_boxes(fam, [10.0, 100.0], anchor=[5.0])
        assert len(boxes) == 2
        assert boxes[0].lo[0] == 5.0 and boxes[0].sides[0] == pytest.approx(15.0)
        assert boxes[1].sides[0] == pytest.approx(150.0)

    def test_randomized_boxes_stay_in_reach(self):
        fam = FisherFamily(2.0, 2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            (box,) = fisher_boxes(fam, [5.0], anchor=[1.0, -3.0], rng=rng)
            r = 2.0 * 5.0
            assert np.all(box.lo >= [1.0, -3.0])
            assert np.all(box.hi <= np.array([1.0, -3.0]) + 3.0 * r)
            assert np.all(box.sides >= r) and np.all(box.sides < 2 * r)

    def test_scales_must_increase(self):
        fam = FisherFamily(1.0, 1)
        with pytest.raises(ValidationError):
            fisher_boxes(fam, [10.0, 10.0], anchor=[0.0])
        with pytest.raises(ValidationError):
            fisher_boxes(fam, [-1.0], anchor=[0.0])
