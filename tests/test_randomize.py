import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from quasidiff import (
    Box,
    DisplacementDist,
    NumericalDiagnosticError,
    RandomModel,
    ValidationError,
    apply_model,
    char_fn,
    displace,
    lattice_points,
    monte_carlo_intensity,
    percolate,
    predicted_intensity,
)


@pytest.fixture(scope="module")
def z4000():
    return lattice_points(1, Box([0.0], [4000.0]), 1.0)


class TestDisplacementDist:
    def test_kinds_validate(self):
        with pytest.raises(ValidationError, match="kind"):
            DisplacementDist("gaussian", a=1.0)
        with pytest.raises(ValidationError):
            DisplacementDist("uniform_interval", a=0.0)
        with pytest.raises(ValidationError):
            DisplacementDist("two_point")
        with pytest.raises(ValidationError):
            DisplacementDist("table", atoms=())

    @pytest.mark.parametrize("kind", ["uniform_interval", "two_point"])
    @pytest.mark.parametrize("a", [np.inf, np.nan, -np.inf])
    def test_half_width_must_be_finite(self, kind, a):
        with pytest.raises(ValidationError, match="finite"):
            DisplacementDist(kind, a=a)

    def test_sample_width_must_not_overflow(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        with pytest.raises(ValidationError, match="2a overflows"):
            DisplacementDist("uniform_interval", a=1e308).sample(3, 1, rng)
        t = DisplacementDist("two_point", a=1e308).sample(4, 1, rng)  # no width to overflow
        assert set(np.abs(t).ravel()) == {1e308}

    def test_table_probabilities(self):
        with pytest.raises(ValidationError, match="sum"):
            DisplacementDist("table", atoms=(((0.1,), 0.7), ((-0.1,), 0.1)))
        with pytest.raises(ValidationError, match="nonnegative"):
            DisplacementDist("table", atoms=(((0.1,), 1.5), ((-0.1,), -0.5)))
        with pytest.raises(ValidationError, match="dimension"):
            DisplacementDist("table", atoms=(((0.1,), 0.5), ((0.1, 0.2), 0.5)))

    def test_bound(self):
        assert DisplacementDist("uniform_interval", a=0.2).bound() == 0.2
        assert DisplacementDist("two_point", a=0.3).bound() == 0.3
        d = DisplacementDist("table", atoms=(((0.1, -0.4), 0.5), ((0.0, 0.0), 0.5)))
        assert d.bound() == 0.4

    def test_sample_stays_in_support(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        u = DisplacementDist("uniform_interval", a=0.1).sample(500, 2, rng)
        assert u.shape == (500, 2)
        assert np.max(np.abs(u)) <= 0.1
        t = DisplacementDist("two_point", a=0.25).sample(500, 1, rng)
        assert set(np.unique(t)) == {-0.25, 0.25}

    def test_table_sample_draws_atoms(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        d = DisplacementDist("table", atoms=(((0.1,), 0.5), ((-0.3,), 0.5)))
        s = d.sample(200, 1, rng)
        assert set(np.round(np.unique(s), 12)) <= {0.1, -0.3}

    def test_json_round_trip(self):
        for d in (
            DisplacementDist("uniform_interval", a=0.15),
            DisplacementDist("two_point", a=0.4),
            DisplacementDist("table", atoms=(((0.1, 0.0), 0.25), ((0.0, -0.1), 0.75))),
        ):
            assert DisplacementDist.from_json(d.to_json()) == d


class TestCharFn:
    def test_uniform_closed_form_vs_quadrature(self):
        d = DisplacementDist("uniform_interval", a=0.17)
        xi = 0.83
        n = 200001
        xs = np.linspace(-0.17, 0.17, n)
        quad = trapezoid(np.exp(-2j * np.pi * xi * xs), xs) / 0.34
        assert char_fn(d, [xi]) == pytest.approx(quad, abs=1e-9)

    def test_two_point(self):
        d = DisplacementDist("two_point", a=0.2)
        xi = 1.3
        assert char_fn(d, [xi]) == pytest.approx(np.cos(2 * np.pi * xi * 0.2))

    def test_two_point_extinction(self):
        # 2 xi a = 1/2 puts the cosine at zero
        k = 1.894427191
        d = DisplacementDist("two_point", a=1.0 / (4.0 * k))
        assert abs(char_fn(d, [k])) < 1e-12

    def test_table(self):
        d = DisplacementDist("table", atoms=(((0.25,), 0.5), ((-0.25,), 0.5)))
        assert char_fn(d, [1.0]) == pytest.approx(np.cos(np.pi / 2), abs=1e-12)

    def test_at_zero(self):
        for d in (
            DisplacementDist("uniform_interval", a=0.3),
            DisplacementDist("two_point", a=0.3),
        ):
            assert char_fn(d, [0.0]) == pytest.approx(1.0)

    def test_overflowing_phase(self):
        # uniform: |sin(v)/v| <= 1/|v| rounds to 0; elsewhere the cosine is undefined
        assert char_fn(DisplacementDist("uniform_interval", a=1e308), [1.0, 0.0]) == 0.0
        assert char_fn(DisplacementDist("uniform_interval", a=1e308), [0.0]) == 1.0
        for d in (DisplacementDist("two_point", a=1e308),
                  DisplacementDist("table", atoms=(((1e308,), 0.5), ((-1e308,), 0.5)))):
            with pytest.raises(NumericalDiagnosticError, match="overflows"):
                char_fn(d, [1.0])
            assert char_fn(d, [0.0]) == 1.0

    @given(st.floats(-5.0, 5.0), st.floats(0.01, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_modulus_bounded(self, xi, a):
        for kind in ("uniform_interval", "two_point"):
            val = char_fn(DisplacementDist(kind, a=a), [xi])
            assert abs(val) <= 1.0 + 1e-12


class TestRandomModel:
    def test_percolation_bounds(self):
        with pytest.raises(ValidationError):
            RandomModel("percolation", 0, p=0.0)
        with pytest.raises(ValidationError):
            RandomModel("percolation", 0, p=1.0)
        m = RandomModel("percolation", 3, p=0.25)
        assert m.with_seed(9).seed == 9 and m.with_seed(9).p == 0.25

    def test_seed_range(self):
        with pytest.raises(ValidationError, match="seed"):
            RandomModel("percolation", -1, p=0.5)
        with pytest.raises(ValidationError, match="seed"):
            RandomModel("percolation", 2**64, p=0.5)

    def test_displacement_needs_dist(self):
        with pytest.raises(ValidationError, match="distribution"):
            RandomModel("displacement", 0)

    def test_json_round_trip(self):
        m1 = RandomModel("percolation", 17, p=0.5)
        m2 = RandomModel(
            "displacement", 18, dist=DisplacementDist("uniform_interval", a=0.1)
        )
        assert RandomModel.from_json(m1.to_json()) == m1
        assert RandomModel.from_json(m2.to_json()) == m2


class TestPercolate:
    def test_deterministic(self, z4000):
        a = percolate(z4000, 0.5, 123)
        b = percolate(z4000, 0.5, 123)
        assert np.array_equal(a.points, b.points)

    def test_seed_changes_outcome(self, z4000):
        a = percolate(z4000, 0.5, 123)
        b = percolate(z4000, 0.5, 124)
        assert len(a) != len(b) or not np.array_equal(a.points, b.points)

    def test_survivor_count_binomial(self, z4000):
        kept = percolate(z4000, 0.5, 7)
        # 4 sigma band around np = 2000, sigma = sqrt(n p (1-p)) ~ 31.6
        assert abs(len(kept) - 2000) < 4 * np.sqrt(1000.0)

    def test_survivors_are_subset(self, z4000):
        kept = percolate(z4000, 0.3, 11)
        assert set(kept.points[:, 0]) <= set(z4000.points[:, 0])

    def test_invalid_p(self, z4000):
        with pytest.raises(ValidationError):
            percolate(z4000, 1.0, 0)

    def test_meta_chain(self, z4000):
        kept = percolate(z4000, 0.5, 42)
        assert kept.meta["generator"] == "percolation"
        assert kept.meta["seed"] == 42
        assert kept.meta["source"]["generator"] == z4000.meta["generator"]


class TestDisplace:
    def test_count_and_bound(self, z4000):
        d = DisplacementDist("uniform_interval", a=0.1)
        moved = displace(z4000, d, 5)
        assert len(moved) == len(z4000)
        # canonical sorting is order preserving here since 2a < spacing
        assert np.max(np.abs(moved.points - z4000.points)) <= 0.1

    def test_deterministic(self, z4000):
        d = DisplacementDist("two_point", a=0.2)
        a = displace(z4000, d, 9)
        b = displace(z4000, d, 9)
        assert np.array_equal(a.points, b.points)

    def test_meta_records_separation(self, z4000):
        d = DisplacementDist("uniform_interval", a=0.1)
        moved = displace(z4000, d, 5)
        sep = moved.meta["params"]["min_separation"]
        assert 0.8 <= sep <= 1.0
        diffs = np.diff(np.sort(moved.points[:, 0]))
        assert sep == pytest.approx(float(diffs.min()))

    def test_weights_preserved(self):
        from quasidiff import WeightedPointSet

        wps = WeightedPointSet(1, [0.0, 10.0], [2.0, 3.0])
        moved = displace(wps, DisplacementDist("uniform_interval", a=0.1), 1)
        assert sorted(moved.weights.real.tolist()) == [2.0, 3.0]


class TestApplyModel:
    def test_dispatch(self, z4000):
        m = RandomModel("percolation", 5, p=0.5)
        assert np.array_equal(apply_model(z4000, m).points, percolate(z4000, 0.5, 5).points)
        d = DisplacementDist("two_point", a=0.1)
        m2 = RandomModel("displacement", 6, dist=d)
        assert np.array_equal(apply_model(z4000, m2).points, displace(z4000, d, 6).points)


class TestPredictedIntensity:
    def test_percolation_law(self):
        m = RandomModel("percolation", 0, p=0.4)
        out = predicted_intensity(m, 0.9, [1.0], 2.0)
        assert out["point_part"] == pytest.approx(0.16 * 0.9)
        assert out["diffuse_level"] == pytest.approx(0.4 * 0.6 * 2.0)

    def test_displacement_law(self):
        d = DisplacementDist("two_point", a=0.1)
        m = RandomModel("displacement", 0, dist=d)
        xi = [1.3]
        s2 = abs(char_fn(d, xi)) ** 2
        out = predicted_intensity(m, 0.5, xi, 3.0)
        assert out["point_part"] == pytest.approx(s2 * 0.5)
        assert out["diffuse_level"] == pytest.approx(3.0 * (1.0 - s2))

    def test_validation(self):
        m = RandomModel("percolation", 0, p=0.5)
        with pytest.raises(ValidationError):
            predicted_intensity(m, -1.0, [0.0], 1.0)
        with pytest.raises(ValidationError):
            predicted_intensity(m, 1.0, [0.0], 0.0)


class TestMonteCarlo:
    def test_needs_two_trials(self, z4000):
        m = RandomModel("percolation", 0, p=0.5)
        with pytest.raises(ValidationError, match="trials"):
            monte_carlo_intensity(z4000, m, Box([0.0], [4000.0]), [1.0], 1, 0)

    def test_percolation_mean_near_prediction(self, z4000):
        m = RandomModel("percolation", 0, p=0.5)
        stats = monte_carlo_intensity(z4000, m, Box([0.0], [4000.0]), [1.0], 12, 77)
        assert stats.predicted == pytest.approx(0.25)
        assert abs(stats.mean_intensity - stats.predicted) < 4 * stats.stderr
        assert stats.trials == 12

    def test_deterministic(self, z4000):
        m = RandomModel("percolation", 0, p=0.5)
        a = monte_carlo_intensity(z4000, m, Box([0.0], [4000.0]), [1.0], 5, 31)
        b = monte_carlo_intensity(z4000, m, Box([0.0], [4000.0]), [1.0], 5, 31)
        assert a == b
