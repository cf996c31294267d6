"""Densities, distances, and mixing diagnostics against independent oracles."""

import csv
import math

import numpy as np
import pytest
from scipy import ndimage, stats

from langirl.analysis import (
    Ecdf,
    EmpiricalDensity,
    GridSpec,
    autocorr_time,
    build_density,
    density_to_csv,
    find_modes,
    local_max,
    log_density,
    marginal,
    variational_distance,
    wasserstein1,
)
from langirl.core import ConfigError, RngStream


class TestGridSpec:
    def test_edges_and_centers(self):
        grid = GridSpec(((-2.0, 2.0, 4),))
        np.testing.assert_allclose(grid.edges(0), [-2, -1, 0, 1, 2])
        np.testing.assert_allclose(grid.centers(0), [-1.5, -0.5, 0.5, 1.5])

    def test_cell_volume(self):
        grid = GridSpec(((0.0, 1.0, 10), (0.0, 2.0, 4)))
        assert abs(grid.cell_volume() - 0.1 * 0.5) < 1e-15

    def test_validation(self):
        with pytest.raises(ConfigError):
            GridSpec(((1.0, 1.0, 5),))
        with pytest.raises(ConfigError):
            GridSpec(((0.0, 1.0, 0),))
        with pytest.raises(ConfigError):
            GridSpec(((0.0, math.inf, 5),))


class TestBuildDensity:
    def test_mass_and_out_of_range_sum_to_one(self):
        rng = RngStream(31)
        samples = rng.standard_normal((5000, 2)) * 2.0
        dens = build_density(samples, GridSpec(((-1, 1, 8), (-1, 1, 8))))
        assert abs(dens.mass.sum() + dens.out_of_range_fraction - 1.0) < 1e-12
        assert dens.out_of_range_fraction > 0.3
        assert dens.sample_count == 5000

    def test_counts_match_histogramdd_exactly(self):
        rng = RngStream(32)
        samples = rng.uniform(-1, 1, size=(777, 1))
        grid = GridSpec(((-1.0, 1.0, 13),))
        dens = build_density(samples, grid)
        counts, _ = np.histogramdd(samples, bins=[grid.edges(0)])
        np.testing.assert_array_equal(dens.mass, counts / 777.0)

    def test_one_dim_vector_accepted(self):
        dens = build_density(np.linspace(0, 1, 11), GridSpec(((0.0, 1.0, 2),)))
        assert dens.mass.shape == (2,)

    def test_empty_and_mismatched_samples_rejected(self):
        grid = GridSpec(((0.0, 1.0, 2),))
        with pytest.raises(ConfigError):
            build_density(np.empty((0, 1)), grid)
        with pytest.raises(ConfigError):
            build_density(np.zeros((5, 3)), grid)

    def test_all_samples_off_grid_warns(self):
        with pytest.warns(RuntimeWarning):
            build_density(np.full(10, 7.0), GridSpec(((0.0, 1.0, 2),)))


def test_marginal_equals_direct_histogram():
    rng = RngStream(33)
    samples = rng.standard_normal((4000, 2))
    grid = GridSpec(((-3.0, 3.0, 12), (-3.0, 3.0, 9)))
    joint = build_density(samples, grid)
    for axis in (0, 1):
        marg = marginal(joint, axis)
        inside = samples[
            (samples[:, 0] >= -3) & (samples[:, 0] <= 3)
            & (samples[:, 1] >= -3) & (samples[:, 1] <= 3)
        ]
        counts, _ = np.histogram(inside[:, axis], bins=grid.edges(axis))
        np.testing.assert_allclose(marg.mass, counts / 4000, atol=1e-12)
        assert marg.grid.axes == (grid.axes[axis],)


def test_log_density_masks_empty_cells():
    dens = build_density(np.array([0.1, 0.1, 0.9]), GridSpec(((0.0, 1.0, 2),)))
    logged = log_density(dens)
    assert np.isnan(logged).sum() == 0
    dens = build_density(np.array([0.1, 0.1]), GridSpec(((0.0, 1.0, 2),)))
    logged = log_density(dens)
    assert math.isnan(logged[1]) and abs(logged[0]) < 1e-12
    with pytest.raises(ConfigError):
        log_density(dens, zero_policy="floor")


class TestWasserstein:
    """wasserstein1 must agree with the scipy implementation to round-off."""

    def test_against_scipy_on_random_samples(self):
        rng = RngStream(41)
        for _ in range(20):
            a = rng.standard_normal(rng.integers(5, 400))
            b = rng.standard_normal(rng.integers(5, 400)) * 1.7 + 0.3
            ours = wasserstein1(a, b)
            ref = stats.wasserstein_distance(a, b)
            assert abs(ours - ref) < 1e-10

    def test_point_masses(self):
        assert abs(wasserstein1([0.0], [3.0]) - 3.0) < 1e-15

    def test_identical_samples_give_zero(self):
        x = RngStream(42).standard_normal(100)
        assert wasserstein1(x, x) == 0.0

    def test_accepts_prebuilt_ecdfs(self):
        x = RngStream(43).standard_normal(50)
        y = x + 1.0
        assert abs(wasserstein1(Ecdf(x), Ecdf(y)) - 1.0) < 1e-12


def test_ecdf_evaluate():
    e = Ecdf([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(e.evaluate([0.5, 1.0, 2.5, 9.0]), [0.0, 0.25, 0.5, 1.0])
    with pytest.raises(ConfigError):
        Ecdf([])
    with pytest.raises(ConfigError):
        Ecdf([np.nan])


class TestVariationalDistance:
    def test_brute_force_agreement(self):
        rng = RngStream(44)
        grid = GridSpec(((-2.0, 2.0, 16),))
        a = build_density(rng.standard_normal(3000), grid)
        b = build_density(rng.standard_normal(3000) + 0.5, grid)
        brute = 0.5 * (
            np.abs(a.mass - b.mass).sum()
            + abs(a.out_of_range_fraction - b.out_of_range_fraction)
        )
        assert abs(variational_distance(a, b) - brute) < 1e-15

    def test_self_distance_is_zero(self):
        dens = build_density(RngStream(45).standard_normal(500), GridSpec(((-3, 3, 20),)))
        assert variational_distance(dens, dens) == 0.0

    def test_disjoint_supports_reach_one(self):
        grid = GridSpec(((0.0, 2.0, 2),))
        a = build_density(np.full(50, 0.5), grid)
        b = build_density(np.full(50, 1.5), grid)
        assert abs(variational_distance(a, b) - 1.0) < 1e-15

    def test_grid_mismatch_rejected(self):
        a = build_density(np.zeros(5) + 0.5, GridSpec(((0.0, 1.0, 2),)))
        b = build_density(np.zeros(5) + 0.5, GridSpec(((0.0, 1.0, 4),)))
        with pytest.raises(ConfigError):
            variational_distance(a, b)


class TestAutocorrTime:
    def test_ar1_matches_theory(self):
        """AR(1) with coefficient rho has integrated time (1 + rho) / (1 - rho)."""
        rho = 0.9
        rng = RngStream(46)
        noise = rng.standard_normal(400_000)
        x = np.empty_like(noise)
        x[0] = noise[0]
        for i in range(1, len(noise)):
            x[i] = rho * x[i - 1] + noise[i]
        tau = autocorr_time(x)
        expected = (1 + rho) / (1 - rho)
        assert abs(tau - expected) / expected < 0.08

    def test_white_noise_is_near_one(self):
        tau = autocorr_time(RngStream(47).standard_normal(100_000))
        assert tau < 1.5

    def test_short_and_constant_series_rejected(self):
        with pytest.raises(ConfigError):
            autocorr_time(np.zeros(10))
        with pytest.raises(ConfigError):
            autocorr_time(np.ones(5000))

    def test_thin_by_autocorr_stride(self):
        # Block-repeated white noise has integrated time exactly 10, so a
        # thinning stride of ceil(tau) should land near that.
        x = np.repeat(RngStream(48).standard_normal(2000), 10)
        assert 8 <= math.ceil(autocorr_time(x)) <= 40


class TestFindModes:
    def build(self, mass):
        mass = np.asarray(mass, dtype=np.float64)
        grid = GridSpec(((0.0, float(mass.shape[0]), mass.shape[0]),
                         (0.0, float(mass.shape[1]), mass.shape[1])))
        return EmpiricalDensity(grid, mass / mass.sum(), 0.0, int(mass.sum()))

    def test_two_constructed_peaks_found_in_mass_order(self):
        mass = np.zeros((20, 20))
        mass[4, 5] = 100.0
        mass[15, 14] = 80.0
        mass[4, 6] = 50.0  # shoulder of the first peak, not a mode
        modes = find_modes(self.build(mass), neighborhood=2)
        assert [m[0] for m in modes] == [(4, 5), (15, 14)]
        np.testing.assert_allclose(modes[0][1], [4.5, 5.5])

    def test_small_bumps_fall_below_the_mass_threshold(self):
        mass = np.zeros((20, 20))
        mass[4, 5] = 100.0
        mass[15, 14] = 10.0
        modes = find_modes(self.build(mass), neighborhood=2, min_rel_mass=0.25)
        assert len(modes) == 1

    def test_nearby_peaks_merge_under_a_wider_window(self):
        mass = np.zeros((20, 20))
        mass[8, 8] = 100.0
        mass[8, 12] = 90.0
        assert len(find_modes(self.build(mass), neighborhood=2)) == 2
        assert len(find_modes(self.build(mass), neighborhood=4)) == 1

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_local_max_matches_ndimage_maximum_filter(self, dim):
        rng = RngStream(50 + dim)
        for trial in range(20):
            shape = tuple(int(n) for n in rng.integers(1, 12, size=dim))
            # Small integer masses make ties between neighbouring cells common.
            mass = rng.integers(0, 4, size=shape) / 4.0 if trial % 2 else rng.uniform(size=shape)
            for radius in (1, 2, 3):
                want = ndimage.maximum_filter(mass, size=2 * radius + 1, mode="constant", cval=-1.0)
                np.testing.assert_array_equal(local_max(mass, radius), want)


def test_density_csv_lists_every_cell(tmp_path):
    dens = build_density(RngStream(49).standard_normal((200, 2)), GridSpec(((-2, 2, 5), (-2, 2, 4))))
    path = tmp_path / "density.csv"
    density_to_csv(dens, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["cell_1", "cell_2", "center_1", "center_2", "mass", "log_mass"]
    assert rows[1][0] == "out_of_range"
    assert len(rows) == 2 + 5 * 4
    # Mass column survives the text round trip exactly.
    total = sum(float(r[4]) for r in rows[1:])
    assert abs(total - 1.0) < 1e-12
