"""Mixture problem: gradients against finite differences, moments, swap symmetry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langirl.core import ConfigError, RngStream
from langirl.irl import CLASSICAL, SamplerConfig, run_sampler
from langirl.problems.mixture import (
    MixtureModel,
    expected_reward,
    likelihood_grad,
    make_pool_oracle,
    make_stream_oracle,
    prior_grad,
    reward_grad,
    sample_observation,
)
from strategies import EDGE_FLOATS


def log_obs_density(model, theta, y):
    """Independent scalar form of the per-observation log density."""
    v = model.component_var
    means = (theta[0], theta[0] + theta[1])
    dens = 0.5 * sum(
        math.exp(-0.5 * (y - m) ** 2 / v) / math.sqrt(2 * math.pi * v) for m in means
    )
    return math.log(dens)


def numeric_grad(f, theta, h=1e-6):
    theta = np.asarray(theta, dtype=np.float64)
    out = np.empty_like(theta)
    for i in range(theta.size):
        lo, hi = theta.copy(), theta.copy()
        lo[i] -= h
        hi[i] += h
        out[i] = (f(hi) - f(lo)) / (2 * h)
    return out


MODEL = MixtureModel(true_param=np.array([0.0, 1.0]))


class TestGradients:
    def test_likelihood_grad_matches_finite_differences(self):
        rng = RngStream(21)
        for _ in range(40):
            theta = rng.standard_normal(2) * 1.5
            y = float(rng.standard_normal() * 2.0)
            got = likelihood_grad(MODEL, theta, y)
            want = numeric_grad(lambda t: log_obs_density(MODEL, t, y), theta)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)

    def test_reward_grad_matches_finite_differences(self):
        rng = RngStream(22)
        pv = np.asarray(MODEL.prior_variances)

        def log_reward(t, y):
            prior = -0.5 * float(np.sum(t * t / pv))
            return prior + MODEL.likelihood_weight * log_obs_density(MODEL, t, y)

        for _ in range(40):
            theta = rng.standard_normal(2) * 1.5
            y = float(rng.standard_normal() * 2.0)
            got = reward_grad(MODEL, theta, y)
            want = numeric_grad(lambda t: log_reward(t, y), theta)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_prior_grad_closed_form(self):
        np.testing.assert_allclose(prior_grad(MODEL, np.array([2.0, 3.0])), [-0.2, -1.5])

    def test_batched_rows_agree_with_scalar_calls(self):
        rng = RngStream(23)
        thetas = rng.standard_normal((6, 2))
        y = 0.7
        batch = likelihood_grad(MODEL, thetas, y)
        assert batch.shape == (6, 2)
        for row, theta in zip(batch, thetas):
            np.testing.assert_allclose(row, likelihood_grad(MODEL, theta, y), rtol=1e-14)

    def test_symmetric_observation_splits_responsibility_evenly(self):
        # At theta = (0, 1) the observation y = 0.5 sits midway between the
        # component means, so the second coordinate's gradient carries
        # responsibility exactly one half.
        grad = likelihood_grad(MODEL, np.array([0.0, 1.0]), 0.5)
        np.testing.assert_allclose(grad[1], 0.5 * (-0.5) / 2.0, rtol=1e-12)

    def test_far_observation_does_not_overflow(self):
        grad = likelihood_grad(MODEL, np.array([0.0, 1.0]), 1e4)
        assert np.isfinite(grad).all()


class TestSwapSymmetry:
    def test_swap_image_gives_same_expected_reward_up_to_prior(self):
        # Swapping the component labels maps (a, b) to (a + b, -b) and leaves
        # the observation law untouched; only the prior breaks the tie.
        rng = RngStream(24)
        for _ in range(10):
            theta = rng.standard_normal(2)
            swap = np.array([theta[0] + theta[1], -theta[1]])
            y = float(rng.standard_normal())
            pv = np.asarray(MODEL.prior_variances)
            like = log_obs_density(MODEL, theta, y)
            like_swap = log_obs_density(MODEL, swap, y)
            assert like == pytest.approx(like_swap, rel=1e-12)

    def test_expected_reward_has_maxima_near_truth_and_swap(self):
        # The prior nudges the maxima slightly off the noiseless ideal points
        # (0, 1) and (1, -1); these centers come from a grid search.
        truth_mode = np.array([0.033, 0.934])
        swap_mode = np.array([0.962, -0.926])
        deltas = [np.array(d) for d in
                  ((0.3, 0.0), (-0.3, 0.0), (0.0, 0.3), (0.0, -0.3), (0.25, 0.25), (-0.25, -0.25))]
        for center in (truth_mode, swap_mode):
            base = expected_reward(MODEL, center)
            for d in deltas:
                assert expected_reward(MODEL, center + d) < base
        # Two comparable maxima: only the prior separates their heights.
        assert abs(expected_reward(MODEL, truth_mode) - expected_reward(MODEL, swap_mode)) < 0.5


class TestSampling:
    def test_observation_moments(self):
        rng = RngStream(25)
        ys = np.array([sample_observation(MODEL, rng) for _ in range(200_000)])
        # Mixture of N(0, 2) and N(1, 2) with equal weights.
        assert ys.mean() == pytest.approx(0.5, abs=0.02)
        assert ys.var() == pytest.approx(2.0 + 0.25, abs=0.05)

    def test_observation_at_explicit_theta(self):
        rng = RngStream(26)
        ys = np.array([sample_observation(MODEL, rng, theta=(5.0, 0.0)) for _ in range(50_000)])
        assert ys.mean() == pytest.approx(5.0, abs=0.05)

    def test_seeded_determinism(self):
        a = [sample_observation(MODEL, RngStream(3)) for _ in range(5)]
        b = [sample_observation(MODEL, RngStream(3)) for _ in range(5)]
        assert a == b

    def test_stream_oracle_returns_reward_gradients(self):
        oracle = make_stream_oracle(MODEL, RngStream(5))
        replay = RngStream(5)
        y = sample_observation(MODEL, replay)
        got = oracle(np.array([0.2, 0.3]))
        assert got.tobytes() == reward_grad(MODEL, np.array([0.2, 0.3]), y).tobytes()

    @pytest.mark.parametrize("count", [100_000, 100_001])
    def test_stream_oracle_draws_what_sample_observation_draws(self, count):
        # The component pick comes off the bit generator's buffered 32-bit draw;
        # an odd count leaves half of a 64-bit draw in the buffer.
        rng, twin = RngStream(8), RngStream(8)
        points = np.zeros((count, 2))
        got = make_stream_oracle(MODEL, rng)(points)
        ys = np.array([sample_observation(MODEL, twin) for _ in range(count)])
        assert got.tobytes() == reward_grad(MODEL, points, ys).tobytes()
        assert rng.generator.bit_generator.state == twin.generator.bit_generator.state

    def test_pool_oracle_shares_one_observation_across_points(self):
        pool_oracle = make_pool_oracle(MODEL, RngStream(6))
        replay = RngStream(6)
        y = sample_observation(MODEL, replay)
        points = np.array([[0.0, 1.0], [1.0, -1.0], [0.5, 0.5]])
        got = pool_oracle(points)
        np.testing.assert_allclose(got, reward_grad(MODEL, points, y), rtol=1e-14)


    def test_stream_oracle_block_equals_row_calls(self):
        """A (n, 2) block gives the bits of n single-point calls and draws as they do."""
        model = MixtureModel(true_param=np.array([-1.0, 2.0]), likelihood_weight=100.0)
        points = 3.0 * RngStream(40).standard_normal((257, 2))
        block_rng, row_rng = RngStream(41), RngStream(41)
        block = make_stream_oracle(model, block_rng)(points)
        row_oracle = make_stream_oracle(model, row_rng)
        rows = np.stack([row_oracle(p) for p in points])
        assert block.shape == points.shape
        assert block.tobytes() == rows.tobytes()
        assert block_rng.uniform() == row_rng.uniform()


def reference_stream_oracle(model, rng):
    """The NumPy form the single-point oracle must reproduce bit for bit."""
    return lambda point: reward_grad(model, point, sample_observation(model, rng))


def next_observation(model, seed):
    """The observation a fresh oracle on `RngStream(seed)` draws first."""
    return sample_observation(model, RngStream(seed))


def oracle_and_reference(model, seed, theta):
    theta = np.asarray(theta, dtype=np.float64)
    got = make_stream_oracle(model, RngStream(seed))(theta)
    want = reference_stream_oracle(model, RngStream(seed))(theta)
    return got, want


class TestSinglePointOracle:
    """The plain-float single-point path returns the bits of `reward_grad`."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        theta=st.tuples(EDGE_FLOATS, EDGE_FLOATS),
        truth=st.tuples(*[st.floats(-1e6, 1e6)] * 2),
        component_var=st.floats(1e-3, 1e3),
        likelihood_weight=st.floats(1e-3, 1e3),
        prior_variances=st.tuples(*[st.floats(1e-3, 1e3)] * 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reward_grad_bit_for_bit(
        self, theta, truth, component_var, likelihood_weight, prior_variances, seed
    ):
        model = MixtureModel(true_param=np.array(truth), likelihood_weight=likelihood_weight,
                             prior_variances=prior_variances, component_var=component_var)
        with np.errstate(all="ignore"):
            got, want = oracle_and_reference(model, seed, theta)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tie_between_components(self, seed):
        # theta_2 = 0 puts both component means at theta_1, so l1 == l2.
        got, want = oracle_and_reference(MODEL, seed, [0.4, 0.0])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("second", [1.0, 0.0, -0.0])
    def test_zero_first_residual(self, second):
        y = next_observation(MODEL, 3)
        got, want = oracle_and_reference(MODEL, 3, [y, second])
        assert got.tobytes() == want.tobytes()

    def test_far_observation_underflows_one_exp(self):
        # r2 = r1 - 100, so l2 - l1 is about -2500 and exp(l2 - m) is 0: the
        # second coordinate keeps only its prior term.
        y = next_observation(MODEL, 4)
        theta = [y - 1.0, 100.0]
        got, want = oracle_and_reference(MODEL, 4, theta)
        assert got.tobytes() == want.tobytes()
        assert got[1] == -100.0 / MODEL.prior_variances[1]

    @pytest.mark.parametrize(
        "theta", [[math.nan, 0.0], [0.0, math.nan], [math.inf, 0.0], [0.0, -math.inf], [math.inf, -math.inf]]
    )
    def test_non_finite_theta_gives_non_finite_output(self, theta):
        with np.errstate(all="ignore"):
            got, want = oracle_and_reference(MODEL, 5, theta)
        assert not np.isfinite(got).all()
        assert not np.isfinite(want).all()

    def test_classical_chain_matches_reference_oracle(self):
        # 5,000 steps cross several finite-check blocks of the driver.
        model = MixtureModel(true_param=np.array([-1.0, 2.0]), likelihood_weight=100.0)
        cfg = SamplerConfig(step=5e-3, beta=1.0, init=np.array([0.5, 0.5]))
        got = run_sampler(CLASSICAL, make_stream_oracle(model, RngStream(8)), cfg, 5000, RngStream(9))
        want = run_sampler(CLASSICAL, reference_stream_oracle(model, RngStream(8)), cfg, 5000, RngStream(9))
        assert got.samples.tobytes() == want.samples.tobytes()
        assert got.fingerprint == want.fingerprint


class TestModelValidation:
    def test_bad_fields_rejected(self):
        with pytest.raises(ConfigError):
            MixtureModel(true_param=np.zeros(3))
        with pytest.raises(ConfigError):
            MixtureModel(true_param=np.zeros(2), prior_variances=(1.0, -1.0))
        with pytest.raises(ConfigError):
            MixtureModel(true_param=np.zeros(2), component_var=0.0)
        for weight in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="likelihood_weight must be positive and finite"):
                MixtureModel(true_param=np.zeros(2), likelihood_weight=weight)

    def test_component_means(self):
        m = MixtureModel(true_param=np.array([1.5, -2.0]))
        np.testing.assert_allclose(m.component_means, [1.5, -0.5])
