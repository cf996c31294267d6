"""Regime-switching reward plumbing: generator checks, occupation, averaging."""

import numpy as np
import pytest

from langirl.core import ConfigError, RngStream
from langirl.problems.switching import (
    SwitchingReward,
    averaged_oracle,
    stationary_distribution,
    switching_step,
)


def two_regime(rate_up=1.0, rate_down=1.0, state=0):
    Q = np.array([[-rate_up, rate_up], [rate_down, -rate_down]])
    return SwitchingReward(
        oracles=(lambda p: -(p - 1.0), lambda p: -(p + 1.0)),
        generator=Q,
        rng_state=state,
    )


def reference_switching_step(reward, rate, rng):
    """The NumPy form of one hyper-state step: identity row, cumsum, searchsorted."""
    row = np.eye(reward.num_states)[reward.state] + rate * reward.generator[reward.state]
    if np.any(row < 0):
        raise ConfigError(f"rate {rate} makes I + rate * Q leave the probability simplex")
    cdf = np.cumsum(row)
    draw = float(rng.uniform())
    state = int(np.searchsorted(cdf, draw, side="right"))
    reward.state = min(state, reward.num_states - 1)
    return reward.state


def random_generator(rng, k):
    """A k-state generator with some zero rates, some states possibly absorbing."""
    Q = rng.uniform(0.0, 3.0, size=(k, k)) * (rng.uniform(size=(k, k)) < 0.7)
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def null_space_stationary(Q):
    """Eigen-decomposition cross-check for nu Q = 0."""
    vals, vecs = np.linalg.eig(np.asarray(Q, dtype=np.float64).T)
    k = int(np.argmin(np.abs(vals)))
    v = np.real(vecs[:, k])
    return v / v.sum()


class TestGeneratorValidation:
    def test_rows_must_sum_to_zero(self):
        with pytest.raises(ConfigError, match="sum to zero"):
            SwitchingReward((lambda p: p, lambda p: p), np.array([[-1.0, 0.5], [1.0, -1.0]]))

    def test_off_diagonal_nonnegative(self):
        with pytest.raises(ConfigError, match="non-negative"):
            SwitchingReward((lambda p: p, lambda p: p), np.array([[1.0, -1.0], [1.0, -1.0]]))

    def test_square_and_size(self):
        with pytest.raises(ConfigError):
            SwitchingReward((lambda p: p,), np.array([[0.0]]))

    def test_oracle_count_must_match(self):
        Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ConfigError, match="one oracle per"):
            SwitchingReward((lambda p: p,), Q)

    def test_initial_state_bounds(self):
        Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ConfigError):
            SwitchingReward((lambda p: p, lambda p: p), Q, rng_state=2)


class TestSwitchingStep:
    def test_zero_rate_freezes_the_state(self):
        reward = two_regime()
        rng = RngStream(1)
        for _ in range(50):
            assert switching_step(reward, 0.0, rng) == 0

    def test_occupation_matches_stationary_law(self):
        reward = two_regime(rate_up=1.0, rate_down=3.0)
        rng = RngStream(2)
        visits = np.zeros(2)
        for _ in range(200_000):
            visits[switching_step(reward, 0.01, rng)] += 1
        occ = visits / visits.sum()
        np.testing.assert_allclose(occ, [0.75, 0.25], atol=0.02)

    def test_three_state_occupation(self):
        Q = np.array([
            [-2.0, 1.0, 1.0],
            [1.0, -1.0, 0.0],
            [2.0, 0.0, -2.0],
        ])
        nu = stationary_distribution(Q)
        reward = SwitchingReward((lambda p: p,) * 3, Q)
        rng = RngStream(3)
        visits = np.zeros(3)
        for _ in range(300_000):
            visits[switching_step(reward, 0.02, rng)] += 1
        np.testing.assert_allclose(visits / visits.sum(), nu, atol=0.02)

    def test_matches_reference_step(self):
        """Same states and the same next draw as the NumPy form, over random generators."""
        gen_rng = RngStream(70)
        for trial in range(60):
            k = 2 + int(gen_rng.integers(0, 4))
            Q = random_generator(gen_rng, k)
            top = float(np.max(-np.diag(Q)))
            edge = 1.0 / top if top > 0 else 1.0
            # Up to the largest simplex rate; the last trials sit on its edge.
            rate = edge if trial >= 50 else float(gen_rng.uniform(0.0, edge))
            start = int(gen_rng.integers(0, k))
            got = SwitchingReward((lambda p: p,) * k, Q, rng_state=start)
            ref = SwitchingReward((lambda p: p,) * k, Q, rng_state=start)
            got_rng, ref_rng = RngStream(100 + trial), RngStream(100 + trial)
            for _ in range(300):
                assert switching_step(got, rate, got_rng) == reference_switching_step(ref, rate, ref_rng)
            assert got_rng.uniform() == ref_rng.uniform()
            if top > 0:
                got.state = ref.state = int(np.argmax(-np.diag(Q)))
                with pytest.raises(ConfigError, match="simplex") as got_err:
                    switching_step(got, 2.0 * edge, got_rng)
                with pytest.raises(ConfigError, match="simplex") as ref_err:
                    reference_switching_step(ref, 2.0 * edge, ref_rng)
                assert str(got_err.value) == str(ref_err.value)

    def test_draw_equal_to_a_running_sum_matches_reference(self):
        class Draws:
            def __init__(self, values):
                self.values = list(values)

            def uniform(self):
                return self.values.pop(0)

        # From state 0 at rate 0.25 the row is [0.5, 0.25, 0.25], running sums 0.5, 0.75, 1.0.
        Q = np.array([[-2.0, 1.0, 1.0], [1.0, -1.0, 0.0], [2.0, 0.0, -2.0]])
        for draw in (0.0, 0.5, 0.75, np.nextafter(0.75, 0.0), np.nextafter(1.0, 0.0)):
            got = SwitchingReward((lambda p: p,) * 3, Q)
            ref = SwitchingReward((lambda p: p,) * 3, Q)
            assert switching_step(got, 0.25, Draws([draw])) == reference_switching_step(
                ref, 0.25, Draws([draw])
            )

    def test_rate_leaving_simplex_rejected(self):
        reward = two_regime(rate_up=4.0)
        with pytest.raises(ConfigError, match="simplex"):
            switching_step(reward, 0.3, RngStream(0))

    def test_gradient_routes_to_active_regime(self):
        reward = two_regime()
        point = np.array([0.5])
        np.testing.assert_allclose(reward.gradient(point), [0.5])
        reward.state = 1
        np.testing.assert_allclose(reward.gradient(point), [-1.5])


class TestStationaryDistribution:
    def test_matches_eigen_solver(self):
        rng = RngStream(4)
        for _ in range(20):
            k = 2 + int(rng.integers(0, 3))
            off = rng.uniform(0.1, 2.0, size=(k, k))
            Q = off.copy()
            np.fill_diagonal(Q, 0.0)
            np.fill_diagonal(Q, -Q.sum(axis=1))
            nu = stationary_distribution(Q)
            np.testing.assert_allclose(nu, null_space_stationary(Q), atol=1e-10)
            assert nu.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(nu @ Q, np.zeros(k), atol=1e-12)

    def test_symmetric_two_state_is_half_half(self):
        Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(stationary_distribution(Q), [0.5, 0.5], atol=1e-13)

    def test_reducible_generator_rejected(self):
        Q = np.array([
            [-1.0, 1.0, 0.0],
            [1.0, -1.0, 0.0],
            [0.0, 0.0, 0.0],
        ])
        with pytest.raises(ConfigError, match="irreducible"):
            stationary_distribution(Q)


class TestAveragedOracle:
    def test_symmetric_average_of_shifted_quadratics(self):
        reward = two_regime()
        oracle = averaged_oracle(reward)
        # Half of -(p - 1) plus half of -(p + 1) is -p.
        np.testing.assert_allclose(oracle(np.array([0.3])), [-0.3], atol=1e-13)

    def test_explicit_weights(self):
        reward = two_regime()
        oracle = averaged_oracle(reward, weights=(0.25, 0.75))
        got = oracle(np.array([0.0]))
        np.testing.assert_allclose(got, [0.25 * 1.0 + 0.75 * (-1.0)], atol=1e-13)

    def test_weight_validation(self):
        reward = two_regime()
        with pytest.raises(ConfigError):
            averaged_oracle(reward, weights=(0.7, 0.7))
        with pytest.raises(ConfigError):
            averaged_oracle(reward, weights=(1.0,))
