"""Sparse-format parsing and the penalized logistic gradient."""

import importlib.resources
import io
import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from langirl.core import ConfigError, RngStream
from langirl.problems.logistic import (
    LogisticModel,
    make_pool_oracle,
    make_stream_oracle,
    parse_libsvm,
    reward_grad,
    top_frequency_subset,
)


def log_reward(model, theta, row):
    """Scalar objective whose gradient reward_grad claims to be (smooth part
    checked by finite differences; the prior term is handled separately)."""
    psi = model.features[row % model.num_rows]
    y = model.labels[row % model.num_rows]
    margin = float(theta @ psi)
    loglike = y * margin - math.log1p(math.exp(margin)) if margin < 30 else y * margin - margin
    return model.likelihood_weight * loglike - float(np.abs(theta).sum())


def numeric_grad(f, theta, h=1e-6):
    theta = np.asarray(theta, dtype=np.float64)
    out = np.empty_like(theta)
    for i in range(theta.size):
        lo, hi = theta.copy(), theta.copy()
        lo[i] -= h
        hi[i] += h
        out[i] = (f(hi) - f(lo)) / (2 * h)
    return out


class TestParsing:
    def test_single_line(self):
        feats, labels = parse_libsvm(io.StringIO("+1 3:1 7:0.5\n"))
        np.testing.assert_array_equal(labels, [1.0])
        assert feats.shape == (1, 8)
        assert feats[0, 0] == 1.0
        assert feats[0, 3] == 1.0
        assert feats[0, 7] == 0.5
        assert feats[0, [1, 2, 4, 5, 6]].sum() == 0.0

    def test_declared_width_pads_columns(self):
        feats, _ = parse_libsvm(io.StringIO("-1 2:1\n"), num_features=10)
        assert feats.shape == (1, 11)

    def test_negative_label_maps_to_zero(self):
        _, labels = parse_libsvm(io.StringIO("-1 1:1\n+1 1:1\n"))
        np.testing.assert_array_equal(labels, [0.0, 1.0])

    def test_comments_and_blank_lines_skipped(self):
        feats, labels = parse_libsvm(io.StringIO("# header\n\n+1 1:2\n"))
        assert feats.shape == (1, 2)

    def test_bad_label_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_libsvm(io.StringIO("+1 1:1\n5 1:1\n"))

    def test_malformed_token_names_line(self):
        with pytest.raises(ConfigError, match="line 1.*'3:'"):
            parse_libsvm(io.StringIO("+1 3:\n"))

    def test_index_out_of_declared_range(self):
        with pytest.raises(ConfigError, match="line 1.*exceeds"):
            parse_libsvm(io.StringIO("+1 7:1\n"), num_features=5)

    def test_zero_index_rejected(self):
        with pytest.raises(ConfigError, match="out of range"):
            parse_libsvm(io.StringIO("+1 0:1\n"))

    def test_non_increasing_indices_rejected(self):
        with pytest.raises(ConfigError, match="increasing"):
            parse_libsvm(io.StringIO("+1 3:1 3:2\n"))

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError, match="no data"):
            parse_libsvm(io.StringIO(""))

    def test_bundled_corpus_parses(self):
        path = importlib.resources.files("langirl") / "data" / "synthetic_sparse.libsvm"
        feats, labels = parse_libsvm(str(path))
        assert feats.shape == (2000, 21)
        assert set(np.unique(labels)) == {0.0, 1.0}
        assert labels.mean() == pytest.approx(0.607, abs=0.001)
        # Nonzero non-bias entries are all ones, like the common binarized sets.
        body = feats[:, 1:]
        assert set(np.unique(body[body != 0])) == {1.0}


class TestGradient:
    def model(self):
        feats = np.array([[1.0, 0.5, -1.0], [1.0, 0.0, 2.0], [1.0, 3.0, 0.3]])
        labels = np.array([1.0, 0.0, 1.0])
        return LogisticModel(features=feats, labels=labels, likelihood_weight=7.0)

    def test_matches_finite_differences_away_from_kinks(self):
        model = self.model()
        rng = RngStream(31)
        for _ in range(30):
            theta = rng.standard_normal(3)
            theta[np.abs(theta) < 0.05] = 0.1  # keep clear of the prior's kink
            row = int(rng.integers(0, 3))
            got = reward_grad(model, theta, row)
            want = numeric_grad(lambda t: log_reward(model, t, row), theta)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)

    def test_zero_point_uses_sign_zero(self):
        model = self.model()
        got = reward_grad(model, np.zeros(3), 0)
        np.testing.assert_allclose(got, 7.0 * (1.0 - 0.5) * model.features[0], rtol=1e-12)

    def test_saturated_positive_margin_kills_likelihood_term(self):
        model = self.model()
        theta = np.array([50.0, 50.0, 0.0])  # margin 75 on row 0, label 1
        got = reward_grad(model, theta, 0)
        np.testing.assert_allclose(got, -np.sign(theta), atol=1e-20)

    def test_sigmoid_is_scipy_expit_within_an_ulp_and_never_warns(self):
        # Label 0 and theta (0, m) against features (1, 1): the first gradient entry is exactly -sigmoid(m).
        model = LogisticModel(features=np.ones((1, 2)), labels=np.zeros(1), likelihood_weight=1.0)
        edges = [-800.0, -745.0, -709.8, -1e-300, 0.0, 1e-300, 709.8, 745.0, 800.0]
        margins = np.concatenate([40.0 * RngStream(33).standard_normal(20_000), edges])
        thetas = np.stack([np.zeros_like(margins), margins], axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = -reward_grad(model, thetas, 0)[:, 0]
            one = [-reward_grad(model, theta, 0)[0] for theta in thetas[-len(edges):]]
        assert np.abs(batch - expit(margins)).max() <= 2.3e-16
        assert one == batch[-len(edges):].tolist()

    # Past +-709.8 exp(-margin) overflows or 1 + exp(-margin) rounds to 1; past 37 the sigmoid rounds to 1.
    @pytest.mark.parametrize("margin", [-800.0, -710.0, -709.0, -37.0, -1e-300, 0.0, 1e-300, 37.0, 710.0, 800.0])
    def test_label_one_residual_is_expit_of_the_negated_margin(self, margin):
        # Label 1 and theta (0, m) against features (1, 1): the first gradient entry is 1 - sigmoid(m).
        model = LogisticModel(features=np.ones((1, 2)), labels=np.ones(1), likelihood_weight=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = reward_grad(model, np.array([0.0, margin]), 0)[0]
        assert 0.0 <= got <= 1.0
        assert abs(got - expit(-margin)) <= 2.3e-16

    def test_row_wraps_around(self):
        model = self.model()
        theta = np.array([0.3, -0.2, 0.4])
        np.testing.assert_array_equal(reward_grad(model, theta, 5), reward_grad(model, theta, 2))

    def test_batched_points(self):
        model = self.model()
        thetas = RngStream(32).standard_normal((4, 3))
        batch = reward_grad(model, thetas, 1)
        for row, theta in zip(batch, thetas):
            np.testing.assert_allclose(row, reward_grad(model, theta, 1), rtol=1e-14)

    def test_stream_oracle_advances_rows(self):
        model = self.model()
        oracle = make_stream_oracle(model)
        theta = np.array([0.1, 0.2, 0.3])
        for k in range(5):
            np.testing.assert_array_equal(oracle(theta), reward_grad(model, theta, k))

    def test_pool_oracle_shares_row_within_pool(self):
        model = self.model()
        pool_oracle = make_pool_oracle(model)
        points = RngStream(33).standard_normal((6, 3))
        first = pool_oracle(points)
        np.testing.assert_array_equal(first, reward_grad(model, points, 0))
        second = pool_oracle(points)
        np.testing.assert_array_equal(second, reward_grad(model, points, 1))


    def test_stream_oracle_block_equals_row_calls(self):
        """A (n, dim) block takes n data rows and gives the bits of n single-point calls."""
        rng = RngStream(34)
        feats = rng.standard_normal((7, 11))
        feats[:, 0] = 1.0
        model = LogisticModel(feats, (rng.uniform(size=7) < 0.5).astype(float), likelihood_weight=10.0)
        points = rng.standard_normal((17, 11))
        block_oracle, row_oracle = make_stream_oracle(model), make_stream_oracle(model)
        block = block_oracle(points)
        rows = np.stack([row_oracle(p) for p in points])
        ref = np.stack([reward_grad(model, p, k) for k, p in enumerate(points)])
        assert block.shape == points.shape
        assert block.tobytes() == rows.tobytes() == ref.tobytes()
        # Both oracles now stand at data row 17 (= 3 after wrapping).
        assert block_oracle(points[0]).tobytes() == row_oracle(points[0]).tobytes()
        np.testing.assert_array_equal(block_oracle(points[0]), reward_grad(model, points[0], 18))


class TestModelAndSubset:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LogisticModel(features=np.zeros((2, 3)), labels=np.zeros(3))
        with pytest.raises(ConfigError):
            LogisticModel(features=np.zeros((2, 3)), labels=np.array([0.0, 2.0]))
        with pytest.raises(ConfigError):
            LogisticModel(features=np.zeros((0, 3)), labels=np.zeros(0))

    def test_top_frequency_subset_keeps_busiest_columns(self):
        feats = np.zeros((10, 5))
        feats[:, 0] = 1.0
        feats[:9, 1] = 1.0   # 9 nonzeros
        feats[:2, 2] = 1.0   # 2
        feats[:6, 3] = 1.0   # 6
        feats[:4, 4] = 1.0   # 4
        labels = np.arange(10) % 2.0
        sub, sub_labels = top_frequency_subset(feats, labels, num_rows=10, num_features=2, rng=RngStream(1))
        assert sub.shape == (10, 3)
        # Busiest two non-bias columns are 1 and 3, kept in column order.
        np.testing.assert_array_equal(sub[:, 1], feats[:, 1])
        np.testing.assert_array_equal(sub[:, 2], feats[:, 3])

    def test_subset_row_sampling_without_replacement(self):
        feats = np.ones((8, 3))
        feats[:, 1] = np.arange(8)
        labels = np.zeros(8)
        sub, _ = top_frequency_subset(feats, labels, num_rows=5, num_features=2, rng=RngStream(2))
        picked = sub[:, 1]
        assert len(np.unique(picked)) == 5

    def test_subset_bounds_checked(self):
        feats = np.ones((4, 3))
        labels = np.zeros(4)
        with pytest.raises(ConfigError, match="4 available"):
            top_frequency_subset(feats, labels, num_rows=9, num_features=1, rng=RngStream(0))
        with pytest.raises(ConfigError):
            top_frequency_subset(feats, labels, num_rows=2, num_features=4, rng=RngStream(0))
