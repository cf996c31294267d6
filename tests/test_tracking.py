"""Tracking runs against switching rewards: rates, windows, dwell scoring."""

import math

import numpy as np
import pytest

from langirl.analysis import GridSpec
from langirl.core import ConfigError, NonFiniteError, RngStream
from langirl.forward import InitDensity
from langirl.irl import CLASSICAL, MULTIKERNEL, PASSIVE_GATED, PASSIVE_GENERALIZED, SamplerConfig
from langirl.kernels import GAUSSIAN, Kernel
from langirl.problems.switching import SwitchingReward
from langirl.tracking import (
    TrackingConfig,
    TrackingResult,
    WindowRecord,
    dwell_segments,
    mode_sign_accuracy,
    run_tracking,
    write_tracking_csv,
)


def two_mode_reward(center=1.0, state=0):
    Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    return SwitchingReward(
        oracles=(lambda p: -(p - center), lambda p: -(p + center)),
        generator=Q,
        rng_state=state,
    )


class TestTrackingConfig:
    def test_rate_arithmetic(self):
        step = 0.01
        assert TrackingConfig("matched").rate(step) == step
        assert TrackingConfig("slow_switch", exponent=0.8).rate(step) == pytest.approx(step**1.8)
        assert TrackingConfig("fast_switch", exponent=0.5).rate(step) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ConfigError, match="regime"):
            TrackingConfig("sometimes")
        with pytest.raises(ConfigError, match="no exponent"):
            TrackingConfig("matched", exponent=0.3)
        with pytest.raises(ConfigError):
            TrackingConfig("slow_switch", exponent=0.0)
        with pytest.raises(ConfigError):
            TrackingConfig("fast_switch", exponent=1.2)
        with pytest.raises(ConfigError):
            TrackingConfig("matched", window=0)


class TestDwellSegments:
    def test_hand_case(self):
        segs = dwell_segments(np.array([0, 0, 1, 1, 1, 0, 2]))
        assert segs == [(0, 2, 0), (2, 5, 1), (5, 6, 0), (6, 7, 2)]

    def test_single_state(self):
        assert dwell_segments(np.array([3, 3, 3])) == [(0, 3, 3)]

    def test_empty(self):
        assert dwell_segments(np.array([], dtype=int)) == []


class TestModeSignAccuracy:
    def make_result(self, hyper, means, window):
        windows = tuple(
            WindowRecord(
                index=i,
                start=i * window,
                stop=(i + 1) * window,
                occupancy=np.array([1.0, 0.0]),
                mean=np.array([m]),
                var=np.zeros(1),
            )
            for i, m in enumerate(means)
        )
        return TrackingResult(
            trajectory=None, hyper_states=np.asarray(hyper), windows=windows, rate=0.0
        )

    def test_hand_scoring(self):
        # Dwells: state 0 on [0, 6), state 1 on [6, 12); windows of 3.
        hyper = [0] * 6 + [1] * 6
        result = self.make_result(hyper, means=[+1.0, -1.0, -1.0, -1.0], window=3)
        acc, scored = mode_sign_accuracy(result, mode_signs=[+1, -1], min_dwell=6)
        assert scored == 4
        assert acc == pytest.approx(0.75)

    def test_short_dwells_are_skipped(self):
        hyper = [0] * 6 + [1] * 2 + [0] * 4
        result = self.make_result(hyper, means=[+1.0, +1.0, +1.0, +1.0], window=3)
        acc, scored = mode_sign_accuracy(result, mode_signs=[+1, -1], min_dwell=5)
        # Only the first dwell holds complete windows: [0,3) and [3,6).
        assert scored == 2
        assert acc == 1.0

    def test_no_qualifying_windows_gives_nan(self):
        result = self.make_result([0, 1] * 6, means=[+1.0] * 4, window=3)
        acc, scored = mode_sign_accuracy(result, mode_signs=[+1, -1], min_dwell=4)
        assert scored == 0
        assert math.isnan(acc)


class TestRunTracking:
    def classical_cfg(self, step=0.01):
        return SamplerConfig(step=step, beta=2.0, init=np.zeros(1))

    def test_window_bookkeeping(self):
        reward = two_mode_reward()
        result = run_tracking(
            CLASSICAL, reward, self.classical_cfg(),
            TrackingConfig("matched", window=50), 520, RngStream(8),
        )
        assert result.trajectory.samples.shape == (521, 1)
        assert len(result.hyper_states) == 520
        assert len(result.windows) == 10  # the 20-step tail is dropped
        for i, w in enumerate(result.windows):
            assert (w.start, w.stop) == (i * 50, (i + 1) * 50)
            assert w.occupancy.sum() == pytest.approx(1.0)
        assert result.rate == 0.01

    def test_occupancy_counts_hyper_states(self):
        reward = two_mode_reward()
        result = run_tracking(
            CLASSICAL, reward, self.classical_cfg(),
            TrackingConfig("matched", window=100), 1000, RngStream(9),
        )
        for w in result.windows:
            counts = np.bincount(result.hyper_states[w.start:w.stop], minlength=2)
            np.testing.assert_allclose(w.occupancy, counts / 100)

    def test_window_density_built_when_grid_given(self):
        reward = two_mode_reward()
        grid = GridSpec(((-3.0, 3.0, 12),))
        result = run_tracking(
            CLASSICAL, reward, self.classical_cfg(),
            TrackingConfig("matched", window=100), 200, RngStream(10), grid=grid,
        )
        for w in result.windows:
            assert w.density is not None
            assert w.density.mass.shape == (12,)

    def test_fast_switch_settles_near_averaged_law(self):
        # Symmetric +/- regimes average to a standard quadratic; with beta = 2
        # the mean of the settled chain is near zero even while regimes flip
        # every few steps.
        reward = two_mode_reward()
        result = run_tracking(
            CLASSICAL, reward, self.classical_cfg(step=0.01),
            TrackingConfig("fast_switch", exponent=0.5, window=1000), 40_000, RngStream(11),
        )
        # Both regimes really occur.
        occ = np.bincount(result.hyper_states, minlength=2) / len(result.hyper_states)
        assert occ.min() > 0.3
        settled = result.trajectory.samples[5000:, 0]
        assert abs(settled.mean()) < 0.15

    def test_slow_switch_dwells_are_long(self):
        reward = two_mode_reward()
        result = run_tracking(
            CLASSICAL, reward, self.classical_cfg(step=0.01),
            TrackingConfig("slow_switch", exponent=0.8, window=10), 5_000, RngStream(12),
        )
        segs = dwell_segments(result.hyper_states)
        # rate = 0.01**1.8 is about 4e-4, so five thousand steps rarely see
        # more than a few jumps.
        assert len(segs) <= 10

    def test_passive_variant_runs_and_restarts_agents(self):
        reward = two_mode_reward()
        cfg = SamplerConfig(
            step=0.005, beta=2.0, init=np.zeros(1),
            kernel=Kernel(GAUSSIAN, 0.5, 1), init_density=InitDensity.standard(1),
        )
        result = run_tracking(
            PASSIVE_GENERALIZED, reward, cfg,
            TrackingConfig("matched", window=100), 500, RngStream(13),
            forward_step=0.05, forward_run_length=20,
        )
        assert result.trajectory.samples.shape == (501, 1)
        assert np.isfinite(result.trajectory.samples).all()

    def test_multikernel_variant_draws_pools(self):
        reward = two_mode_reward()
        cfg = SamplerConfig(
            step=0.005, beta=2.0, init=np.zeros(1),
            init_density=InitDensity(mean=np.zeros(1), variances=np.array([4.0])),
            pool_size=10, conditional_std=0.5,
        )
        result = run_tracking(
            MULTIKERNEL, reward, cfg,
            TrackingConfig("matched", window=100), 300, RngStream(14),
        )
        assert result.trajectory.samples.shape == (301, 1)

    def test_passive_needs_forward_parameters(self):
        reward = two_mode_reward()
        cfg = SamplerConfig(
            step=0.005, beta=2.0, init=np.zeros(1),
            kernel=Kernel(GAUSSIAN, 0.5, 1), init_density=InitDensity.standard(1),
        )
        with pytest.raises(ConfigError, match="forward_step"):
            run_tracking(PASSIVE_GENERALIZED, reward, cfg,
                         TrackingConfig("matched"), 100, RngStream(0))

    def test_unsupported_variant_rejected(self):
        reward = two_mode_reward()
        with pytest.raises(ConfigError, match="not supported"):
            run_tracking("nonreversible", reward, self.classical_cfg(),
                         TrackingConfig("matched"), 100, RngStream(0))

    def test_multikernel_needs_init_density(self):
        reward = two_mode_reward()
        cfg = SamplerConfig(step=0.005, beta=2.0, init=np.zeros(1),
                            pool_size=4, conditional_std=0.5)
        with pytest.raises(ConfigError, match="init_density"):
            run_tracking(MULTIKERNEL, reward, cfg, TrackingConfig("matched"), 100, RngStream(0))

    def test_non_finite_gradient_names_the_step(self):
        blow_up = lambda p: np.full_like(p, math.inf)  # noqa: E731
        reward = SwitchingReward(
            oracles=(blow_up, blow_up), generator=np.array([[-1.0, 1.0], [1.0, -1.0]])
        )
        with pytest.raises(NonFiniteError, match="sampler step 1"):
            run_tracking(CLASSICAL, reward, self.classical_cfg(),
                         TrackingConfig("matched"), 100, RngStream(0))

    def test_gated_gain_ratio_warning(self):
        cfg = SamplerConfig(
            step=0.3, beta=2.0, init=np.zeros(1),
            kernel=Kernel(GAUSSIAN, 0.5, 1), init_density=InitDensity.standard(1),
        )
        assert cfg.gain_ratio == pytest.approx(0.6)
        with pytest.warns(RuntimeWarning, match="not small"):
            run_tracking(PASSIVE_GATED, two_mode_reward(), cfg,
                         TrackingConfig("matched", window=10), 20, RngStream(0),
                         forward_step=0.05, forward_run_length=5)

    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError):
            run_tracking(CLASSICAL, two_mode_reward(), self.classical_cfg(),
                         TrackingConfig("matched"), 0, RngStream(0))


class TestCsvOutput:
    def test_window_csv_layout(self, tmp_path):
        reward = two_mode_reward()
        result = run_tracking(
            CLASSICAL, reward,
            SamplerConfig(step=0.01, beta=2.0, init=np.zeros(1)),
            TrackingConfig("matched", window=50), 200, RngStream(15),
        )
        path = tmp_path / "windows.csv"
        write_tracking_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "window,hyper_state_mode,est_mean_1,est_var_1"
        assert len(lines) == 1 + len(result.windows)
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[2]) == pytest.approx(result.windows[0].mean[0])
