"""Running samplers against rewards that jump between regimes.

The hyper-state chain moves at a rate tied to the sampler step size. Three
couplings are supported:

* ``matched``: the jump rate equals the sampler step, so regime changes and
  sampler motion share a clock and the chain hops between Gibbs laws.
* ``slow_switch``: the jump rate is the step raised to (1 + exponent) for a
  positive exponent; dwell periods are long enough for the sampler to settle
  into the active regime's law, which windowed statistics can then track.
* ``fast_switch``: the jump rate is the step raised to an exponent strictly
  between zero and one; jumps are too fast to track and the sampler instead
  equilibrates to the stationary-average reward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, GradientPool, GradientSample, RngStream, write_csv
from .irl import (
    ACTIVE,
    CLASSICAL,
    MULTIKERNEL,
    ORACLE,
    PASSIVE_CLASSICAL,
    PASSIVE_GATED,
    PASSIVE_GENERALIZED,
    POOL,
    STREAM,
    VARIANTS,
    SamplerConfig,
    Trajectory,
    run_sampler,
)
from .analysis import EmpiricalDensity, GridSpec, build_density
from .problems.switching import SwitchingReward, switching_step

REGIMES = ("matched", "slow_switch", "fast_switch")

_TRACKED = (PASSIVE_GENERALIZED, PASSIVE_GATED, PASSIVE_CLASSICAL, MULTIKERNEL, ACTIVE, CLASSICAL)


@dataclass(frozen=True)
class TrackingConfig:
    """Regime coupling and windowing for a tracking run."""

    regime: str
    exponent: float = 0.0
    window: int = 1000

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ConfigError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if self.regime == "matched" and self.exponent != 0.0:
            raise ConfigError("matched regime takes no exponent")
        if self.regime == "slow_switch" and not self.exponent > 0:
            raise ConfigError("slow_switch needs a positive exponent")
        if self.regime == "fast_switch" and not 0 < self.exponent < 1:
            raise ConfigError("fast_switch needs an exponent strictly inside (0, 1)")
        if self.window < 1:
            raise ConfigError("window must be at least 1")

    def rate(self, step: float) -> float:
        """Hyper-chain jump rate implied by the sampler step size."""
        if self.regime == "matched":
            return step
        if self.regime == "slow_switch":
            return step ** (1.0 + self.exponent)
        return step**self.exponent


@dataclass(frozen=True)
class WindowRecord:
    """Summary of one contiguous window of tracking steps."""

    index: int
    start: int
    stop: int
    occupancy: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    density: EmpiricalDensity | None = None

    @property
    def majority_state(self) -> int:
        return int(np.argmax(self.occupancy))


@dataclass(frozen=True)
class TrackingResult:
    trajectory: Trajectory
    hyper_states: np.ndarray
    windows: tuple
    rate: float


def run_tracking(
    variant: str,
    reward: SwitchingReward,
    cfg: SamplerConfig,
    tracking: TrackingConfig,
    num_steps: int,
    rng: RngStream,
    grid: GridSpec | None = None,
    forward_step: float | None = None,
    forward_run_length: int | None = None,
) -> TrackingResult:
    """Interleave hyper-state jumps with sampler updates and window the output.

    Passive variants spin an internal forward agent against the switching
    reward (restarted from the initialization density every
    `forward_run_length` iterations); oracle variants query the active regime
    directly; the multikernel variant draws its pools from the initialization
    density at every step. The hyper-state jumps once per step, just before
    the step's gradients are taken: before its sample or pool is built, or
    inside the oracle call (so after the active variant's probe draw).
    """
    if num_steps < 1:
        raise ConfigError("num_steps must be at least 1")
    if variant not in _TRACKED:
        raise ConfigError(f"variant {variant!r} is not supported for tracking")
    kind = VARIANTS[variant].source
    if kind != ORACLE and cfg.init_density is None:
        raise ConfigError(f"variant {variant!r} needs an init_density for tracking")
    if kind == STREAM and (forward_step is None or forward_run_length is None):
        raise ConfigError("passive tracking needs forward_step and forward_run_length")
    rate = tracking.rate(cfg.step)
    states = []

    def jump():
        states.append(switching_step(reward, rate, rng))

    def oracle(point):
        jump()
        return reward.gradient(point)

    def pools():
        while True:
            jump()
            pts = cfg.init_density.sample(rng, size=cfg.pool_size)
            grads = np.stack([np.asarray(reward.gradient(p), dtype=np.float64) for p in pts])
            yield GradientPool(pts, grads)

    def agent_stream():
        theta = cfg.init_density.sample(rng)
        age = 0
        while True:
            jump()
            if age == forward_run_length:
                theta = cfg.init_density.sample(rng)
                age = 0
            grad = np.asarray(reward.gradient(theta), dtype=np.float64)
            yield GradientSample(theta, grad)
            theta = theta + forward_step * grad
            age += 1

    if kind == ORACLE:
        source = oracle
    elif kind == POOL:
        source = pools()
    else:
        source = agent_stream()
    traj = run_sampler(variant, source, cfg, num_steps, rng, burn_in=0)
    hyper = np.asarray(states, dtype=np.int64)

    windows = []
    estimates = traj.samples[1:]
    num_states = reward.num_states
    for w, lo in enumerate(range(0, num_steps - tracking.window + 1, tracking.window)):
        hi = lo + tracking.window
        block = estimates[lo:hi]
        occupancy = np.bincount(hyper[lo:hi], minlength=num_states) / tracking.window
        density = build_density(block, grid) if grid is not None else None
        windows.append(
            WindowRecord(
                index=w,
                start=lo,
                stop=hi,
                occupancy=occupancy,
                mean=block.mean(axis=0),
                var=block.var(axis=0),
                density=density,
            )
        )
    return TrackingResult(traj, hyper, tuple(windows), rate)


def dwell_segments(hyper_states: np.ndarray):
    """Contiguous (start, stop, state) runs of the hyper-state path."""
    states = np.asarray(hyper_states)
    if len(states) == 0:
        return []
    changes = np.flatnonzero(np.diff(states)) + 1
    bounds = np.concatenate([[0], changes, [len(states)]])
    return [
        (int(bounds[i]), int(bounds[i + 1]), int(states[bounds[i]]))
        for i in range(len(bounds) - 1)
    ]


def mode_sign_accuracy(
    result: TrackingResult, mode_signs, min_dwell: int, coord: int = 0
) -> tuple[float, int]:
    """How often windowed means carry the active regime's mode sign.

    Only windows fully inside a dwell segment of length at least `min_dwell`
    are scored. Returns (accuracy, windows_scored); accuracy is NaN when no
    window qualifies.
    """
    mode_signs = np.asarray(mode_signs)
    segments = [s for s in dwell_segments(result.hyper_states) if s[1] - s[0] >= min_dwell]
    scored = 0
    correct = 0
    for window in result.windows:
        for lo, hi, state in segments:
            if lo <= window.start and window.stop <= hi:
                scored += 1
                if np.sign(window.mean[coord]) == mode_signs[state]:
                    correct += 1
                break
    return (correct / scored if scored else float("nan")), scored


def write_tracking_csv(result: TrackingResult, path) -> None:
    """Per-window CSV: index, majority hyper-state, means and variances."""
    dim = result.trajectory.dim
    header = (
        ["window", "hyper_state_mode"]
        + [f"est_mean_{i + 1}" for i in range(dim)]
        + [f"est_var_{i + 1}" for i in range(dim)]
    )
    write_csv(
        path,
        header,
        ([w.index, w.majority_state, *w.mean.tolist(), *w.var.tolist()] for w in result.windows),
    )
