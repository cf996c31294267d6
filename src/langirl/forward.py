"""Forward gradient-ascent agents that emit the sample stream consumed downstream.

Each agent draws a start point from the initialization density, performs a
fixed-step gradient ascent for a fixed number of iterations, and emits the
(point, gradient) pair seen at every iteration. The emitted stream is the only
coupling between the forward process and the estimators: downstream code never
sees the reward itself.

Every agent runs the same number of iterations, so the pool advances all
agents in one step and its oracle is called on (num_agents, dim) blocks.
The block contract: on an (n, dim) block a forward oracle returns n gradients
that are, bit for bit, those of n successive calls on the single rows, and it
uses its rng or row counter in row order. Blocks come in iteration-major order
(iteration 0 of every agent, then iteration 1 of every agent, ...), so a noisy
oracle's draws follow that order; with a run length of 1 it is the same as
agent order. The stream stores its rows agent-major and holds only the points
and gradients: no agent or iteration ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import ConfigError, GradientPool, GradientSample, NonFiniteError, RngStream

PointOracle = Callable[[np.ndarray], np.ndarray]
PoolOracle = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class InitDensity:
    """Gaussian initialization density with a diagonal covariance."""

    mean: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        var = np.atleast_1d(np.asarray(self.variances, dtype=np.float64))
        if mean.shape != var.shape or mean.ndim != 1:
            raise ConfigError("mean and variances must be 1-D vectors of equal length")
        if not (np.isfinite(mean).all() and np.isfinite(var).all()):
            raise ConfigError("mean and variances must be finite")
        if np.any(var <= 0):
            raise ConfigError("variances must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variances", var)
        norm = float(np.prod(2.0 * np.pi * var) ** -0.5)
        object.__setattr__(self, "_norm", norm)

    @property
    def dim(self) -> int:
        return self.mean.size

    @classmethod
    def standard(cls, dim: int) -> "InitDensity":
        return cls(np.zeros(dim), np.ones(dim))

    def density(self, point: np.ndarray):
        """Density at `point`, batched over leading axes; a NumPy scalar for one point."""
        z = point - self.mean
        return self._norm * np.exp(-0.5 * (z * z / self.variances).sum(-1))

    def density_and_grad(self, point: np.ndarray):
        """Value and gradient of the density (not the log density) at `point`.

        Batched over leading axes like `density`; the gradient has the shape
        of `point`.
        """
        z = point - self.mean
        val = self._norm * np.exp(-0.5 * (z * z / self.variances).sum(-1))
        return val, -z / self.variances * (val[..., None] if z.ndim > 1 else val)

    def sample(self, rng: RngStream, size: int | None = None) -> np.ndarray:
        if size is None:
            return self.mean + np.sqrt(self.variances) * rng.standard_normal(self.dim)
        return self.mean + np.sqrt(self.variances) * rng.standard_normal((size, self.dim))


@dataclass(frozen=True)
class AgentPoolConfig:
    """Settings for one batch of forward agents, each running `run_length` iterations.

    The emitted stream is agent-major; shuffle it with `GradientStream.shuffled`
    and a stream of its own when consecutive rows should not follow
    single-agent trajectories.
    """

    step: float
    num_agents: int
    run_length: int

    def __post_init__(self):
        if not self.step > 0:
            raise ConfigError("forward step must be positive")
        if self.num_agents < 1:
            raise ConfigError("num_agents must be at least 1")
        if self.run_length < 1:
            raise ConfigError("run_length must be at least 1")


class GradientStream:
    """Array-backed stream of (point, gradient) samples in emission order."""

    def __init__(self, points, gradients):
        self.points = np.asarray(points, dtype=np.float64)
        self.gradients = np.asarray(gradients, dtype=np.float64)
        if not (self.points.shape == self.gradients.shape and self.points.ndim == 2):
            raise ConfigError("stream arrays have inconsistent shapes")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[GradientSample]:
        points, gradients = self.points, self.gradients
        for i in range(len(points)):
            yield GradientSample(points[i], gradients[i])

    def as_pools(self, pool_size: int) -> Iterator[GradientPool]:
        """Chop the stream into consecutive pools of `pool_size` samples.

        Shuffle the stream first when pools are meant to look like independent
        draws from the initialization density; without it a pool tracks a
        single agent's trajectory. The trailing remainder is dropped.
        """
        if pool_size < 1:
            raise ConfigError("pool_size must be at least 1")
        for lo in range(0, len(self) - pool_size + 1, pool_size):
            hi = lo + pool_size
            yield GradientPool(self.points[lo:hi], self.gradients[lo:hi])

    def shuffled(self, rng: RngStream) -> "GradientStream":
        perm = rng.permutation(len(self))
        return GradientStream(self.points[perm], self.gradients[perm])


def run_agent_pool(
    oracle: PointOracle, init: InitDensity, cfg: AgentPoolConfig, rng: RngStream
) -> GradientStream:
    """Run the configured agents to completion and return the emitted stream.

    `rng` draws every start point in one block. Each iteration makes one
    `oracle` call on the (num_agents, dim) block of all agents; the oracle must
    meet the block contract in the module docstring. Rows are stored
    agent-major: agent a's iteration k is row `a * run_length + k`.

    Raises NonFiniteError naming the lowest-index agent whose iterate or
    gradient left the finite range, and that agent's first bad iteration.
    """
    length = cfg.run_length
    points = np.empty((cfg.num_agents, length, init.dim))
    grads = np.empty((cfg.num_agents, length, init.dim))
    theta = init.sample(rng, size=cfg.num_agents)
    for k in range(length):
        g = oracle(theta)
        points[:, k] = theta
        grads[:, k] = g
        theta = theta + cfg.step * g
    points = points.reshape(-1, init.dim)
    grads = grads.reshape(-1, init.dim)

    finite = np.isfinite(points).all(axis=1) & np.isfinite(grads).all(axis=1)
    if not finite.all():
        bad = np.flatnonzero(~finite)[0]
        raise NonFiniteError(f"agent {bad // length} diverged at iteration {bad % length}")
    return GradientStream(points, grads)


def pool_stream(
    pool_oracle: PoolOracle,
    init: InitDensity,
    pool_size: int,
    num_pools: int,
    rng: RngStream,
) -> Iterator[GradientPool]:
    """Yield pools whose points are drawn fresh from `init` at every slow step.

    `pool_oracle` maps a (pool_size, dim) block of points to the matching
    block of gradients, so a whole pool shares one slow-time reward index.
    """
    if pool_size < 1:
        raise ConfigError("pool_size must be at least 1")
    for _ in range(num_pools):
        pts = init.sample(rng, size=pool_size)
        grads = np.asarray(pool_oracle(pts), dtype=np.float64)
        if grads.shape != pts.shape:
            raise ConfigError("pool oracle returned a block of the wrong shape")
        yield GradientPool(pts, grads)
