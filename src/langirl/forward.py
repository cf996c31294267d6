"""Forward gradient-ascent agents that emit the sample stream consumed downstream.

Each agent draws a start point from the initialization density, performs a
fixed-step gradient ascent for a bounded number of iterations, and emits the
(point, gradient) pair seen at every iteration. The emitted stream is the only
coupling between the forward process and the estimators: downstream code never
sees the reward itself.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import ConfigError, GradientPool, GradientSample, NonFiniteError, RngStream, write_csv

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
    """Settings for one batch of forward agents.

    `run_length` is either a fixed iteration count or an inclusive (low, high)
    pair from which each agent's count is drawn uniformly. `shuffle` permutes
    the emitted stream so that consecutive rows no longer follow single-agent
    trajectories.
    """

    step: float
    num_agents: int
    run_length: int | tuple[int, int]
    shuffle: bool = False

    def __post_init__(self):
        if not self.step > 0:
            raise ConfigError("forward step must be positive")
        if self.num_agents < 1:
            raise ConfigError("num_agents must be at least 1")
        rl = self.run_length
        if isinstance(rl, tuple):
            if len(rl) != 2 or rl[0] < 1 or rl[1] < rl[0]:
                raise ConfigError("run_length range must satisfy 1 <= low <= high")
        elif rl < 1:
            raise ConfigError("run_length must be at least 1")


class GradientStream:
    """Array-backed stream of gradient samples in emission order."""

    def __init__(self, points, gradients, agent_ids, step_ids):
        self.points = np.asarray(points, dtype=np.float64)
        self.gradients = np.asarray(gradients, dtype=np.float64)
        self.agent_ids = np.asarray(agent_ids, dtype=np.int64)
        self.step_ids = np.asarray(step_ids, dtype=np.int64)
        if not (
            self.points.shape == self.gradients.shape
            and self.points.ndim == 2
            and len(self.agent_ids) == len(self.points) == len(self.step_ids)
        ):
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

    def iter_sweeps(self, sweeps: int) -> Iterator[GradientSample]:
        """Iterate the stream end to end `sweeps` times."""
        for _ in range(sweeps):
            yield from self

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
        return GradientStream(
            self.points[perm], self.gradients[perm], self.agent_ids[perm], self.step_ids[perm]
        )


def run_agent_pool(
    oracle: PointOracle, init: InitDensity, cfg: AgentPoolConfig, rng: RngStream
) -> GradientStream:
    """Run the configured agents to completion and return the emitted stream.

    Raises NonFiniteError naming the agent and iteration at which an iterate or
    gradient first left the finite range.
    """
    dim = init.dim
    if isinstance(cfg.run_length, tuple):
        lo, hi = cfg.run_length
        lengths = rng.integers(lo, hi + 1, size=cfg.num_agents)
    else:
        lengths = np.full(cfg.num_agents, cfg.run_length, dtype=np.int64)
    total = int(lengths.sum())

    points = np.empty((total, dim))
    grads = np.empty((total, dim))
    agent_ids = np.repeat(np.arange(cfg.num_agents), lengths)
    step_ids = np.concatenate([np.arange(n) for n in lengths])

    eps = cfg.step
    row = 0
    for agent, n in enumerate(lengths):
        theta = init.sample(rng)
        start = row
        for _ in range(n):
            g = oracle(theta)
            points[row] = theta
            grads[row] = g
            theta = theta + eps * g
            row += 1
        block = slice(start, row)
        if not (np.isfinite(points[block]).all() and np.isfinite(grads[block]).all()):
            bad = np.flatnonzero(
                ~(np.isfinite(points[block]).all(axis=1) & np.isfinite(grads[block]).all(axis=1))
            )[0]
            raise NonFiniteError(f"agent {agent} diverged at iteration {int(bad)}")

    stream = GradientStream(points, grads, agent_ids, step_ids)
    if cfg.shuffle:
        stream = stream.shuffled(rng)
    return stream


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


def write_stream_csv(stream: GradientStream, path) -> None:
    dim = stream.dim
    header = (
        ["agent", "step"]
        + [f"theta_{i + 1}" for i in range(dim)]
        + [f"grad_{i + 1}" for i in range(dim)]
    )
    rows = zip(stream.agent_ids.tolist(), stream.step_ids.tolist(), stream.points, stream.gradients)
    write_csv(path, header, ([a, s, *p.tolist(), *g.tolist()] for a, s, p, g in rows))


def read_stream_csv(path) -> GradientStream:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) < 4 or header[:2] != ["agent", "step"]:
            raise ConfigError(f"unrecognized stream header in {path}")
        dim = (len(header) - 2) // 2
        rows = list(reader)
    agent_ids = np.array([int(r[0]) for r in rows], dtype=np.int64)
    step_ids = np.array([int(r[1]) for r in rows], dtype=np.int64)
    body = np.array([[float(v) for v in r[2:]] for r in rows], dtype=np.float64)
    return GradientStream(body[:, :dim], body[:, dim:], agent_ids, step_ids)
