"""Rewards whose identity jumps according to a slow finite-state chain.

The hyper-state evolves by the one-step matrix I + rate * Q for a generator Q
(rows summing to zero, non-negative off the diagonal). Gradient queries route
to the oracle of whichever regime is currently active.
"""

from __future__ import annotations

import numpy as np

from ..core import ConfigError, RngStream


def _validate_generator(Q: np.ndarray) -> np.ndarray:
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or len(Q) < 2:
        raise ConfigError("generator must be a square matrix of size >= 2")
    off = Q.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0):
        raise ConfigError("generator off-diagonal entries must be non-negative")
    if np.max(np.abs(Q.sum(axis=1))) > 1e-12:
        raise ConfigError("generator rows must sum to zero")
    return Q


def _is_irreducible(Q: np.ndarray) -> bool:
    reach = (Q > 0) | np.eye(len(Q), dtype=bool)
    for _ in range(len(Q)):
        reach = reach @ reach
    return bool(reach.all())


class SwitchingReward:
    """A finite family of gradient oracles with a jumping active index."""

    def __init__(self, oracles, generator, rng_state: int = 0):
        self.oracles = tuple(oracles)
        self.generator = _validate_generator(generator)
        if len(self.oracles) != len(self.generator):
            raise ConfigError("need exactly one oracle per hyper-state")
        if not 0 <= rng_state < len(self.oracles):
            raise ConfigError("initial hyper-state out of range")
        self.state = int(rng_state)

    @property
    def num_states(self) -> int:
        return len(self.oracles)

    def gradient(self, point):
        """Query the currently active regime's oracle."""
        return self.oracles[self.state](point)


def switching_step(reward: SwitchingReward, rate: float, rng: RngStream) -> int:
    """Advance the hyper-state one step under I + rate * Q and return it.

    One `rng.uniform()` per step picks the first state whose running sum of
    the row exceeds it. The row and its running sum are plain float
    arithmetic: a step is a few scalar operations, on which NumPy calls
    would spend most of the time.
    """
    current = reward.state
    q = reward.generator[current].tolist()
    row = [(1.0 if j == current else 0.0) + rate * qj for j, qj in enumerate(q)]
    if any(p < 0 for p in row):
        raise ConfigError(
            f"rate {rate} makes I + rate * Q leave the probability simplex"
        )
    draw = float(rng.uniform())
    state, cdf = 0, row[0]
    while state < len(row) - 1 and cdf <= draw:
        state += 1
        cdf += row[state]
    reward.state = state
    return state


def stationary_distribution(Q) -> np.ndarray:
    """Stationary law of the generator: solves nu Q = 0 with unit mass."""
    Q = _validate_generator(Q)
    if not _is_irreducible(Q):
        raise ConfigError("generator is not irreducible; stationary law is not unique")
    k = len(Q)
    system = np.vstack([Q.T, np.ones((1, k))])
    target = np.zeros(k + 1)
    target[-1] = 1.0
    nu, *_ = np.linalg.lstsq(system, target, rcond=None)
    return nu


def averaged_oracle(reward: SwitchingReward, weights=None):
    """Oracle for the stationary-average reward across regimes."""
    if weights is None:
        weights = stationary_distribution(reward.generator)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (reward.num_states,) or abs(weights.sum() - 1.0) > 1e-9:
        raise ConfigError("weights must be a probability vector over hyper-states")

    def oracle(point):
        total = weights[0] * np.asarray(reward.oracles[0](point), dtype=np.float64)
        for w, orc in zip(weights[1:], reward.oracles[1:]):
            total = total + w * np.asarray(orc(point), dtype=np.float64)
        return total

    return oracle
