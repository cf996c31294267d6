"""Average-cost constrained MDPs with randomized policies on a spherical chart.

Policies are row-stochastic matrices phi(action | state). To give gradient
methods an unconstrained domain, each policy row is charted by squared sines
and cosines of U - 1 angles; every real angle vector maps to a valid row. The
constrained problem (maximize average reward subject to an average-cost
ceiling) is folded into a single penalized objective

    penalized(phi) = J(phi) - penalty_weight * (B(phi) - constraint_bound)**2

with J the long-run average reward and B the long-run average constraint cost.
Gradients of the penalized objective come from simultaneous-perturbation
estimates over sample paths, which is all a simulation oracle can offer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ..core import ConfigError, GradientPool, RngStream

_ROW_SUM_TOL = 1e-12

# The canonical angle box of the chart, and the weight of the wall around it
# that keeps the SPSA probes on the box.
ANGLE_LOW = 0.0
ANGLE_HIGH = math.pi / 2
BARRIER_WEIGHT = 1e6

# Pools per batched SPSA sweep of `make_angle_pool_source`.
POOL_CHUNK = 200


@dataclass(frozen=True)
class CmdpModel:
    """Finite CMDP: action-indexed transition stack and stagewise tables.

    `transitions[u, i, j]` is the probability of moving i -> j under action u.
    `rewards` and `constraint_cost` are (states, actions) tables. The penalty
    form above uses `constraint_bound` and `penalty_weight`.
    """

    transitions: np.ndarray
    rewards: np.ndarray
    constraint_cost: np.ndarray
    constraint_bound: float
    penalty_weight: float
    start_state: int = 0

    def __post_init__(self):
        P = np.asarray(self.transitions, dtype=np.float64)
        rho = np.asarray(self.rewards, dtype=np.float64)
        cost = np.asarray(self.constraint_cost, dtype=np.float64)
        if P.ndim != 3 or P.shape[1] != P.shape[2]:
            raise ConfigError("transitions must be a (actions, states, states) stack")
        num_actions, num_states = P.shape[0], P.shape[1]
        if rho.shape != (num_states, num_actions) or cost.shape != (num_states, num_actions):
            raise ConfigError("rewards and constraint_cost must be (states, actions) tables")
        if np.any(P < 0) or np.max(np.abs(P.sum(axis=2) - 1.0)) > _ROW_SUM_TOL:
            raise ConfigError("every transition row must be a probability vector")
        if np.any(rho < 0):
            raise ConfigError("rewards must be non-negative")
        if not 0 <= self.start_state < num_states:
            raise ConfigError("start_state out of range")
        object.__setattr__(self, "transitions", P)
        object.__setattr__(self, "rewards", rho)
        object.__setattr__(self, "constraint_cost", cost)

    @property
    def num_states(self) -> int:
        return self.transitions.shape[1]

    @property
    def num_actions(self) -> int:
        return self.transitions.shape[0]

    @property
    def num_angles(self) -> int:
        return self.num_states * (self.num_actions - 1)

    @classmethod
    def from_json(cls, path) -> "CmdpModel":
        """Read a model file; an unreadable file or malformed content raises ConfigError."""
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read CMDP model file {path}: {exc.strerror}") from None
        except ValueError as exc:  # not UTF-8 or not JSON
            raise ConfigError(f"CMDP model file {path}: invalid JSON ({exc})") from None
        try:
            states = int(raw["states"])
            actions = int(raw["actions"])
            model = cls(
                transitions=np.asarray(raw["P"], dtype=np.float64),
                rewards=np.asarray(raw["rho"], dtype=np.float64),
                constraint_cost=np.asarray(raw["constraint_cost"], dtype=np.float64),
                constraint_bound=float(raw["gamma"]),
                penalty_weight=float(raw["lambda"]),
                start_state=int(raw.get("start_state", 0)),
            )
        except KeyError as missing:
            raise ConfigError(f"CMDP model file is missing field {missing}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"CMDP model file {path}: malformed content ({exc})") from None
        if model.num_states != states or model.num_actions != actions:
            raise ConfigError("declared states/actions do not match the array shapes")
        return model

    @classmethod
    def two_state_example(cls) -> "CmdpModel":
        """The worked two-state, two-action instance used across the tests."""
        return cls(
            transitions=np.array(
                [
                    [[0.8, 0.2], [0.3, 0.7]],
                    [[0.6, 0.4], [0.1, 0.9]],
                ]
            ),
            rewards=np.array([[1.0, 100.0], [30.0, 2.0]]),
            constraint_cost=np.array([[0.2, 0.3], [2.0, 1.0]]),
            constraint_bound=1.0,
            penalty_weight=1e5,
        )


def spherical_to_policy(angles) -> np.ndarray:
    """Map angles (..., states, actions - 1) to policies (..., states, actions).

    Row u gets cos(t_u)**2 times the product of sin(t_p)**2 for p < u, and the
    final action soaks up the full sine product, so every real angle matrix
    yields exact row-stochastic output.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim < 2:
        raise ConfigError("angles must have shape (..., states, actions - 1)")
    c2 = np.cos(angles) ** 2
    s2 = 1.0 - c2
    tail = np.cumprod(s2, axis=-1)
    lead = np.concatenate([np.ones_like(tail[..., :1]), tail[..., :-1]], axis=-1)
    body = c2 * lead
    last = tail[..., -1:]
    return np.concatenate([body, last], axis=-1)


def policy_to_spherical(policy) -> np.ndarray:
    """Invert spherical_to_policy on strictly positive rows, angles in (0, pi/2)."""
    phi = np.asarray(policy, dtype=np.float64)
    if phi.ndim < 2 or phi.shape[-1] < 2:
        raise ConfigError("policy must have shape (..., states, actions) with actions >= 2")
    if np.any(phi <= 0):
        raise ConfigError("policy rows must be strictly positive to invert the chart")
    if np.max(np.abs(phi.sum(axis=-1) - 1.0)) > 1e-9:
        raise ConfigError("policy rows must sum to one")
    num_actions = phi.shape[-1]
    remaining = np.ones_like(phi[..., 0])
    angles = np.empty(phi.shape[:-1] + (num_actions - 1,))
    for u in range(num_actions - 1):
        ratio = np.clip(phi[..., u] / remaining, 0.0, 1.0)
        angles[..., u] = np.arccos(np.sqrt(ratio))
        remaining = remaining - phi[..., u]
    return angles


def _cdf_columns(stack: np.ndarray) -> np.ndarray:
    """CDFs along the last axis of a (lead, rows, n) stack, without their last column.

    Returns a (n - 1, lead * rows) table: column j of the CDF of row i under
    lead index a is entry [j, a * rows + i].
    """
    lead, rows, n = stack.shape
    cdf = np.cumsum(stack, axis=2)[:, :, :-1]
    return cdf.transpose(2, 0, 1).reshape(n - 1, lead * rows)


def _categorical(r: np.ndarray, cdf_columns: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Category of each uniform in `r`: the number of its CDF columns below it."""
    k = np.zeros(len(r), dtype=np.intp)
    for column in cdf_columns:
        k += r > column[index]
    return k


def simulate_batch(model: CmdpModel, policies: np.ndarray, horizon: int, rng: RngStream):
    """Run one sample path per policy; returns average (rewards, costs).

    `policies` is (batch, states, actions), each row a probability vector. All
    paths start at the model's start state and share the step loop, so the
    cost is one vectorized sweep.

    Draws: every step takes one ``rng.random(batch)`` for the actions, then
    one for the next states, so a call consumes 2 * horizon * batch
    uniforms (``uniform(size=batch)`` would give the same doubles, as
    ``0 + 1 * d``, and leave the stream at the same place). A path takes the
    first category whose CDF value is not below its uniform, or the last
    category if none is.

    The CDFs of the policies and of the transition stack are summed once,
    before the loop. A cumulative sum is the same whichever rows are later
    gathered from it, so these tables hold the bits a per-step sum would.
    Only the first n - 1 CDF columns are kept: a CDF of non-negative terms
    never decreases, so the count of those below the uniform is the category,
    and a last column that rounds below 1 cannot pick a category past the
    last. One-state and one-action models have no column to compare; their
    index is always 0, yet they still draw both uniforms each step.

    Uniforms are not drawn in blocks over the horizon: the per-call cost of a
    draw is small next to its per-number cost, and a 64-step block for 4000
    paths alone is 4 MiB, a sizable rise in an SPSA run's peak memory.
    """
    policies = np.asarray(policies, dtype=np.float64)
    num_states, num_actions = model.num_states, model.num_actions
    if policies.ndim != 3 or policies.shape[1:] != (num_states, num_actions):
        raise ConfigError("policies must be a (batch, states, actions) stack matching the model")
    if horizon < 1:
        raise ConfigError("horizon must be at least 1")
    m = len(policies)
    policy_cdf = _cdf_columns(policies)
    transition_cdf = _cdf_columns(model.transitions)
    rewards = model.rewards.ravel()
    costs = model.constraint_cost.ravel()
    rows = np.arange(m) * num_states
    x = np.full(m, model.start_state, dtype=np.intp)
    reward_sum = np.zeros(m)
    cost_sum = np.zeros(m)
    for _ in range(horizon):
        u = _categorical(rng.random(m), policy_cdf, rows + x)
        pair = x * num_actions + u
        reward_sum += rewards[pair]
        cost_sum += costs[pair]
        x = _categorical(rng.random(m), transition_cdf, u * num_states + x)
    return reward_sum / horizon, cost_sum / horizon


def penalized_value(model: CmdpModel, avg_reward, avg_cost):
    """Fold average reward and constraint cost into the penalized objective."""
    gap = np.asarray(avg_cost) - model.constraint_bound
    return np.asarray(avg_reward) - model.penalty_weight * gap * gap


def angle_barrier(angles: np.ndarray) -> np.ndarray:
    """Quadratic wall outside the canonical angle box, zero inside it.

    Keeps a simulated learner on the fundamental chart; without it the
    objective is periodic in the angles and iterates drift across copies.
    """
    angles = np.asarray(angles, dtype=np.float64)
    under = np.clip(ANGLE_LOW - angles, 0.0, None)
    over = np.clip(angles - ANGLE_HIGH, 0.0, None)
    return BARRIER_WEIGHT * (under * under + over * over).sum(axis=(-2, -1))


def spsa_gradient_batch(
    model: CmdpModel,
    angles: np.ndarray,
    horizon: int,
    perturbation: float,
    rng: RngStream,
) -> np.ndarray:
    """Two-sided simultaneous-perturbation gradients in the angle chart.

    One Rademacher direction per angle matrix; both probe policies of every
    matrix run inside a single batched simulation sweep. The probed objective
    is the penalized value minus angle_barrier, which is zero on the box.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 3:
        raise ConfigError("angles must be a (batch, states, actions - 1) stack")
    if perturbation <= 0:
        raise ConfigError("perturbation must be positive")
    m = len(angles)
    delta = rng.integers(0, 2, size=angles.shape) * 2.0 - 1.0
    probes = np.concatenate(
        [angles + perturbation * delta, angles - perturbation * delta], axis=0
    )
    J, B = simulate_batch(model, spherical_to_policy(probes), horizon, rng)
    values = penalized_value(model, J, B) - angle_barrier(probes)
    scale = (values[:m] - values[m:]) / (2.0 * perturbation)
    return scale[:, None, None] * delta


def angle_pool_chunk(
    model: CmdpModel,
    pool_size: int,
    num_pools: int,
    horizon: int,
    perturbation: float,
    rng: RngStream,
    c: int,
):
    """Chunk c of `make_angle_pool_source`'s pools with the same arguments, from one batched sweep.

    The chunk holds pools c * POOL_CHUNK up to the next chunk or `num_pools`,
    all drawn from the stream ``rng.child(c)``. Returns (points, gradients),
    each a (pools, pool_size, width) array.
    """
    take = min(POOL_CHUNK, num_pools - c * POOL_CHUNK)
    width = model.num_states * (model.num_actions - 1)
    stream = rng.child(c)
    pts = stream.uniform(ANGLE_LOW, ANGLE_HIGH, size=(take * pool_size, model.num_states, model.num_actions - 1))
    grads = spsa_gradient_batch(model, pts, horizon, perturbation, stream)
    return pts.reshape(take, pool_size, width), grads.reshape(take, pool_size, width)


def make_angle_pool_source(
    model: CmdpModel,
    pool_size: int,
    num_pools: int,
    horizon: int,
    perturbation: float,
    rng: RngStream,
):
    """Yield `num_pools` pools of (flattened angle point, SPSA gradient) pairs.

    Points are uniform over the angle box; the estimator never influences
    them. Flattening is row-major over (states, actions - 1). Pools are
    produced `POOL_CHUNK` at a time so the probe simulations share one
    batched sweep; the barrier keeps the probed objective non-periodic off
    the box. Chunk c draws from its own stream ``rng.child(c)``, so it depends
    only on the model, the settings, `rng` and c, and can be computed apart
    (`angle_pool_chunk`). `POOL_CHUNK` is therefore part of the stream's
    definition: another chunk size would give other pools.
    """
    return (
        GradientPool(points, gradients)
        for c in range(-(-num_pools // POOL_CHUNK))
        for points, gradients in zip(*angle_pool_chunk(model, pool_size, num_pools, horizon, perturbation, rng, c))
    )


def stationary_joint(model: CmdpModel, policy: np.ndarray, tol: float = 1e-13, max_iter: int = 200000):
    """Stationary state-action frequencies of the policy-induced chain.

    Power iteration on the state marginal; raises ConfigError with a
    non-unichain diagnostic if it fails to settle. Returns (joint, J, B) where
    joint[x, u] solves the balance equations and J, B are the stationary
    averages of reward and constraint cost.
    """
    phi = np.asarray(policy, dtype=np.float64)
    chain = np.einsum("iu,uij->ij", phi, model.transitions)
    nu = np.full(model.num_states, 1.0 / model.num_states)
    for _ in range(max_iter):
        nxt = nu @ chain
        if float(np.abs(nxt - nu).sum()) < tol:
            nu = nxt
            break
        nu = nxt
    else:
        raise ConfigError(
            "power iteration did not converge; the policy-induced chain "
            "may not be unichain"
        )
    joint = nu[:, None] * phi
    J = float(np.sum(joint * model.rewards))
    B = float(np.sum(joint * model.constraint_cost))
    return joint, J, B


def stationary_joint_batch(model: CmdpModel, policies: np.ndarray, tol: float = 1e-13, max_iter: int = 200000):
    """Vectorized stationary_joint over a (batch, states, actions) stack."""
    phis = np.asarray(policies, dtype=np.float64)
    chains = np.einsum("biu,uij->bij", phis, model.transitions)
    nu = np.full((len(phis), model.num_states), 1.0 / model.num_states)
    for _ in range(max_iter):
        nxt = np.einsum("bi,bij->bj", nu, chains)
        if float(np.abs(nxt - nu).sum(axis=1).max()) < tol:
            nu = nxt
            break
        nu = nxt
    else:
        raise ConfigError(
            "power iteration did not converge; some policy-induced chain "
            "may not be unichain"
        )
    joint = nu[:, :, None] * phis
    J = np.einsum("bxu,xu->b", joint, model.rewards)
    B = np.einsum("bxu,xu->b", joint, model.constraint_cost)
    return joint, J, B


def ground_truth_penalized(model: CmdpModel, policy: np.ndarray) -> float:
    """Exact penalized objective from the stationary frequencies."""
    _, J, B = stationary_joint(model, policy)
    return float(penalized_value(model, J, B))
