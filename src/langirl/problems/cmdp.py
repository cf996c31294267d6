"""Average-cost constrained MDPs with randomized policies on a spherical chart.

Policies are row-stochastic matrices phi(action | state). To give gradient
methods an unconstrained domain, each policy row is charted by squared sines
and cosines of U - 1 angles; every real angle vector maps to a valid row. A
squared cosine is even about 0 and about pi/2, so the chart, and every objective
read through it, is smooth and mirror-symmetric about each face of the angle
box [0, pi/2]. The constrained problem (maximize average reward subject to an
average-cost ceiling) is folded into a single penalized objective

    penalized(phi) = J(phi) - penalty_weight * (B(phi) - constraint_bound)**2

with J the long-run average reward and B the long-run average constraint cost.
Gradients of the penalized objective come from simultaneous-perturbation
estimates over sample paths, which is all a simulation oracle can offer.
J and B assume a unichain model, each policy's chain with one recurrent
class; `stationary_joint_batch` raises DomainError for a chain with several.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ..core import ConfigError, DomainError, RngStream

_ROW_SUM_TOL = 1e-12

# The canonical angle box of the chart; every angle off it gives the policy of
# its mirror image on it.
ANGLE_LOW = 0.0
ANGLE_HIGH = math.pi / 2

# Pools per batched SPSA sweep of `angle_pool_chunk`: part of the CMDP pool
# stream's definition, which `make_angle_pool_source` in tests/reference.py
# reads chunk after chunk.
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
        if not all(np.isfinite(x).all() for x in (P, rho, cost, self.constraint_bound, self.penalty_weight)):
            raise ConfigError("transitions, rewards, costs, constraint_bound and penalty_weight must be finite")
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
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer too large for a float
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


def _cdf_columns(stack: np.ndarray) -> np.ndarray:
    """CDFs along the last axis of a (lead, rows, n) stack, without their last column.

    Returns a (n - 1, lead * rows) table: column j of the CDF of row i under
    lead index a is entry [j, a * rows + i].
    """
    lead, rows, n = stack.shape
    cdf = np.cumsum(stack, axis=2)[:, :, :-1]
    return cdf.transpose(2, 0, 1).reshape(n - 1, lead * rows)


def simulate_batch(model: CmdpModel, policies: np.ndarray, horizon: int, rng: RngStream):
    """Run one sample path per policy; returns average (rewards, costs).

    `policies` is (batch, states, actions), each row a probability vector. All
    paths start at the model's start state and share the step loop, so the
    cost is one vectorized sweep.

    Draws: every step takes one ``rng.random((2, batch))``, its row 0 for the
    actions and its row 1 for the next states, so a call consumes 2 * horizon
    * batch uniforms in the order of one ``rng.random(batch)`` for the actions
    and then one for the next states (``uniform(size=batch)`` would give the
    same doubles, as ``0 + 1 * d``, and leave the stream at the same place).
    A path takes the first category whose CDF value is not below its uniform,
    or the last category if none is.

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
    # Next-state CDFs indexed, like the rewards and costs, by pair = state * actions + action.
    transition_cdf = _cdf_columns(model.transitions.transpose(1, 0, 2))
    # Reward and cost side by side: adding an entry makes the two additions of the real sums.
    table = np.empty(num_states * num_actions, dtype=np.complex128)
    table.real = model.rewards.ravel()
    table.imag = model.constraint_cost.ravel()
    rows = np.arange(m) * num_states
    x = np.full(m, model.start_state, dtype=np.intp)
    sums = np.zeros(m, dtype=np.complex128)
    hit = np.empty(m, dtype=bool)
    for _ in range(horizon):
        r = rng.random((2, m))
        # A category is the count of its CDF columns below the uniform.
        pair = x * num_actions
        for column in policy_cdf:
            pair += np.greater(r[0], column[rows + x], out=hit)
        sums += table[pair]
        x = np.zeros(m, dtype=np.intp)
        for column in transition_cdf:
            x += np.greater(r[1], column[pair], out=hit)
    return sums.real / horizon, sums.imag / horizon


def penalized_value(model: CmdpModel, avg_reward, avg_cost):
    """Fold average reward and constraint cost into the penalized objective."""
    gap = np.asarray(avg_cost) - model.constraint_bound
    return np.asarray(avg_reward) - model.penalty_weight * gap * gap


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
    is the penalized value, which the chart makes smooth and mirror-symmetric
    about each face of the box: a probe past an edge reads its reflection's
    true value.
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
    values = penalized_value(model, J, B)
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
    """Chunk c of the CMDP pool stream, from one batched sweep.

    The stream is `num_pools` pools of `pool_size` (flattened angle point,
    SPSA gradient) pairs. Points are uniform over the angle box; the estimator
    never influences them. Flattening is row-major over (states, actions - 1).
    Pools are produced `POOL_CHUNK` at a time so the probe simulations share
    one batched sweep: chunk c holds pools c * POOL_CHUNK up to the next chunk
    or `num_pools`. Chunk c draws from its own stream ``rng.child(c)``, so it
    depends only on the model, the settings, `rng` and c, and can be computed
    apart. `POOL_CHUNK` is therefore part of the stream's definition: another
    chunk size would give other pools. Returns (points, gradients), each a
    (pools, pool_size, width) array.
    """
    take = min(POOL_CHUNK, num_pools - c * POOL_CHUNK)
    width = model.num_states * (model.num_actions - 1)
    stream = rng.child(c)
    pts = stream.uniform(ANGLE_LOW, ANGLE_HIGH, size=(take * pool_size, model.num_states, model.num_actions - 1))
    grads = spsa_gradient_batch(model, pts, horizon, perturbation, stream)
    return pts.reshape(take, pool_size, width), grads.reshape(take, pool_size, width)


def stationary_joint_batch(model: CmdpModel, policies: np.ndarray):
    """Stationary state-action frequencies of the chain of each policy in a (batch, states, actions) stack.

    A unichain's state law nu solves nu (P_phi - I) = 0 with unit mass, the
    mass equation in place of the last balance equation (the others imply
    it), in one `np.linalg.solve` for the batch. A chain with more than one
    recurrent class has no unique law: DomainError names the first policy
    whose chain has no state that every state reaches. Returns (joint, J, B):
    joint[b, x, u] = nu_b[x] * phi_b[x, u]; J, B the averages of reward and cost.
    """
    phis = np.asarray(policies, dtype=np.float64)
    chains = np.einsum("biu,uij->bij", phis, model.transitions)
    n = model.num_states
    reach = np.linalg.matrix_power((chains > 0) | np.eye(n, dtype=bool), n - 1)  # paths of up to n - 1 steps
    unichain = reach.all(axis=1).any(axis=1)
    if not unichain.all():
        raise DomainError(f"policy {int(np.argmin(unichain))}: its chain has more than one recurrent class")
    system = chains.transpose(0, 2, 1) - np.eye(n)
    system[:, -1] = 1.0
    nu = np.linalg.solve(system, np.eye(n)[:, -1:])[..., 0]
    joint = nu[:, :, None] * phis
    J = np.einsum("bxu,xu->b", joint, model.rewards)
    B = np.einsum("bxu,xu->b", joint, model.constraint_cost)
    return joint, J, B


def ground_truth_penalized(model: CmdpModel, policy: np.ndarray) -> float:
    """Exact penalized objective of one policy from its stationary frequencies."""
    _, J, B = stationary_joint_batch(model, np.asarray(policy)[None])
    return float(penalized_value(model, J[0], B[0]))
