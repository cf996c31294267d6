"""Constrained-MDP machinery: chart, exact averages, simulation, SPSA."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from langirl.core import ConfigError, DomainError, GradientPool, RngStream
from langirl.problems.cmdp import (
    CmdpModel,
    ground_truth_penalized,
    penalized_value,
    simulate_batch,
    spherical_to_policy,
    spsa_gradient_batch,
    stationary_joint_batch,
)
from reference import make_angle_pool_source, policy_to_spherical

MODEL = CmdpModel.two_state_example()


def random_policies(rng, n, states=2, actions=2):
    p = rng.uniform(0.05, 0.95, size=(n, states, 1))
    return np.concatenate([p, 1.0 - p], axis=-1)


def reference_simulate_batch(model, policies, horizon, rng):
    """Per-step simulator: a fresh CDF block per step, the last column clipped.

    This is the loop simulate_batch replaced; it must agree bit for bit.
    """

    def sample_categorical(prob_rows):
        cdf = np.cumsum(prob_rows, axis=1)
        r = rng.uniform(size=(len(prob_rows), 1))
        return np.minimum((r > cdf).sum(axis=1), prob_rows.shape[1] - 1)

    m = len(policies)
    batch_idx = np.arange(m)
    x = np.full(m, model.start_state, dtype=np.int64)
    reward_sum = np.zeros(m)
    cost_sum = np.zeros(m)
    for _ in range(horizon):
        u = sample_categorical(policies[batch_idx, x])
        reward_sum += model.rewards[x, u]
        cost_sum += model.constraint_cost[x, u]
        x = sample_categorical(model.transitions[u, x])
    return reward_sum / horizon, cost_sum / horizon


def assert_matches_reference(model, policies, horizon, ref_rng, rng):
    """simulate_batch equals the reference and leaves its stream at the same place."""
    want_J, want_B = reference_simulate_batch(model, policies, horizon, ref_rng)
    J, B = simulate_batch(model, policies, horizon, rng)
    np.testing.assert_array_equal(J, want_J)
    np.testing.assert_array_equal(B, want_B)
    assert rng.uniform() == ref_rng.uniform()


def random_rows(rng, shape):
    rows = rng.uniform(size=shape)
    return rows / rows.sum(axis=-1, keepdims=True)


def eig_stationary(chain):
    """Left Perron vector by a dense eigen-decomposition, the reference for the stationary laws."""
    vals, vecs = np.linalg.eig(chain.T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, k])
    return v / v.sum()


def assert_matches_eig_stationary(model, policies):
    """stationary_joint_batch gives each policy's eigenvector law, and J and B from it; returns its (joint, J, B)."""
    joint, J, B = stationary_joint_batch(model, policies)
    for k, phi in enumerate(policies):
        nu = eig_stationary(np.einsum("iu,uij->ij", phi, model.transitions))
        np.testing.assert_allclose(joint[k], nu[:, None] * phi, atol=1e-10)
        assert J[k] == pytest.approx(float(np.sum(joint[k] * model.rewards)))
        assert B[k] == pytest.approx(float(np.sum(joint[k] * model.constraint_cost)))
    return joint, J, B


def model_on(P, actions=2):
    """A model with the same transition matrix `P` under every action and unit tables."""
    states = len(P)
    return CmdpModel(transitions=np.array([P] * actions), rewards=np.ones((states, actions)),
                     constraint_cost=np.ones((states, actions)), constraint_bound=1.0, penalty_weight=1.0)


class TestSphericalChart:
    def test_two_action_formula(self):
        angles = np.array([[math.pi / 4], [math.pi / 3]])
        phi = spherical_to_policy(angles)
        np.testing.assert_allclose(phi[0], [0.5, 0.5], rtol=1e-12)
        np.testing.assert_allclose(phi[1], [0.25, 0.75], rtol=1e-12)

    def test_rows_stochastic_for_arbitrary_angles(self):
        # The chart reads each angle through its squared cosine alone, so it
        # mirrors exactly about 0, and about pi/2 up to the rounding of
        # pi - a (bound 1e-13, set before the run; 3.6e-15 seen).
        rng = RngStream(41)
        for _ in range(50):
            angles = rng.standard_normal((3, 4)) * 20.0
            phi = spherical_to_policy(angles)
            assert np.all(phi >= 0)
            np.testing.assert_allclose(phi.sum(axis=-1), 1.0, atol=1e-12)
            np.testing.assert_array_equal(spherical_to_policy(-angles), phi)
            np.testing.assert_allclose(spherical_to_policy(math.pi - angles), phi, rtol=0, atol=1e-13)

    def test_round_trip_within_tolerance(self):
        rng = RngStream(42)
        for _ in range(50):
            angles = rng.uniform(0.05, math.pi / 2 - 0.05, size=(2, 3))
            back = policy_to_spherical(spherical_to_policy(angles))
            np.testing.assert_allclose(back, angles, atol=1e-10)

    def test_round_trip_from_policy_side(self):
        rng = RngStream(43)
        phi = random_policies(rng, 20)
        back = spherical_to_policy(policy_to_spherical(phi))
        np.testing.assert_allclose(back, phi, atol=1e-12)

    def test_boundary_policy_not_invertible(self):
        with pytest.raises(ConfigError, match="strictly positive"):
            policy_to_spherical(np.array([[1.0, 0.0], [0.5, 0.5]]))

    @settings(max_examples=300, derandomize=True, database=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 3), st.integers(1, 3)),
            # Small leading angles cost the inverse precision (three angles of
            # 1e-3 come back 3e-8 off), so angles keep 0.01 from the edges.
            elements=st.floats(0.01, math.pi / 2 - 0.01),
        )
    )
    def test_round_trip_property(self, angles):
        phi = spherical_to_policy(angles)
        assert np.all(phi >= 0)
        np.testing.assert_allclose(phi.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(policy_to_spherical(phi), angles, rtol=0, atol=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            spherical_to_policy(np.array([0.3]))
        with pytest.raises(ConfigError):
            policy_to_spherical(np.array([[0.4], [0.6]]))


class TestStationaryJoint:
    def test_matches_eigenvector_solver(self):
        assert_matches_eig_stationary(MODEL, random_policies(RngStream(44), 25))
        rng = RngStream(46)
        for states, actions in [(3, 2), (5, 3), (8, 4)]:
            model = CmdpModel(
                transitions=random_rows(rng, (actions, states, states)),
                rewards=rng.uniform(0.0, 5.0, size=(states, actions)),
                constraint_cost=rng.uniform(0.0, 2.0, size=(states, actions)),
                constraint_bound=1.0,
                penalty_weight=1.0,
            )
            assert_matches_eig_stationary(model, random_rows(rng, (10, states, actions)))

    def test_balance_residual_is_tiny(self):
        phis = random_policies(RngStream(45), 25)
        joints, _, _ = assert_matches_eig_stationary(MODEL, phis)
        for joint, phi in zip(joints, phis):
            # The balance equations the joint frequencies must solve.
            lhs = joint
            rhs = np.einsum("ia,aij,ju->ju", joint, MODEL.transitions, phi)
            assert np.abs(lhs - rhs).max() < 1e-10
            assert joint.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_state_model(self):
        tiny = CmdpModel(
            transitions=np.ones((2, 1, 1)),
            rewards=np.array([[3.0, 7.0]]),
            constraint_cost=np.array([[1.0, 2.0]]),
            constraint_bound=1.0,
            penalty_weight=1.0,
        )
        phi = np.array([[0.25, 0.75]])
        joint, J, B = assert_matches_eig_stationary(tiny, phi[None])
        np.testing.assert_allclose(joint[0], phi)
        assert J[0] == pytest.approx(0.25 * 3 + 0.75 * 7)
        assert B[0] == pytest.approx(0.25 * 1 + 0.75 * 2)

    def test_uniform_policy_on_doubly_stochastic_chain(self):
        model = CmdpModel(
            transitions=np.array([
                [[0.7, 0.3], [0.3, 0.7]],
                [[0.4, 0.6], [0.6, 0.4]],
            ]),
            rewards=np.ones((2, 2)),
            constraint_cost=np.ones((2, 2)),
            constraint_bound=1.0,
            penalty_weight=1.0,
        )
        joint, _, _ = assert_matches_eig_stationary(model, np.full((1, 2, 2), 0.5))
        np.testing.assert_allclose(joint[0].sum(axis=1), [0.5, 0.5], atol=1e-12)

    def test_periodic_unichain_has_its_law(self):
        # States 0 and 1 swap and state 2 moves to 0: one recurrent class of
        # period 2, and state 2 transient. A power iteration from the uniform
        # law oscillates forever; the balance equations have one solution.
        model = model_on([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        joint, _, _ = assert_matches_eig_stationary(model, np.full((1, 3, 2), 0.5))
        np.testing.assert_allclose(joint[0].sum(axis=1), [0.5, 0.5, 0.0], atol=1e-15)

    @pytest.mark.parametrize("P", [
        np.eye(3),
        # Two closed pairs: no exact zero pivot need show the system is singular.
        [[0.3, 0.7, 0.0, 0.0], [0.6, 0.4, 0.0, 0.0], [0.0, 0.0, 0.2, 0.8], [0.0, 0.0, 0.9, 0.1]],
    ], ids=["all-absorbing", "two-closed-pairs"])
    def test_several_recurrent_classes_are_a_domain_error(self, P):
        model = model_on(P, actions=3)
        policies = spherical_to_policy(RngStream(55).uniform(0.0, math.pi / 2, size=(50, len(P), 2)))
        with pytest.raises(DomainError, match="policy 0: its chain has more than one recurrent class"):
            stationary_joint_batch(model, policies)
        for phi in policies:
            with pytest.raises(DomainError):
                stationary_joint_batch(model, phi[None])


class TestSimulation:
    def test_long_run_matches_exact_averages(self):
        rng = RngStream(47)
        phi = np.array([[0.6, 0.4], [0.3, 0.7]])
        segments = 40
        Js, Bs = simulate_batch(MODEL, np.repeat(phi[None], segments, axis=0), 20_000, rng)
        _, J, B = stationary_joint_batch(MODEL, phi[None])
        for sim, exact in ((Js, J[0]), (Bs, B[0])):
            se = sim.std(ddof=1) / math.sqrt(segments)
            assert abs(sim.mean() - exact) < 3 * se

    def test_single_state_reward_is_exact(self):
        tiny = CmdpModel(
            transitions=np.ones((2, 1, 1)),
            rewards=np.array([[4.0, 4.0]]),
            constraint_cost=np.array([[1.0, 1.0]]),
            constraint_bound=1.0,
            penalty_weight=1.0,
        )
        J, B = simulate_batch(tiny, np.array([[[0.5, 0.5]]]), 100, RngStream(0))
        assert J.tolist() == [4.0]
        assert B.tolist() == [1.0]

    def test_penalty_zero_when_cost_meets_bound(self):
        tiny = CmdpModel(
            transitions=np.ones((2, 1, 1)),
            rewards=np.array([[4.0, 4.0]]),
            constraint_cost=np.array([[1.0, 1.0]]),
            constraint_bound=1.0,
            penalty_weight=9e9,
        )
        J, B = simulate_batch(tiny, np.array([[[0.5, 0.5]]]), 50, RngStream(1))
        assert penalized_value(tiny, J, B).tolist() == [4.0]

    def test_penalized_value_formula(self):
        assert penalized_value(MODEL, 10.0, 1.2) == pytest.approx(10.0 - 1e5 * 0.04)

    @pytest.mark.parametrize("kind", ["two-state", "one-state", "one-action", "random-3x4"])
    def test_matches_reference_simulator_bit_for_bit(self, kind):
        rng = RngStream(52)
        if kind == "two-state":
            model = MODEL
            policies = random_policies(rng, 30)
        elif kind == "one-state":
            model = CmdpModel(
                transitions=np.ones((2, 1, 1)),
                rewards=np.array([[3.0, 7.0]]),
                constraint_cost=np.array([[1.0, 2.0]]),
                constraint_bound=1.0,
                penalty_weight=1.0,
            )
            policies = random_policies(rng, 30, states=1)
        elif kind == "one-action":
            model = CmdpModel(
                transitions=random_rows(rng, (1, 3, 3)),
                rewards=rng.uniform(0.0, 5.0, size=(3, 1)),
                constraint_cost=rng.uniform(0.0, 2.0, size=(3, 1)),
                constraint_bound=1.0,
                penalty_weight=1.0,
                start_state=2,
            )
            policies = np.ones((30, 3, 1))
        else:
            model = CmdpModel(
                transitions=random_rows(rng, (4, 3, 3)),
                rewards=rng.uniform(0.0, 5.0, size=(3, 4)),
                constraint_cost=rng.uniform(0.0, 2.0, size=(3, 4)),
                constraint_bound=1.0,
                penalty_weight=1.0,
                start_state=1,
            )
            angles = rng.uniform(0.0, math.pi / 2, size=(30, 3, 3))
            # Edge angles give exact zeros, so some CDF steps are flat.
            angles[:5, :, 0] = 0.0
            angles[5:10, :, 1] = math.pi / 2
            policies = spherical_to_policy(angles)
        assert_matches_reference(model, policies, 200, RngStream(53), RngStream(53))

    def test_uniform_equal_to_a_cdf_value_matches_reference(self):
        class TieRng:
            """Uniforms drawn from CDF values of the model and policies below."""

            def __init__(self, seed):
                self.rng = RngStream(seed)
                self.values = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 0.8])

            def random(self, size=None):
                return self.values[self.rng.integers(0, len(self.values), size=size)]

            uniform = random  # what the reference simulator and the final check draw

        policies = np.array([[[0.5, 0.5], [0.25, 0.75]], [[0.75, 0.25], [0.5, 0.5]]] * 10)
        assert_matches_reference(MODEL, policies, 100, TieRng(54), TieRng(54))

    def test_shape_and_horizon_validation(self):
        with pytest.raises(ConfigError):
            simulate_batch(MODEL, np.zeros((2, 2)), 10, RngStream(0))
        with pytest.raises(ConfigError, match="matching the model"):
            simulate_batch(MODEL, np.full((1, 3, 2), 0.5), 10, RngStream(0))
        with pytest.raises(ConfigError):
            simulate_batch(MODEL, np.full((1, 2, 2), 0.5), 0, RngStream(0))


class TestSpsa:
    def test_constant_objective_gives_exact_zero(self):
        # Rewards and costs that do not depend on the action make every sample
        # path value identical, so each single SPSA draw is exactly zero.
        model = CmdpModel(
            transitions=np.ones((2, 1, 1)),
            rewards=np.array([[3.0, 3.0]]),
            constraint_cost=np.array([[1.0, 1.0]]),
            constraint_bound=1.0,
            penalty_weight=1e4,
        )
        for seed in range(5):
            got = spsa_gradient_batch(model, np.array([[[0.6]]]), horizon=3,
                                      perturbation=1e-3, rng=RngStream(seed))
            np.testing.assert_array_equal(got, np.zeros((1, 1, 1)))

    def test_one_step_objective_mean_matches_derivative(self):
        # One-step value is Bernoulli with mean 2 sin^2(t), so averaged SPSA
        # draws estimate d/dt 2 sin^2(t) = 2 sin(2t).
        model = CmdpModel(
            transitions=np.ones((2, 1, 1)),
            rewards=np.array([[0.0, 2.0]]),
            constraint_cost=np.zeros((1, 2)),
            constraint_bound=0.0,
            penalty_weight=0.0,
        )
        t = 0.6
        draws = 4000
        grads = spsa_gradient_batch(
            model, np.full((draws, 1, 1), t), horizon=1, perturbation=0.05,
            rng=RngStream(5),
        )[:, 0, 0]
        want = 2.0 * math.sin(2 * t)
        se = grads.std(ddof=1) / math.sqrt(draws)
        assert abs(grads.mean() - want) < 3 * se + 1e-3

    @pytest.mark.parametrize(
        "theta",
        [(0.9, 0.7), (1.55, 1.0), (0.02, 1.0), (1.2, 1.54)],
        ids=["inside", "theta0-near-high-edge", "theta0-near-low-edge", "theta1-near-high-edge"],
    )
    def test_mean_spsa_matches_exact_gradient(self, theta):
        # Average many SPSA draws of the exact (deterministic) objective and
        # compare against central finite differences of the same objective.
        # Within one perturbation of an edge, half the probes fall off the
        # box and read the objective at their mirror image.
        angles = np.array(theta)[:, None]

        def exact_f(a):
            return ground_truth_penalized(MODEL, spherical_to_policy(a))

        h = 1e-5
        want = np.zeros((2, 1))
        for i in range(2):
            hi, lo = angles.copy(), angles.copy()
            hi[i, 0] += h
            lo[i, 0] -= h
            want[i, 0] = (exact_f(hi) - exact_f(lo)) / (2 * h)

        # SPSA over the stochastic simulator: average across draws, compare
        # within Monte-Carlo error.
        draws = 400
        rng = RngStream(48)
        grads = spsa_gradient_batch(
            MODEL, np.repeat(angles[None], draws, axis=0), horizon=4000,
            perturbation=0.05, rng=rng,
        )
        mean = grads.mean(axis=0)
        se = grads.std(axis=0, ddof=1) / math.sqrt(draws)
        assert np.all(np.abs(mean - want) < 3.5 * se + 0.05 * np.abs(want))

    def test_perturbation_validation(self):
        with pytest.raises(ConfigError):
            spsa_gradient_batch(MODEL, np.zeros((1, 2, 1)), 10, 0.0, RngStream(0))
        with pytest.raises(ConfigError):
            spsa_gradient_batch(MODEL, np.zeros((2, 1)), 10, 0.1, RngStream(0))


class TestBarrierAndPools:
    def test_pool_source_shapes_and_count(self):
        # Three chunks of 200, 200 and 1 pools.
        pools = list(make_angle_pool_source(MODEL, 5, 401, horizon=10, perturbation=0.1, rng=RngStream(50)))
        assert len(pools) == 401
        for pool in pools:
            assert isinstance(pool, GradientPool)
            assert pool.points.shape == (5, 2)
            assert pool.gradients.shape == (5, 2)
            assert np.all(pool.points >= 0.0) and np.all(pool.points <= math.pi / 2)

    def test_pool_source_deterministic_under_seed(self):
        a = list(make_angle_pool_source(MODEL, 4, 5, 10, 0.1, RngStream(51)))
        b = list(make_angle_pool_source(MODEL, 4, 5, 10, 0.1, RngStream(51)))
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.points, pb.points)
            np.testing.assert_array_equal(pa.gradients, pb.gradients)

    def test_pool_source_chunk_is_its_own_stream(self):
        # Chunk c of the source is drawn from rng.child(c) alone, whatever
        # was drawn for the chunks before it: its uniform points, then the
        # SPSA gradients at them.
        pools = list(make_angle_pool_source(MODEL, 3, 401, 10, 0.1, RngStream(52)))
        for c, size in enumerate([200, 200, 1]):
            stream = RngStream(52).child(c)
            points = stream.uniform(0.0, math.pi / 2, size=(3 * size, 2, 1))
            gradients = spsa_gradient_batch(MODEL, points, 10, 0.1, stream)
            chunk = pools[200 * c : 200 * c + size]
            assert len(chunk) == size
            np.testing.assert_array_equal([pool.points for pool in chunk], points.reshape(size, 3, 2))
            np.testing.assert_array_equal([pool.gradients for pool in chunk], gradients.reshape(size, 3, 2))


class TestModelPlumbing:
    def test_two_state_example_tables(self):
        assert MODEL.num_states == 2
        assert MODEL.num_actions == 2
        assert MODEL.num_angles == 2
        assert MODEL.constraint_bound == 1.0
        assert MODEL.penalty_weight == 1e5
        np.testing.assert_array_equal(MODEL.rewards, [[1.0, 100.0], [30.0, 2.0]])

    def test_validation(self):
        good = dict(
            transitions=np.array([[[0.5, 0.5], [0.5, 0.5]]] * 2),
            rewards=np.ones((2, 2)),
            constraint_cost=np.ones((2, 2)),
            constraint_bound=1.0,
            penalty_weight=1.0,
        )
        with pytest.raises(ConfigError):
            CmdpModel(**{**good, "transitions": np.array([[[0.5, 0.6], [0.5, 0.5]]] * 2)})
        with pytest.raises(ConfigError):
            CmdpModel(**{**good, "rewards": -np.ones((2, 2))})
        with pytest.raises(ConfigError):
            CmdpModel(**{**good, "rewards": np.ones((3, 2))})
        with pytest.raises(ConfigError):
            CmdpModel(**{**good, "start_state": 5})

    @pytest.mark.parametrize("field, value", [
        ("transitions", np.array([[[np.nan, 0.5], [0.5, 0.5]]] * 2)),
        ("rewards", np.array([[np.nan, 1.0], [1.0, 1.0]])),
        ("constraint_cost", np.array([[np.inf, 1.0], [1.0, 1.0]])),
        ("constraint_bound", np.nan),
        ("penalty_weight", -np.inf),
    ], ids=["nan-transition", "nan-reward", "infinite-cost", "nan-bound", "infinite-weight"])
    def test_non_finite_entries_are_config_errors(self, field, value):
        # A NaN passes the sign and row-sum checks.
        good = dict(
            transitions=np.full((2, 2, 2), 0.5),
            rewards=np.ones((2, 2)),
            constraint_cost=np.ones((2, 2)),
            constraint_bound=1.0,
            penalty_weight=1.0,
        )
        with pytest.raises(ConfigError, match="must be finite"):
            CmdpModel(**{**good, field: value})

    def test_from_json_round_trip(self, tmp_path):
        payload = {
            "states": 2,
            "actions": 2,
            "P": MODEL.transitions.tolist(),
            "rho": MODEL.rewards.tolist(),
            "constraint_cost": MODEL.constraint_cost.tolist(),
            "gamma": 1.0,
            "lambda": 1e5,
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        model = CmdpModel.from_json(path)
        np.testing.assert_array_equal(model.transitions, MODEL.transitions)
        assert model.penalty_weight == 1e5

    @pytest.mark.parametrize("field", ["gamma", "start_state"])
    def test_from_json_number_out_of_range_is_malformed(self, tmp_path, field):
        # A gamma too large for a float, and a start state no integer can hold.
        payload = {
            "states": 2,
            "actions": 2,
            "P": MODEL.transitions.tolist(),
            "rho": MODEL.rewards.tolist(),
            "constraint_cost": MODEL.constraint_cost.tolist(),
            "gamma": 1.0,
            "lambda": 1e5,
            field: 10**401 if field == "gamma" else float("inf"),
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="malformed content"):
            CmdpModel.from_json(path)

    def test_from_json_missing_field(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"states": 2, "actions": 2}))
        with pytest.raises(ConfigError, match="missing field"):
            CmdpModel.from_json(path)

    def test_from_json_shape_mismatch(self, tmp_path):
        payload = {
            "states": 3,
            "actions": 2,
            "P": MODEL.transitions.tolist(),
            "rho": MODEL.rewards.tolist(),
            "constraint_cost": MODEL.constraint_cost.tolist(),
            "gamma": 1.0,
            "lambda": 1e5,
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="declared"):
            CmdpModel.from_json(path)

    def test_constraint_set_nonempty_and_non_convex(self):
        # Feasibility region in the probability square: nonempty, and there is
        # a feasible pair whose midpoint violates the ceiling.
        g = np.linspace(0.0, 1.0, 41)
        a, b = np.meshgrid(g, g, indexing="ij")
        flat = np.stack([
            np.stack([a.ravel(), 1 - a.ravel()], axis=-1),
            np.stack([b.ravel(), 1 - b.ravel()], axis=-1),
        ], axis=1)
        _, _, Bs = stationary_joint_batch(MODEL, flat)
        feasible = Bs <= MODEL.constraint_bound
        assert feasible.any()

        def policy(p11, p12):
            return np.array([[p11, 1 - p11], [p12, 1 - p12]])

        # Two feasible corners whose midpoint breaks the ceiling.
        low = policy(0.1, 0.05)
        high = policy(0.925, 0.975)
        _, _, (B_low, B_high, B_mid) = stationary_joint_batch(MODEL, np.array([low, high, 0.5 * (low + high)]))
        assert B_low <= MODEL.constraint_bound
        assert B_high <= MODEL.constraint_bound
        assert B_mid > MODEL.constraint_bound
