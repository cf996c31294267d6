"""Forward agents: initialization density and gradient streams."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from langirl.core import ConfigError, GradientSample, NonFiniteError, RngStream
from langirl.forward import (
    AgentPoolConfig,
    GradientStream,
    InitDensity,
    pool_stream,
    run_agent_pool,
)
from langirl.irl import PASSIVE_GENERALIZED, VARIANTS, SamplerConfig
from langirl.kernels import Kernel
from langirl.problems import logistic, mixture
from langirl.problems.synthetic import quadratic_oracle
from strategies import EDGE_FLOATS


def numeric_grad(f, x, h=1e-6):
    """Central finite differences, the oracle for every analytic gradient here."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        out[i] = (f(x + step) - f(x - step)) / (2 * h)
    return out


class TestInitDensity:
    def test_density_matches_diagonal_gaussian_formula(self):
        d = InitDensity(np.array([1.0, -2.0]), np.array([4.0, 0.25]))
        pt = np.array([0.5, -1.0])
        z = pt - d.mean
        expected = np.exp(-0.5 * np.sum(z * z / d.variances)) / np.sqrt(
            (2 * np.pi) ** 2 * np.prod(d.variances)
        )
        assert abs(d.density(pt) - expected) < 1e-15

    def test_gradient_against_finite_differences(self):
        d = InitDensity(np.array([0.3, -0.7, 1.1]), np.array([1.5, 0.8, 2.0]))
        rng = RngStream(13)
        for _ in range(25):
            pt = rng.standard_normal(3) * 2.0
            _, grad = d.density_and_grad(pt)
            fd = numeric_grad(d.density, pt)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-12)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        offset=EDGE_FLOATS,
        variances=arrays(np.float64, 2, elements=st.floats(1e-3, 1e3)),
        axis=st.integers(0, 1),
    )
    def test_float_value_and_gradient_are_the_array_ones_bit_for_bit(self, offset, variances, axis):
        # A passive_generalized float block writes the density out inline. Its
        # step from the origin, with a zero gradient, step 1 and noise only on
        # the other axis, moves `axis` by value * gradient and the other axis
        # by the value itself, the mean sitting at the origin along that axis.
        mean = np.zeros(2)
        mean[axis] = offset
        d = InitDensity(mean, variances)
        cfg = SamplerConfig(step=1.0, beta=2.0, init=np.zeros(2), kernel=Kernel(1.0, 2), init_density=d)
        other = 1 - axis

        class OtherAxisNoise:
            def standard_normal(self, size):
                draws = np.zeros(size)
                draws[..., other] = 1.0
                return draws

        items = [GradientSample(np.zeros(2), np.zeros(2))]
        with np.errstate(all="ignore"):
            val, grad = d.density_and_grad(np.zeros(2))
            rows = VARIANTS[PASSIVE_GENERALIZED].float_step([[0.0, 0.0]], items, cfg, [OtherAxisNoise()])
        got = np.asarray(rows, dtype=np.float64).reshape(2)
        assert got[other].tobytes() == val.tobytes()
        assert got[axis].tobytes() == np.float64(0.0 + val * (0.0 + grad[axis]) + 0.0).tobytes()

    def test_sample_moments(self):
        d = InitDensity(np.array([2.0, -1.0]), np.array([3.0, 0.5]))
        draws = d.sample(RngStream(99), size=200_000)
        np.testing.assert_allclose(draws.mean(axis=0), d.mean, atol=0.02)
        np.testing.assert_allclose(draws.var(axis=0), d.variances, rtol=0.02)

    def test_single_sample_shape(self):
        assert InitDensity.standard(4).sample(RngStream(0)).shape == (4,)

    def test_validation(self):
        with pytest.raises(ConfigError):
            InitDensity(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ConfigError):
            InitDensity(np.zeros(2), np.ones(3))
        with pytest.raises(ConfigError):
            InitDensity(np.array([np.inf, 0.0]), np.ones(2))


def reference_run_agent_pool(oracle, init, cfg, rng):
    """The agent pool as a loop over agents and then iterations, one oracle call per row."""
    total = cfg.num_agents * cfg.run_length
    points = np.empty((total, init.dim))
    grads = np.empty((total, init.dim))
    row = 0
    for agent in range(cfg.num_agents):
        theta = init.sample(rng)
        start = row
        for _ in range(cfg.run_length):
            g = oracle(theta)
            points[row] = theta
            grads[row] = g
            theta = theta + cfg.step * g
            row += 1
        block = slice(start, row)
        finite = np.isfinite(points[block]).all(axis=1) & np.isfinite(grads[block]).all(axis=1)
        if not finite.all():
            raise NonFiniteError(f"agent {agent} diverged at iteration {int(np.flatnonzero(~finite)[0])}")
    return GradientStream(points, grads)


def small_logistic_model():
    rng = RngStream(50)
    feats = rng.standard_normal((13, 4))
    feats[:, 0] = 1.0
    return logistic.LogisticModel(feats, (rng.uniform(size=13) < 0.5).astype(float))


MIXTURE = mixture.MixtureModel(true_param=np.array([-1.0, 2.0]), likelihood_weight=100.0)

# name -> (oracle factory given a fresh seed, dimension)
ORACLES = {
    "quadratic": (lambda seed: quadratic_oracle(curvature=np.array([1.0, 2.5]), center=0.3), 2),
    "noisy-quadratic": (lambda seed: quadratic_oracle(1.5, 0.0, 0.7, RngStream(seed)), 3),
    "mixture": (lambda seed: mixture.make_stream_oracle(MIXTURE, RngStream(seed)), 2),
    "logistic": (lambda seed: logistic.make_stream_oracle(small_logistic_model()), 4),
}


# sha256 of a seeded pool's points then gradients bytes, unshuffled and after
# `shuffled(RngStream(1))`: (oracle, run_length, shuffled) -> digest. The
# logistic rows are those of the NumPy sigmoid, which moved 49 of the 3,880
# run-length-5 values by at most 3.6e-15 from scipy's `expit`.
GOLDEN_CORPUS = {
    ("logistic", 1, False): "b2228094ef136fe3ef3819c7b53ee40d02aeb3b608a2076e6784a43d4bd51e96",
    ("logistic", 1, True): "08ea31d9fe500496ae7c3bef919548f7f7427a61a9bf18cf28488dde4a6aed24",
    ("logistic", 5, False): "8708052f497298854ac521b1c85eedeb0a9d439a07c78f444c1a24b984bd520d",
    ("logistic", 5, True): "98031cd0b719b8062de160ddc0e18a2dfbe51040d19c5ebfa94955338a7e82fa",
    ("mixture", 1, False): "961a5efa9615716799080337d8a8657a63f10f113ca6489509c7abd6f340aedc",
    ("mixture", 1, True): "4aaa2fd02b0fa941914908564d5cda3a874b14be8dc8e01f74ed23ca24a73586",
    ("mixture", 5, False): "1c7997692828c3b05917f1eda5c0d7ca9e1eaae1097bb664f3b6e074fbb46a21",
    ("mixture", 5, True): "a60621cf2a41a9c227de5f516b9b11edda0cf794b29736d021d4a98491e5bf40",
    ("noisy-quadratic", 1, False): "156ad7efd34f84c5f335d495e9ee76a447e46b95b4628c11873e036340314c6f",
    ("noisy-quadratic", 1, True): "c83bde3d7ef78bca19f97c9ce896ab129ec5007644f4e63f1228f97d36a4fa98",
    ("noisy-quadratic", 5, False): "4bb236a319ac30ea957492403cca0372a0aafa8c8a52019316ae014b0dc74818",
    ("noisy-quadratic", 5, True): "4b46dfc72adacde2ec0b22d6be6dd6336bb2cb3b76b455ac12251c259c652234",
    ("quadratic", 1, False): "6e9c8bb49cf90878fdc27a379c47074867fa463bb4767e9bf811cff27d54acc2",
    ("quadratic", 1, True): "2267e7c978924d970399d3e2328b7b5f8ac4775e9b3b70e2ede7c10ca1e773c9",
    ("quadratic", 5, False): "42bb29a130c6e076f447362aded035c7a5b09a8c15ff27cf1d37533d51d9ab9a",
    ("quadratic", 5, True): "1b87dbcb51c2c75bcc24f27594314bff4fe547fba1198275349aa35c1d02c727",
}


@pytest.mark.parametrize("name, run_length, shuffled", sorted(GOLDEN_CORPUS))
def test_seeded_corpus_keeps_its_hash(name, run_length, shuffled):
    factory, dim = ORACLES[name]
    init = InitDensity(np.linspace(-0.5, 0.5, dim), np.full(dim, 2.0))
    cfg = AgentPoolConfig(step=0.05, num_agents=97, run_length=run_length)
    stream = run_agent_pool(factory(61), init, cfg, RngStream(60))
    if shuffled:
        stream = stream.shuffled(RngStream(1))
    digest = hashlib.sha256(stream.points.tobytes() + stream.gradients.tobytes()).hexdigest()
    assert digest == GOLDEN_CORPUS[name, run_length, shuffled]


class TestAgentPoolMatchesReference:
    """The batched pool against the per-agent loop, bit for bit."""

    @pytest.mark.parametrize(
        "name, run_length",
        [
            ("quadratic", 1),
            ("quadratic", 5),
            ("noisy-quadratic", 1),
            ("mixture", 1),
            ("logistic", 1),
        ],
    )
    def test_bit_identical_stream(self, name, run_length):
        factory, dim = ORACLES[name]
        init = InitDensity(np.linspace(-0.5, 0.5, dim), np.full(dim, 2.0))
        cfg = AgentPoolConfig(step=0.05, num_agents=97, run_length=run_length)
        got_rng, ref_rng = RngStream(60), RngStream(60)
        got = run_agent_pool(factory(61), init, cfg, got_rng)
        ref = reference_run_agent_pool(factory(61), init, cfg, ref_rng)
        for field in ("points", "gradients"):
            assert np.array_equal(getattr(got, field), getattr(ref, field)), field
        assert got_rng.uniform() == ref_rng.uniform()

    @pytest.mark.parametrize("name", ["noisy-quadratic", "mixture"])
    def test_noisy_oracle_draws_iteration_major(self, name):
        """At run length > 1 a noisy oracle's draws go iteration by iteration, agents in order."""
        factory, dim = ORACLES[name]
        init = InitDensity(np.linspace(-0.5, 0.5, dim), np.full(dim, 2.0))
        cfg = AgentPoolConfig(step=0.05, num_agents=41, run_length=6)
        got_rng, ref_rng = RngStream(62), RngStream(62)
        got = run_agent_pool(factory(63), init, cfg, got_rng)

        oracle = factory(63)
        theta = [init.sample(ref_rng) for _ in range(cfg.num_agents)]
        rows = {}
        for k in range(cfg.run_length):
            for agent in range(cfg.num_agents):
                g = oracle(theta[agent])
                rows[agent, k] = (theta[agent], g)
                theta[agent] = theta[agent] + cfg.step * g
        order = sorted(rows)  # agent-major, as the stream stores them
        assert np.array_equal(got.points, np.array([rows[key][0] for key in order]))
        assert np.array_equal(got.gradients, np.array([rows[key][1] for key in order]))
        assert got_rng.uniform() == ref_rng.uniform()

    def test_divergence_names_the_lowest_agent_not_the_earliest_iteration(self):
        # Each iterate moves up by 1; the gradient is infinite once it passes 3,
        # so an agent starting higher blows up at an earlier iteration.
        oracle = lambda p: np.where(p > 3.0, np.inf, 1.0)  # noqa: E731
        init = InitDensity.standard(1)
        cfg = AgentPoolConfig(step=1.0, num_agents=12, run_length=4)

        def first_bad(x):
            k = 0
            while k < 4 and not x > 3.0:
                x, k = x + 1.0, k + 1
            return k if k < 4 else None

        starts = init.sample(RngStream(9), size=cfg.num_agents)[:, 0]
        bad = [first_bad(x) for x in starts]
        lowest = next(a for a, k in enumerate(bad) if k is not None)
        assert min(k for k in bad if k is not None) < bad[lowest]

        with pytest.raises(NonFiniteError) as ref:
            reference_run_agent_pool(oracle, init, cfg, RngStream(9))
        with pytest.raises(NonFiniteError) as got:
            run_agent_pool(oracle, init, cfg, RngStream(9))
        assert str(got.value) == str(ref.value) == f"agent {lowest} diverged at iteration {bad[lowest]}"


class TestAgentPool:
    def test_noiseless_ascent_follows_the_exact_recursion(self):
        """Each emitted row must sit on theta_{k+1} = theta_k + eps * g(theta_k)."""
        oracle = quadratic_oracle(curvature=2.0, center=0.5)
        cfg = AgentPoolConfig(step=0.05, num_agents=7, run_length=40)
        stream = run_agent_pool(oracle, InitDensity.standard(3), cfg, RngStream(21))

        # Replay every agent by brute force from its first emitted point.
        for agent in range(cfg.num_agents):
            rows = range(agent * cfg.run_length, (agent + 1) * cfg.run_length)
            theta = stream.points[rows[0]].copy()
            for r in rows:
                np.testing.assert_allclose(stream.points[r], theta, rtol=0, atol=1e-14)
                g = oracle(theta)
                np.testing.assert_allclose(stream.gradients[r], g, rtol=0, atol=1e-14)
                theta = theta + cfg.step * g

    def test_contraction_toward_the_center(self):
        oracle = quadratic_oracle(curvature=1.0, center=2.0)
        cfg = AgentPoolConfig(step=0.1, num_agents=200, run_length=60)
        stream = run_agent_pool(oracle, InitDensity.standard(1), cfg, RngStream(4))
        by_agent = stream.points.reshape(cfg.num_agents, cfg.run_length, 1)
        first, last = by_agent[:, 0], by_agent[:, 59]
        # (1 - 0.1)^59 of the initial spread is essentially gone.
        assert np.abs(last - 2.0).mean() < 0.01 * np.abs(first - 2.0).mean()

    def test_stream_bookkeeping(self):
        cfg = AgentPoolConfig(step=0.01, num_agents=5, run_length=12)
        stream = run_agent_pool(quadratic_oracle(), InitDensity.standard(2), cfg, RngStream(1))
        assert len(stream) == 60
        assert stream.dim == 2
        # Agent-major rows: agent a's 12 iterations are rows 12a to 12a + 11,
        # the first of them start a of the one block of starts.
        starts = InitDensity.standard(2).sample(RngStream(1), size=5)
        np.testing.assert_array_equal(stream.points[::12], starts)

    def test_shuffle_preserves_the_multiset(self):
        cfg = AgentPoolConfig(step=0.01, num_agents=6, run_length=15)
        plain = run_agent_pool(quadratic_oracle(), InitDensity.standard(1), cfg, RngStream(3))
        mixed = plain.shuffled(RngStream(17))
        assert not np.array_equal(plain.points, mixed.points)
        np.testing.assert_array_equal(np.sort(plain.points, axis=0), np.sort(mixed.points, axis=0))

    def test_diverging_agent_is_reported(self):
        exploding = lambda p: p * 1e200 + 1e200  # noqa: E731
        cfg = AgentPoolConfig(step=1.0, num_agents=1, run_length=8)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="agent 0"):
                run_agent_pool(exploding, InitDensity.standard(1), cfg, RngStream(0))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AgentPoolConfig(step=0.0, num_agents=1, run_length=1)
        with pytest.raises(ConfigError):
            AgentPoolConfig(step=0.1, num_agents=0, run_length=1)
        with pytest.raises(ConfigError):
            AgentPoolConfig(step=0.1, num_agents=1, run_length=0)


class TestStreamSlicing:
    def setup_method(self):
        cfg = AgentPoolConfig(step=0.02, num_agents=4, run_length=25)
        self.stream = run_agent_pool(
            quadratic_oracle(), InitDensity.standard(2), cfg, RngStream(8)
        )

    def test_as_pools_chops_consecutively_and_drops_remainder(self):
        pools = list(self.stream.as_pools(30))
        assert len(pools) == len(self.stream) // 30
        np.testing.assert_array_equal(pools[0].points, self.stream.points[:30])
        np.testing.assert_array_equal(pools[1].gradients, self.stream.gradients[30:60])

    def test_as_pools_validates_size(self):
        with pytest.raises(ConfigError):
            next(self.stream.as_pools(0))


def test_pool_stream_draws_fresh_points():
    init = InitDensity.standard(2)
    pools = list(pool_stream(lambda pts: -pts, init, pool_size=16, num_pools=5, rng=RngStream(6)))
    assert len(pools) == 5
    for pool in pools:
        assert pool.points.shape == (16, 2)
        np.testing.assert_array_equal(pool.gradients, -pool.points)
    assert not np.array_equal(pools[0].points, pools[1].points)


def test_pool_stream_rejects_bad_oracle_shape():
    init = InitDensity.standard(2)
    gen = pool_stream(lambda pts: pts[:, :1], init, pool_size=4, num_pools=1, rng=RngStream(0))
    with pytest.raises(ConfigError):
        next(gen)


def test_gradient_stream_shape_validation():
    with pytest.raises(ConfigError):
        GradientStream(np.zeros((3, 2)), np.zeros((3, 1)))
