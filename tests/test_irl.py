"""Sampler step formulas, weight normalization, and trajectory plumbing."""

import dataclasses
import filecmp
import hashlib
import math
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from langirl import irl
from langirl.core import (
    ConfigError,
    DensityFloorError,
    GradientPool,
    GradientSample,
    NonFiniteError,
    RngStream,
    SourceExhausted,
)
from langirl.forward import InitDensity
from langirl.irl import (
    ACTIVE,
    CLASSICAL,
    MULTIKERNEL,
    NONREVERSIBLE,
    PASSIVE_CLASSICAL,
    PASSIVE_GATED,
    PASSIVE_GENERALIZED,
    VARIANTS,
    SamplerConfig,
    Trajectory,
    check_run,
    load_trajectory,
    normalized_weights,
    run_chains,
    run_sampler,
    save_trajectory,
    step_active,
    step_classical,
    step_multikernel,
    step_nonreversible,
    step_passive_classical,
    step_passive_gated,
    step_passive_generalized,
)
from langirl.kernels import FAMILIES, GAUSSIAN, TRUNCATED_GAUSSIAN, Kernel
from langirl.problems import logistic, mixture, synthetic
from langirl.problems.mixture import MixtureModel
from strategies import EDGE_FLOATS


class QueuedRng:
    """Hands out pre-chosen normal draws so step updates are exact to check."""

    def __init__(self, *draws):
        self.queue = [np.asarray(d, dtype=np.float64) for d in draws]

    def standard_normal(self, size=None):
        out = self.queue.pop(0)
        want = 1 if size is None else size
        assert out.size == want
        return out


def gauss_pdf(x, var=1.0):
    x = np.asarray(x, dtype=np.float64)
    return float(np.exp(-0.5 * (x * x).sum() / var) / (2 * math.pi * var) ** (x.size / 2))


def softmax_weights(est, points, sigma):
    """Plain-exponential reference for the pool weights."""
    d = points - est
    w = np.exp(-np.sum(d * d, axis=1) / (2 * sigma**2))
    return w / w.sum()


def stream_of(pairs):
    return [GradientSample(np.atleast_1d(np.float64(p)), np.atleast_1d(np.float64(g))) for p, g in pairs]


class TestStepFormulas:
    """Each variant's one-step update against a hand-expanded expectation."""

    kernel = Kernel(GAUSSIAN, 0.5, 1)

    def cfg(self, **kw):
        base = dict(step=0.1, beta=2.0, init=np.zeros(1), kernel=self.kernel,
                    init_density=InitDensity.standard(1))
        base.update(kw)
        return SamplerConfig(**base)

    def test_passive_generalized(self):
        cfg = self.cfg()
        est = np.array([0.2])
        sample = GradientSample(np.array([0.5]), np.array([3.0]))
        out = step_passive_generalized(est, sample, cfg, QueuedRng([0.7]))
        kern = gauss_pdf((0.5 - 0.2) / 0.5) / 0.5
        pval = gauss_pdf(0.2)
        pgrad = -0.2 * pval
        drift = 0.5 * 2.0 * kern * 3.0 + pgrad
        want = 0.2 + 0.1 * pval * drift + math.sqrt(0.1) * pval * 0.7
        np.testing.assert_allclose(out, [want], rtol=1e-13)

    def test_passive_gated(self):
        cfg = self.cfg()
        est = np.array([0.2])
        sample = GradientSample(np.array([0.5]), np.array([3.0]))
        out = step_passive_gated(est, sample, cfg, QueuedRng([0.7]))
        kraw = gauss_pdf((0.5 - 0.2) / 0.5)
        pval = gauss_pdf(0.5)
        pgrad = -0.5 * pval
        gate = (0.1 / 0.5) * kraw
        want = 0.2 + gate * (0.5 * 2.0 * pval * 3.0 + pgrad) + math.sqrt(gate * pval) * 0.7
        np.testing.assert_allclose(out, [want], rtol=1e-13)

    def test_passive_classical(self):
        cfg = self.cfg()
        est = np.array([0.2])
        sample = GradientSample(np.array([0.5]), np.array([3.0]))
        out = step_passive_classical(est, sample, cfg, QueuedRng([0.7]))
        kern = gauss_pdf((0.5 - 0.2) / 0.5) / 0.5
        gain = 0.1 * kern * 0.5 * 2.0 / gauss_pdf(0.2)
        want = 0.2 + gain * 3.0 + math.sqrt(0.1) * 0.7
        np.testing.assert_allclose(out, [want], rtol=1e-13)

    def test_nonreversible_premultiplies_gradient(self):
        skew = np.array([[0.0, 0.4], [-0.4, 0.0]])
        kernel = Kernel(GAUSSIAN, 0.5, 2)
        cfg = SamplerConfig(step=0.1, beta=2.0, init=np.zeros(2), kernel=kernel,
                            init_density=InitDensity.standard(2), skew=skew)
        est = np.array([0.1, -0.2])
        point = np.array([0.3, 0.1])
        grad = np.array([1.0, -2.0])
        draw = np.array([0.5, -0.25])
        out = step_nonreversible(est, GradientSample(point, grad), cfg, QueuedRng(draw))
        kern = gauss_pdf((point - est) / 0.5) / 0.5**2
        gain = 0.1 * kern * 0.5 * 2.0 / gauss_pdf(est)
        want = est + gain * (grad + skew @ grad) + math.sqrt(0.1) * draw
        np.testing.assert_allclose(out, want, rtol=1e-13)

    def test_multikernel(self):
        cfg = self.cfg(kernel=None, pool_size=3, conditional_std=0.3)
        est = np.array([0.1])
        pool = GradientPool(np.array([[0.0], [0.2], [0.5]]),
                            np.array([[1.0], [-1.0], [4.0]]))
        out = step_multikernel(est, pool, cfg, QueuedRng([0.7]))
        w = softmax_weights(est, pool.points, 0.3)
        want = 0.1 + 0.1 * 0.5 * 2.0 * float(w @ pool.gradients[:, 0]) + math.sqrt(0.1) * 0.7
        np.testing.assert_allclose(out, [want], rtol=1e-13)

    def test_active(self):
        cfg = self.cfg(conditional_std=0.3)
        est = np.array([0.2])
        seen = []

        def oracle(point):
            seen.append(point.copy())
            return np.array([2.5])

        out = step_active(est, oracle, cfg, QueuedRng([1.5], [0.7]))
        v = 0.3 * 1.5
        np.testing.assert_allclose(seen[0], [0.2 + v])
        kern = gauss_pdf(v / 0.5) / 0.5
        pden = gauss_pdf(v / 0.3) / 0.3
        gain = 0.1 * kern * 0.5 * 2.0 / pden
        want = 0.2 + gain * 2.5 + math.sqrt(0.1) * 0.7
        np.testing.assert_allclose(out, [want], rtol=1e-13)

    def test_classical(self):
        cfg = self.cfg(kernel=None, init_density=None)
        out = step_classical(np.array([0.2]), lambda p: np.array([3.0]), cfg, QueuedRng([0.7]))
        want = 0.2 + 0.1 * 0.5 * 2.0 * 3.0 + math.sqrt(0.1) * 0.7
        np.testing.assert_allclose(out, [want], rtol=1e-13)

    def test_density_floor_guard(self):
        cfg = self.cfg(init=np.array([40.0]))
        sample = GradientSample(np.array([40.1]), np.array([1.0]))
        with pytest.raises(DensityFloorError, match="below floor"):
            step_passive_classical(np.array([40.0]), sample, cfg, QueuedRng([0.0]))

    def test_active_probe_density_floor(self):
        cfg = self.cfg(conditional_std=0.3)
        with pytest.raises(DensityFloorError, match="probe density"):
            step_active(np.zeros(1), lambda p: np.ones(1), cfg, QueuedRng([45.0], [0.0]))


def float_steps_fail():
    """Patch every float step in `VARIANTS` to fail the test when a run takes it."""
    def fail(*args):
        raise AssertionError("took the float path")

    rows = {name: dataclasses.replace(row, float_step=fail) for name, row in VARIANTS.items() if row.float_step}
    return mock.patch.dict(irl.VARIANTS, rows)


def quadratic_pair_oracles(curvature, center, noise_std, seed):
    """Two quadratic oracles on equal streams: one for the block answer, one for the float form."""
    return [synthetic.quadratic_oracle(curvature, center, noise_std, RngStream(seed)) for _ in range(2)]


def mixture_pair_oracles(truth, component_var, likelihood_weight, prior_variances, seed):
    model = MixtureModel(true_param=np.array(truth), likelihood_weight=likelihood_weight,
                         prior_variances=prior_variances, component_var=component_var)
    return [mixture.make_stream_oracle(model, RngStream(seed)) for _ in range(2)]


ORACLE_PAIRS = st.one_of(
    st.builds(quadratic_pair_oracles, EDGE_FLOATS, EDGE_FLOATS,
              st.one_of(st.just(0.0), st.floats(0.0, 1e3)), st.integers(0, 2**32 - 1)),
    st.builds(mixture_pair_oracles, st.tuples(*[st.floats(-1e6, 1e6)] * 2), st.floats(1e-3, 1e3),
              st.floats(1e-3, 1e3), st.tuples(*[st.floats(1e-3, 1e3)] * 2), st.integers(0, 2**32 - 1)),
)


def numpy_block(row, est, items, cfg, draws):
    """The NumPy step iterated over a block, chain by chain inside each step as `run_chains` steps them."""
    states, rows = list(est), []
    for item, draw in zip(items, draws):
        states = [row.step(state, item, cfg, QueuedRng(chain_draw)) for state, chain_draw in zip(states, draw)]
        rows.append(states)
    return np.array(rows)


def block_draws(seed, chains, steps):
    """The (steps, chains, 2) draws a float block takes from `chain_rngs(seed, chains)`."""
    return np.stack([rng.standard_normal((steps, 2)) for rng in chain_rngs(seed, chains)], axis=1)


def chain_rngs(seed, chains):
    return [RngStream(seed + chain) for chain in range(chains)]


NEAR_OR_EDGE = st.one_of(st.floats(-50, 50), EDGE_FLOATS)


class TestFloatPath:
    """The plain-float blocks of 2-D runs and the oracles' float forms against their NumPy forms."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(
        variant=st.sampled_from([PASSIVE_GENERALIZED, PASSIVE_GATED]),
        family=st.sampled_from(FAMILIES),
        est=arrays(np.float64, st.tuples(st.integers(1, 4), st.just(2)), elements=NEAR_OR_EDGE),
        points=arrays(np.float64, st.tuples(st.integers(1, 5), st.just(2)), elements=NEAR_OR_EDGE),
        gradients=arrays(np.float64, (5, 2), elements=EDGE_FLOATS),
        bandwidth=st.floats(1e-2, 1e2),
        mean=arrays(np.float64, 2, elements=st.floats(-1e3, 1e3)),
        variances=arrays(np.float64, 2, elements=st.floats(1e-3, 1e3)),
        beta=st.floats(1e-3, 1e3),
        step=st.floats(1e-6, 1.0),
        seed=st.integers(0, 2**32 - 8),
    )
    def test_matches_the_numpy_form_bit_for_bit(
        self, variant, family, est, points, gradients, bandwidth, mean, variances, beta, step, seed
    ):
        cfg = SamplerConfig(step=step, beta=beta, init=np.zeros(2), kernel=Kernel(family, bandwidth, 2),
                            init_density=InitDensity(mean, variances))
        items = [GradientSample(p, g) for p, g in zip(points, gradients)]
        row, rngs = VARIANTS[variant], chain_rngs(seed, len(est))
        with np.errstate(all="ignore"):
            want = numpy_block(row, est, items, cfg, block_draws(seed, len(est), len(items)))
            got = row.float_step(est.tolist(), items, cfg, rngs)
        assert np.reshape(got, want.shape).tobytes() == want.tobytes()
        # The block took exactly its own draws.
        fresh = chain_rngs(seed, len(est))
        assert [rng.standard_normal() for rng in rngs] == [r.standard_normal(2 * len(items) + 1)[-1] for r in fresh]

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        oracles=ORACLE_PAIRS,
        est=arrays(np.float64, st.tuples(st.integers(1, 4), st.just(2)), elements=st.floats(-50, 50)),
        steps=st.integers(1, 5),
        beta=st.floats(1e-3, 1e3),
        step=st.floats(1e-6, 1.0),
        seed=st.integers(0, 2**32 - 8),
    )
    def test_classical_matches_the_numpy_form_bit_for_bit(self, oracles, est, steps, beta, step, seed):
        block, floats = oracles
        cfg = SamplerConfig(step=step, beta=beta, init=np.zeros(2))
        row = VARIANTS[CLASSICAL]
        with np.errstate(all="ignore"):
            want = numpy_block(row, est, [block] * steps, cfg, block_draws(seed, len(est), steps))
            got = row.float_step(est.tolist(), [floats.pairs] * steps, cfg, chain_rngs(seed, len(est)))
        assert np.reshape(got, want.shape).tobytes() == want.tobytes()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(oracles=ORACLE_PAIRS, points=arrays(np.float64, st.tuples(st.integers(1, 5), st.just(2)),
                                               elements=EDGE_FLOATS))
    def test_oracle_float_forms_give_the_block_answer(self, oracles, points):
        block, floats = oracles
        with np.errstate(all="ignore"):
            want = block(points)
            got = floats.pairs(points.tolist())
            assert np.array(got).tobytes() == want.tobytes()
            # Both used their streams alike.
            assert block(np.zeros((1, 2))).tobytes() == np.array(floats.pairs([[0.0, 0.0]])).tobytes()

    def test_other_shapes_take_the_numpy_form(self):
        # 1-D and 3-D passive runs, oracles with no float form, and one oracle per chain.
        passive = [(PASSIVE_GENERALIZED, dim, chains, small_corpus(dim)) for dim, chains in ((1, 3), (3, 3))]
        data = np.array([[1.0, 0.5], [1.0, -1.5], [1.0, 2.0]])
        oracles = [
            (CLASSICAL, 2, 1, synthetic.quadratic_oracle(np.array([1.0, 2.5]))),
            (CLASSICAL, 2, 1, synthetic.quadratic_oracle(1.0, np.array([0.5, -0.5]))),
            (CLASSICAL, 3, 3, synthetic.quadratic_oracle(1.0)),
            (CLASSICAL, 2, 2, logistic.make_stream_oracle(logistic.LogisticModel(data, np.array([1, 0, 1])))),
            (CLASSICAL, 2, 2, [synthetic.quadratic_oracle(1.0), synthetic.quadratic_oracle(1.0)]),
        ]
        for variant, dim, chains, source in passive + oracles:
            with float_steps_fail():
                trajs = run_chains(variant, source, dim_config(dim), chain_starts(dim, chains), 5,
                                   [RngStream(chain) for chain in range(chains)])
            assert len(trajs) == chains

    def test_2d_runs_take_the_float_path_at_any_chain_count(self):
        counts = (1, 12, 13, 24)
        cfg = dim_config(2)
        model = MixtureModel(true_param=np.array([-1.0, 2.0]))
        oracle = synthetic.quadratic_oracle(1.0, 0.5, 0.3, RngStream(1))
        for variant, source in ((PASSIVE_GENERALIZED, small_corpus(2)), (PASSIVE_GATED, small_corpus(2)),
                                (CLASSICAL, oracle), (CLASSICAL, mixture.make_stream_oracle(model, RngStream(2)))):
            for count in counts:
                with float_steps_fail(), pytest.raises(AssertionError, match="float path"):
                    run_chains(variant, source, cfg, chain_starts(2, count), 5, [RngStream(c) for c in range(count)])
        # A list that names one oracle for every chain is a shared oracle.
        with float_steps_fail(), pytest.raises(AssertionError, match="float path"):
            run_chains(CLASSICAL, [oracle] * 13, cfg, chain_starts(2, 13), 5, [RngStream(c) for c in range(13)])


def small_corpus(dim):
    points = 0.8 * RngStream(dim).standard_normal((20, dim))
    return [GradientSample(p, -p) for p in points]


def dim_config(dim):
    return SamplerConfig(step=0.01, beta=1.0, init=np.zeros(dim), kernel=Kernel(GAUSSIAN, 0.7, dim),
                         init_density=InitDensity.standard(dim))


def chain_starts(dim, chains):
    return [np.full(dim, 0.1 * chain) for chain in range(chains)]


# sha256 of seeded 2,100-step classical runs, computed before classical had a float path.
CLASSICAL_GOLDEN = {
    ("quadratic", 1, True): "a43daa6fe75a47d58c6aad9c0a3091ad17c3601ef83d71b6867d5c1bbfd1d676",
    ("quadratic", 3, True): "a7795ce02927e0fb05f2ed9a286e08515e18b6493f4d0d62b0fcf5d9acd0f8df",
    ("noisy", 1, True): "6fd3a5e3363f557a7dc86c833ed2af4cace08a673cb14cc7ca8252001c84bb96",
    ("noisy", 3, True): "2e314d2a48b82a9ae9769dfe42e0e61936adffed2f56cde91af23fe1ad5dda40",
    ("mixture", 1, True): "9c8139405ebbfd19c8e1d3f8a2d6cbf2127cdd0fd136645ca8a4ade32c313d27",
    ("mixture", 3, True): "3d50a46f607048380cfbeedab605e05c371b20a9863fad086319b541f01fc3c4",
    ("noisy", 1, False): "ea4cbd1616c91e434a7a4a88558981e09d7fcdd1260b508e07caf1807da85ba6",
}


@pytest.mark.parametrize("problem, chains, block_noise", sorted(CLASSICAL_GOLDEN))
def test_seeded_2d_classical_runs_keep_their_hashes(problem, chains, block_noise):
    rngs = [RngStream(60 + c) for c in range(chains)]
    # Without block noise the oracle draws from chain 0's noise stream between steps.
    oracle_rng = RngStream(9) if block_noise else rngs[0]
    if problem == "quadratic":
        oracle = synthetic.quadratic_oracle(1.5, 0.25)
    elif problem == "noisy":
        oracle = synthetic.quadratic_oracle(1.5, 0.25, 0.7, oracle_rng)
    else:
        oracle = mixture.make_stream_oracle(MixtureModel(np.array([-1.0, 2.0]), likelihood_weight=5.0), oracle_rng)
    assert hasattr(oracle, "pairs")
    cfg = SamplerConfig(step=0.03, beta=1.2, init=np.zeros(2))
    starts = [[0.4 * c - 0.3, 0.1 * c + 0.2] for c in range(chains)]
    trajs = run_chains(CLASSICAL, oracle, cfg, starts, 2100, rngs, block_noise=block_noise)
    digest = hashlib.sha256(b"".join(t.samples.tobytes() for t in trajs)).hexdigest()
    assert digest == CLASSICAL_GOLDEN[problem, chains, block_noise]


# sha256 of seeded 300-step runs, computed before the float path existed.
GOLDEN = {
    (PASSIVE_GENERALIZED, GAUSSIAN, 1): "f074ac7e99cdb1570a21aecf0be10df369db6e4b4bdb5a36237aec4e858d844b",
    (PASSIVE_GENERALIZED, GAUSSIAN, 3): "ba21f5f8ec31459b48e0559f3f0f7cd1af5adf08a9718213a1f2fc6d015f7624",
    (PASSIVE_GENERALIZED, TRUNCATED_GAUSSIAN, 1): "06ebdcf7d8b7042c0a3e8d8f41771696dad1e4606c7fc298208834d7333a2358",
    (PASSIVE_GENERALIZED, TRUNCATED_GAUSSIAN, 3): "b7326efed35a8600ff65f399b02448dee9a9bd7b52fa9d11dce9f9cc37119844",
    (PASSIVE_GATED, GAUSSIAN, 1): "43e9d162bcb17b54085bfd4c0e62299c845f13d98ed6dd904a8ad99c76eb5517",
    (PASSIVE_GATED, GAUSSIAN, 3): "4cc859c81a36c318e39ad9910c349a6396064f0cf0d5d1fef7f0fab11e84fb2a",
    (PASSIVE_GATED, TRUNCATED_GAUSSIAN, 1): "a7c0979f949c6cb4428c7a654c23baf057a97175536ac961f11c5d16525366d2",
    (PASSIVE_GATED, TRUNCATED_GAUSSIAN, 3): "ffc45878ac8b41ba15bbe489f8da4f4267034c7cff4530bd2c1ae26ba55229c6",
}


@pytest.mark.parametrize("variant, family, chains", sorted(GOLDEN))
def test_seeded_2d_passive_runs_keep_their_hashes(variant, family, chains):
    rng = RngStream(5)
    points = 1.2 * rng.standard_normal((300, 2))
    corpus = [GradientSample(p, -2.0 * p) for p in points]
    cfg = SamplerConfig(step=0.02, beta=1.5, init=np.zeros(2), kernel=Kernel(family, 0.6, 2),
                        init_density=InitDensity(np.array([0.1, -0.2]), np.array([1.5, 0.8])))
    starts = [[0.3 * c, -0.2 * c] for c in range(chains)]
    trajs = run_chains(variant, corpus, cfg, starts, 300, [RngStream(40 + c) for c in range(chains)])
    digest = hashlib.sha256(b"".join(t.samples.tobytes() for t in trajs)).hexdigest()
    assert digest == GOLDEN[variant, family, chains]


class TestNormalizedWeights:
    def test_matches_direct_softmax(self):
        for seed in range(20):
            rng = RngStream(seed)
            dim = 1 + seed % 4
            est = rng.standard_normal(dim)
            points = rng.standard_normal((30, dim))
            sigma = 0.2 + 0.5 * float(rng.uniform())
            weights, underflowed = normalized_weights(est, points, sigma)
            assert not underflowed
            np.testing.assert_allclose(weights, softmax_weights(est, points, sigma), atol=1e-12)
            assert abs(weights.sum() - 1.0) < 1e-12

    def test_uniform_fallback_on_total_underflow(self):
        points = np.full((4, 1), 10.0)
        weights, underflowed = normalized_weights(np.zeros(1), points, 0.1)
        assert underflowed
        np.testing.assert_array_equal(weights, np.full(4, 0.25))

    def test_large_spread_without_total_underflow_keeps_real_weights(self):
        points = np.array([[0.05], [3.0]])
        weights, underflowed = normalized_weights(np.zeros(1), points, 0.1)
        assert not underflowed
        assert weights[0] > 0.999999

    def test_underflow_count_surfaces_in_trajectory(self):
        pools = [GradientPool(np.full((2, 1), 50.0), np.zeros((2, 1))) for _ in range(5)]
        cfg = SamplerConfig(step=1e-4, beta=1.0, init=np.zeros(1), pool_size=2,
                            conditional_std=0.1)
        traj = run_sampler(MULTIKERNEL, pools, cfg, 5, RngStream(0))
        assert traj.underflow_resets == 5


class TestSkewReduction:
    def quadratic_stream(self, n, seed, dim=2):
        rng = RngStream(seed)
        out = []
        for _ in range(n):
            p = rng.standard_normal(dim)
            out.append(GradientSample(p, -p))
        return out

    def base_cfg(self, skew):
        return SamplerConfig(step=5e-3, beta=1.0, init=np.zeros(2),
                             kernel=Kernel(GAUSSIAN, 0.8, 2),
                             init_density=InitDensity.standard(2), skew=skew)

    def test_zero_skew_is_bitwise_identical_to_passive_classical(self):
        stream = self.quadratic_stream(400, seed=11)
        plain_cfg = SamplerConfig(step=5e-3, beta=1.0, init=np.zeros(2),
                                  kernel=Kernel(GAUSSIAN, 0.8, 2),
                                  init_density=InitDensity.standard(2))
        a = run_sampler(NONREVERSIBLE, stream, self.base_cfg(np.zeros((2, 2))), 400, RngStream(7))
        b = run_sampler(PASSIVE_CLASSICAL, stream, plain_cfg, 400, RngStream(7))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_nonzero_skew_changes_the_path(self):
        stream = self.quadratic_stream(400, seed=11)
        skew = np.array([[0.0, 0.9], [-0.9, 0.0]])
        a = run_sampler(NONREVERSIBLE, stream, self.base_cfg(skew), 400, RngStream(7))
        b = run_sampler(NONREVERSIBLE, stream, self.base_cfg(np.zeros((2, 2))), 400, RngStream(7))
        assert not np.array_equal(a.samples, b.samples)


class TestRunSampler:
    def small_cfg(self):
        return SamplerConfig(step=1e-3, beta=2.0, init=np.zeros(1),
                             kernel=Kernel(GAUSSIAN, 0.5, 1),
                             init_density=InitDensity.standard(1))

    def test_records_initial_point_and_length(self):
        stream = stream_of([(0.1, -0.1)] * 20)
        traj = run_sampler(PASSIVE_GENERALIZED, stream, self.small_cfg(), 20, RngStream(3))
        assert traj.samples.shape == (21, 1)
        np.testing.assert_array_equal(traj.samples[0], [0.0])
        assert traj.burn_in == 2
        assert len(traj.post) == 19

    def test_explicit_burn_in_and_post_view(self):
        stream = stream_of([(0.1, -0.1)] * 10)
        traj = run_sampler(PASSIVE_GENERALIZED, stream, self.small_cfg(), 10, RngStream(3), burn_in=7)
        np.testing.assert_array_equal(traj.post, traj.samples[7:])

    def test_reruns_are_byte_identical(self):
        stream = stream_of([(0.3, -0.3), (0.1, -0.1)] * 50)
        one = run_sampler(PASSIVE_GENERALIZED, stream, self.small_cfg(), 100, RngStream(9))
        two = run_sampler(PASSIVE_GENERALIZED, stream, self.small_cfg(), 100, RngStream(9))
        np.testing.assert_array_equal(one.samples, two.samples)
        assert one.fingerprint == two.fingerprint

    def test_source_exhausted_names_progress(self):
        stream = stream_of([(0.1, -0.1)] * 3)
        with pytest.raises(SourceExhausted, match="after 3 of 10"):
            run_sampler(PASSIVE_GENERALIZED, stream, self.small_cfg(), 10, RngStream(3))

    def test_non_finite_estimate_names_the_step(self):
        cfg = SamplerConfig(step=1e-3, beta=2.0, init=np.zeros(1))
        with pytest.raises(NonFiniteError, match="sampler step 1"):
            run_sampler(CLASSICAL, lambda p: np.full(1, math.inf), cfg, 10, RngStream(3))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="unknown variant"):
            run_sampler("smoothed", [], self.small_cfg(), 1, RngStream(0))

    def test_check_run_returns_the_row_and_names_bad_step_counts(self):
        cfg = self.small_cfg()
        assert check_run(PASSIVE_GENERALIZED, cfg, 10) is VARIANTS[PASSIVE_GENERALIZED]
        assert check_run(PASSIVE_GENERALIZED, cfg, 10, burn_in=10) is VARIANTS[PASSIVE_GENERALIZED]
        with pytest.raises(ConfigError, match="num_steps must be non-negative, got -1"):
            run_sampler(PASSIVE_GENERALIZED, [], cfg, -1, RngStream(0))
        for burn_in in (-1, 11):
            with pytest.raises(ConfigError, match=rf"burn_in must lie in \[0, num_steps\], got {burn_in}"):
                run_sampler(PASSIVE_GENERALIZED, [], cfg, 10, RngStream(0), burn_in=burn_in)

    def test_oracle_variant_needs_callable(self):
        cfg = SamplerConfig(step=1e-3, beta=2.0, init=np.zeros(1))
        with pytest.raises(ConfigError, match="callable"):
            run_sampler(CLASSICAL, [GradientSample(np.zeros(1), np.zeros(1))], cfg, 1, RngStream(0))

    @pytest.mark.parametrize(
        "variant,missing",
        [
            (PASSIVE_GENERALIZED, "kernel"),
            (PASSIVE_GATED, "init_density"),
            (PASSIVE_CLASSICAL, "init_density"),
            (NONREVERSIBLE, "skew"),
            (MULTIKERNEL, "conditional_std"),
            (ACTIVE, "conditional_std"),
        ],
    )
    def test_missing_config_piece_is_named(self, variant, missing):
        full = dict(step=1e-3, beta=2.0, init=np.zeros(1),
                    kernel=Kernel(GAUSSIAN, 0.5, 1),
                    init_density=InitDensity.standard(1),
                    conditional_std=0.2, skew=np.zeros((1, 1)))
        full[missing] = None
        with pytest.raises(ConfigError, match=missing):
            run_sampler(variant, [], SamplerConfig(**full), 1, RngStream(0))

    @pytest.mark.parametrize("sigma, dim", [(1e-200, 2), (0.01, 155)])
    def test_active_conditional_std_whose_power_overflows_is_refused_before_any_step(self, sigma, dim):
        # `step_active` takes sigma**-dim as a Python float, which raises OverflowError past the float range.
        cfg = SamplerConfig(step=1e-3, beta=2.0, init=np.zeros(dim), kernel=Kernel(GAUSSIAN, 0.5, dim),
                            conditional_std=sigma)
        queried = []
        with pytest.raises(ConfigError, match=rf"conditional_std {sigma} is too small .* overflows"):
            run_sampler(ACTIVE, lambda point: queried.append(point) or np.zeros(dim), cfg, 5, RngStream(0))
        assert queried == []

    def test_gated_gain_ratio_warning(self):
        cfg = SamplerConfig(step=0.3, beta=2.0, init=np.zeros(1),
                            kernel=Kernel(GAUSSIAN, 0.5, 1),
                            init_density=InitDensity.standard(1))
        assert cfg.gain_ratio == pytest.approx(0.6)
        stream = stream_of([(0.1, -0.1)] * 5)
        with pytest.warns(RuntimeWarning, match="not small"):
            run_sampler(PASSIVE_GATED, stream, cfg, 5, RngStream(1))

    def test_gated_quiet_when_gain_ratio_small(self):
        import warnings as w

        stream = stream_of([(0.1, -0.1)] * 5)
        with w.catch_warnings():
            w.simplefilter("error")
            run_sampler(PASSIVE_GATED, stream, self.small_cfg(), 5, RngStream(1))

    def test_zero_steps_allowed(self):
        traj = run_sampler(CLASSICAL, lambda p: -p,
                           SamplerConfig(step=1e-3, beta=2.0, init=np.ones(1)), 0, RngStream(0))
        assert traj.samples.shape == (1, 1)
        assert traj.burn_in == 0

    def test_bad_step_counts_rejected(self):
        cfg = SamplerConfig(step=1e-3, beta=2.0, init=np.zeros(1))
        with pytest.raises(ConfigError):
            run_sampler(CLASSICAL, lambda p: -p, cfg, -1, RngStream(0))
        with pytest.raises(ConfigError):
            run_sampler(CLASSICAL, lambda p: -p, cfg, 5, RngStream(0), burn_in=6)

    def test_variant_listing_is_closed(self):
        assert set(VARIANTS) == {
            PASSIVE_GENERALIZED, PASSIVE_GATED, PASSIVE_CLASSICAL, MULTIKERNEL,
            ACTIVE, NONREVERSIBLE, CLASSICAL,
        }


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SamplerConfig(step=0.0, beta=1.0, init=np.zeros(1))
        with pytest.raises(ConfigError):
            SamplerConfig(step=0.1, beta=0.0, init=np.zeros(1))
        with pytest.raises(ConfigError):
            SamplerConfig(step=0.1, beta=1.0, init=np.zeros(2), kernel=Kernel(GAUSSIAN, 1.0, 1))
        with pytest.raises(ConfigError):
            SamplerConfig(step=0.1, beta=1.0, init=np.zeros(2), init_density=InitDensity.standard(1))
        with pytest.raises(ConfigError):
            SamplerConfig(step=0.1, beta=1.0, init=np.zeros(1), pool_size=0)
        with pytest.raises(ConfigError):
            SamplerConfig(step=0.1, beta=1.0, init=np.zeros(1), conditional_std=0.0)
        with pytest.raises(ConfigError):
            SamplerConfig(step=0.1, beta=1.0, init=np.zeros(2), skew=np.zeros((3, 3)))
        with pytest.raises(ConfigError, match="S \\+ S.T"):
            SamplerConfig(step=0.1, beta=1.0, init=np.zeros(2), skew=np.eye(2))

    def test_gain_ratio_without_kernel_is_none(self):
        cfg = SamplerConfig(step=0.1, beta=1.0, init=np.zeros(1))
        assert cfg.gain_ratio is None

    def test_to_dict_round_trips_fields(self):
        cfg = SamplerConfig(step=0.1, beta=1.0, init=np.array([1.0, 2.0]),
                            kernel=Kernel(GAUSSIAN, 0.3, 2), pool_size=4,
                            conditional_std=0.2,
                            skew=np.array([[0.0, 1.0], [-1.0, 0.0]]))
        d = cfg.to_dict()
        assert d["kernel"] == {"family": GAUSSIAN, "bandwidth": 0.3, "dim": 2}
        assert d["pool_size"] == 4
        assert d["skew"] == [[0.0, 1.0], [-1.0, 0.0]]


class TestTrajectoryStorage:
    def make(self, seed=5):
        cfg = SamplerConfig(step=1e-3, beta=2.0, init=np.zeros(2))
        traj = run_sampler(CLASSICAL, lambda p: -p, cfg, 50, RngStream(seed))
        return traj, cfg

    def test_round_trip_preserves_everything(self, tmp_path):
        traj, cfg = self.make()
        save_trajectory(traj, cfg, tmp_path, stem="run")
        back, meta = load_trajectory(tmp_path, stem="run")
        np.testing.assert_array_equal(back.samples, traj.samples)
        assert back.variant == traj.variant
        assert back.burn_in == traj.burn_in
        assert back.fingerprint == traj.fingerprint
        assert back.seed == traj.seed
        assert meta["config"]["step"] == 1e-3

    def test_resave_is_byte_identical(self, tmp_path):
        traj, cfg = self.make()
        save_trajectory(traj, cfg, tmp_path / "a", stem="run")
        back, _ = load_trajectory(tmp_path / "a", stem="run")
        save_trajectory(back, cfg, tmp_path / "b", stem="run")
        assert filecmp.cmp(tmp_path / "a" / "run.csv", tmp_path / "b" / "run.csv", shallow=False)
        assert filecmp.cmp(tmp_path / "a" / "run.json", tmp_path / "b" / "run.json", shallow=False)

    @settings(max_examples=150, derandomize=True, database=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 3)),
            elements=EDGE_FLOATS,
        )
    )
    def test_round_trip_is_bit_exact(self, samples):
        traj = Trajectory(samples=samples, burn_in=0, variant=CLASSICAL, fingerprint="x")
        cfg = SamplerConfig(step=1e-3, beta=2.0, init=np.zeros(samples.shape[1]))
        with tempfile.TemporaryDirectory() as tmp:
            save_trajectory(traj, cfg, tmp, stem="run")
            back, _ = load_trajectory(tmp, stem="run")
        assert back.samples.tobytes() == traj.samples.tobytes()

    def test_round_trip_keeps_the_bytes_of_edge_values(self, tmp_path):
        # Exponent forms, a signed zero and the smallest subnormal, as `repr` writes them.
        samples = np.array([[1e-05, 1e16], [-0.0, 5e-324], [-5e-324, 0.1]])
        traj = Trajectory(samples=samples, burn_in=0, variant=CLASSICAL, fingerprint="x")
        csv_path, _ = save_trajectory(traj, SamplerConfig(step=1e-3, beta=2.0, init=np.zeros(2)), tmp_path)
        assert "1e-05,1e+16" in open(csv_path).read()
        back, _ = load_trajectory(tmp_path)
        assert back.samples.tobytes() == samples.tobytes()

    def test_fingerprint_tracks_run_identity(self):
        one, _ = self.make(seed=5)
        two, _ = self.make(seed=5)
        other, _ = self.make(seed=6)
        assert one.fingerprint == two.fingerprint
        assert one.fingerprint != other.fingerprint

    def test_header_mismatch_rejected(self, tmp_path):
        traj, cfg = self.make()
        save_trajectory(traj, cfg, tmp_path, stem="run")
        csv_path = tmp_path / "run.csv"
        body = csv_path.read_text().splitlines()
        body[0] = "tick,est_1,est_2"
        csv_path.write_text("\n".join(body) + "\n")
        with pytest.raises(ConfigError, match="header"):
            load_trajectory(tmp_path, stem="run")

    def test_trajectory_validation(self):
        with pytest.raises(ConfigError):
            Trajectory(samples=np.zeros(5), burn_in=0, variant=CLASSICAL, fingerprint="x")
        with pytest.raises(ConfigError):
            Trajectory(samples=np.zeros((5, 1)), burn_in=5, variant=CLASSICAL, fingerprint="x")
