"""Several chains: `run_chains` against the same chains run one at a time."""

import contextlib
import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest

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
    PASSIVE_CLASSICAL,
    PASSIVE_GATED,
    PASSIVE_GENERALIZED,
    VARIANTS,
    SamplerConfig,
    run_chains,
    run_sampler,
)
from langirl.kernels import Kernel
from langirl.problems import synthetic

# More steps than one noise and finite-check block, so a block boundary is crossed.
STEPS = 1100

# The third chain starts so far from every pool point that all of its
# multikernel weights underflow, while the first two never do.
INITS = ([0.0, 0.0], [0.5, -0.5], [12.0, -12.0])


def corpus(seed=0, n=STEPS):
    rng = RngStream(seed)
    points = 1.5 * rng.standard_normal((n, 2))
    return [GradientSample(p, -p) for p in points]


def pools(seed=1, n=STEPS, size=8):
    rng = RngStream(seed)
    points = rng.standard_normal((n, size, 2))
    return [GradientPool(p, -p) for p in points]


def source_for(variant):
    kind = VARIANTS[variant].source
    if kind == "oracle":
        return lambda p: -p
    return pools() if kind == "pool" else corpus()


def config():
    return SamplerConfig(
        step=0.01,
        beta=1.0,
        init=np.zeros(2),
        kernel=Kernel(0.8, 2),
        init_density=InitDensity(np.zeros(2), np.full(2, 2.0)),
        pool_size=8,
        conditional_std=0.3,
        skew=np.array([[0.0, 0.4], [-0.4, 0.0]]),
    )


def started(cfg, start):
    """`cfg` with `start` as its init: the config `run_sampler` runs one chain of a set under."""
    return dataclasses.replace(cfg, init=np.asarray(start))


def chain_rngs(count=len(INITS)):
    root = RngStream(21)
    return [root.child(10 + chain) for chain in range(count)]


def per_chain_sources(variant):
    """One source per chain, each drawn from its own stream: noisy oracles, pools or corpora."""
    kind = VARIANTS[variant].source
    if kind == "oracle":
        return [synthetic.quadratic_oracle(1.0, 0.0, 0.3, RngStream(30 + chain)) for chain in range(len(INITS))]
    return [(pools if kind == "pool" else corpus)(seed=30 + chain) for chain in range(len(INITS))]


def combined(sources):
    """The one source that gives chain c its own source: the oracles' list, or one list per step of every chain's item."""
    if callable(sources[0]):
        return list(sources)
    return [list(row) for row in zip(*sources)]


SHARED = [pytest.param(variant, False, id=variant) for variant in sorted(VARIANTS)]
OWN = [pytest.param(variant, True, id=f"{variant}-own-sources") for variant in sorted(VARIANTS)]


@pytest.mark.parametrize("variant, own_sources", SHARED + OWN)
def test_batch_matches_chains_run_one_at_a_time(variant, own_sources):
    # With own sources, per-step lists of one sample or pool per chain, or a
    # list of one oracle per chain, give each chain in the batch a source of
    # its own; 2-D float variants then take the NumPy steps.
    cfg = config()
    if own_sources:
        source = combined(per_chain_sources(variant))
        sources = per_chain_sources(variant)
    else:
        source = source_for(variant)
        sources = [source] * len(INITS)
    batch = run_chains(variant, source, cfg, INITS, STEPS, chain_rngs())
    alone = [run_sampler(variant, src, started(cfg, start), STEPS, rng)
             for src, start, rng in zip(sources, INITS, chain_rngs())]
    assert len(batch) == len(alone)
    for got, want in zip(batch, alone):
        np.testing.assert_array_equal(got.samples, want.samples)
        assert got.fingerprint == want.fingerprint
        assert got.underflow_resets == want.underflow_resets
        assert got.seed == want.seed
        assert got.burn_in == want.burn_in
    assert len({t.fingerprint for t in batch}) == len(batch)
    if variant == MULTIKERNEL:
        assert [t.underflow_resets for t in batch] == [0, 0, STEPS]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_block_noise_equals_drawing_at_every_step(variant):
    cfg = started(config(), INITS[1])
    ahead, now = RngStream(4), RngStream(4)
    a = run_sampler(variant, source_for(variant), cfg, STEPS, ahead)
    b = run_sampler(variant, source_for(variant), cfg, STEPS, now, block_noise=False)
    np.testing.assert_array_equal(a.samples, b.samples)
    # Drawing ahead takes no number the run does not use.
    assert ahead.standard_normal() == now.standard_normal()


# Thirteen chains: a 2-D run with a float step takes floats at any chain count.
MANY_INITS = tuple([0.2 * chain - 1.5, 0.1 * chain] for chain in range(13))


def numpy_steps_only(chains=None):
    """Drop every float step from `VARIANTS`, so a run takes the NumPy steps; with `chains`, only for 13 chains."""
    if chains is not None and chains != len(MANY_INITS):
        return contextlib.nullcontext()
    rows = {name: dataclasses.replace(row, float_step=None) for name, row in VARIANTS.items() if row.float_step}
    return mock.patch.dict(irl.VARIANTS, rows)


@pytest.mark.parametrize("variant", [PASSIVE_GENERALIZED, PASSIVE_GATED])
def test_numpy_batch_beyond_the_float_cap_matches_float_chains(variant):
    # Thirteen chains stepped one by one in NumPy against each chain alone in floats.
    cfg = config()
    with numpy_steps_only():
        batch = run_chains(variant, corpus(), cfg, MANY_INITS, STEPS, chain_rngs(len(MANY_INITS)))
    alone = [run_sampler(variant, corpus(), started(cfg, start), STEPS, rng)
             for start, rng in zip(MANY_INITS, chain_rngs(len(MANY_INITS)))]
    for got, want in zip(batch, alone):
        assert got.samples.tobytes() == want.samples.tobytes()


@pytest.mark.parametrize("chains", [1, 3, len(MANY_INITS)])
@pytest.mark.parametrize("variant", [PASSIVE_GENERALIZED, PASSIVE_GATED])
def test_infinite_gradient_names_chain_and_step(variant, chains):
    # Every chain turns non-finite at the bad sample; the first one is named,
    # whether the steps run in floats (1 and 3 chains) or in NumPy (13).
    stream = corpus(n=10)
    stream[5] = GradientSample(stream[5].point, np.array([np.inf, 1.0]))
    prefix = "chain 0: " if chains > 1 else ""
    with pytest.raises(NonFiniteError, match=rf"^{prefix}estimate became non-finite at sampler step 6$"):
        with np.errstate(all="ignore"), numpy_steps_only(chains):
            run_chains(variant, stream, config(), MANY_INITS[:chains], 10, chain_rngs(chains))


@pytest.mark.parametrize("items", [50, 200])
@pytest.mark.parametrize("chains", [1, 3, len(MANY_INITS)])
@pytest.mark.parametrize("variant", [PASSIVE_GENERALIZED, PASSIVE_GATED])
def test_a_source_running_out_mid_block_names_its_step(variant, chains, items):
    # The first and a later 128-step block, in floats (1 and 3 chains) or in NumPy (13).
    message = rf"^stream source exhausted after {items} of 300 steps$"
    with numpy_steps_only(chains), pytest.raises(SourceExhausted, match=message):
        run_chains(variant, corpus(n=items), config(), MANY_INITS[:chains], 300, chain_rngs(chains))


def test_density_floor_names_chain_and_step():
    starts = ([0.0, 0.0], [60.0, 0.0], [70.0, 0.0])
    with pytest.raises(DensityFloorError, match=r"^chain 1: initialization density .* at sampler step 1$"):
        run_chains(PASSIVE_CLASSICAL, corpus(), config(), starts, 10, chain_rngs())


def test_non_finite_estimate_names_chain_and_step():
    def oracle(point):
        return np.where(point[..., :1] > 5.0, np.inf, -point)

    starts = ([0.0, 0.0], [0.0, 0.0], [6.0, 0.0])
    with pytest.raises(NonFiniteError, match=r"^chain 2: estimate became non-finite at sampler step 1$"):
        run_chains(CLASSICAL, oracle, config(), starts, 10, chain_rngs())


def test_one_chain_messages_name_no_chain():
    cfg = SamplerConfig(step=1e-3, beta=1.0, init=np.zeros(2))
    with pytest.raises(NonFiniteError, match=r"^estimate became non-finite at sampler step 1$"):
        run_sampler(CLASSICAL, lambda p: np.full(2, np.inf), cfg, 3, RngStream(0))


@pytest.mark.parametrize("starts, chains", [(INITS[:2], 3), (INITS, 2), ([[0.0, 0.0, 0.0]] * 3, 3), ([0.0, 0.0], 1),
                                            ([], 0), (INITS, 0)],
                         ids=["fewer-rows", "fewer-rngs", "3-d-rows", "a-flat-row", "no-chain", "no-rng"])
def test_starts_need_one_row_of_the_config_dim_per_rng(starts, chains):
    with pytest.raises(ConfigError, match=r"^run_chains needs one start row of 2 per rng, at least one; got "):
        run_chains(PASSIVE_GENERALIZED, corpus(), config(), starts, 5, chain_rngs(chains))


def test_a_chain_starts_at_its_row_not_at_the_config_init():
    cfg = started(config(), [5.0, 5.0])
    trajs = run_chains(PASSIVE_GENERALIZED, corpus(), cfg, INITS, 5, chain_rngs())
    assert [t.samples[0].tolist() for t in trajs] == list(INITS)


def test_an_oracle_list_needs_one_callable_per_chain():
    oracles = per_chain_sources(CLASSICAL)
    for source in (oracles[:2], oracles + oracles[:1], oracles[:2] + [np.zeros(2)]):
        with pytest.raises(ConfigError, match="expects a gradient oracle callable or a list of one per chain"):
            run_chains(CLASSICAL, source, config(), INITS, 5, chain_rngs())


@pytest.mark.parametrize("variant", [MULTIKERNEL, PASSIVE_GENERALIZED, PASSIVE_CLASSICAL])
def test_a_list_item_needs_one_part_per_chain(variant):
    source = combined(per_chain_sources(variant))
    source[200] = source[200][:2]
    with pytest.raises(ConfigError, match=r"^sampler step 201: a list item needs one part per chain, got 2$"):
        run_chains(variant, source, config(), INITS, STEPS, chain_rngs())


@pytest.mark.parametrize("variant", [PASSIVE_GENERALIZED, PASSIVE_GATED])
def test_float_chains_meeting_a_list_item_go_on_in_numpy(variant):
    # Shared samples fill the first float blocks; from the block that holds
    # the first per-chain list on, the chains take the NumPy steps, with the
    # bits each chain gives alone on the same samples.
    shared, own = corpus()[:300], per_chain_sources(variant)
    source = shared + combined(own)[300:]
    batch = run_chains(variant, source, config(), INITS, STEPS, chain_rngs())
    alone = [run_sampler(variant, shared + src[300:], started(config(), start), STEPS, rng)
             for src, start, rng in zip(own, INITS, chain_rngs())]
    for got, want in zip(batch, alone):
        assert got.samples.tobytes() == want.samples.tobytes()


# sha256 of seeded 1,100-step runs of 3 chains on one shared noisy 3-D quadratic
# oracle, recorded when a NumPy step still asked the oracle about every chain
# in one (chains, dim) block call: chain by chain, the oracle must draw in
# the same order.
SHARED_ORACLE_GOLDEN = {
    ACTIVE: "fb146e3b9c17f6d1691a4737f3e52a2aaa4dbe9187cf8fa228a3f287838355c7",
    CLASSICAL: "23a975542405f1483904b07d5d43d6029768f322fd5bba9d684e5261e9af1e0d",
}


@pytest.mark.parametrize("variant", sorted(SHARED_ORACLE_GOLDEN))
def test_chains_on_one_shared_noisy_oracle_keep_their_hashes(variant):
    oracle = synthetic.quadratic_oracle(1.5, 0.25, 0.3, RngStream(9))
    cfg = SamplerConfig(step=0.03, beta=1.2, init=np.zeros(3), kernel=Kernel(0.7, 3), conditional_std=0.3)
    starts = [[0.4 * c - 0.3, 0.1 * c + 0.2, -0.2 * c] for c in range(3)]
    trajs = run_chains(variant, oracle, cfg, starts, STEPS, [RngStream(60 + c) for c in range(3)])
    digest = hashlib.sha256(b"".join(t.samples.tobytes() for t in trajs)).hexdigest()
    assert digest == SHARED_ORACLE_GOLDEN[variant]
