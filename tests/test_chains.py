"""Batched chains: `run_chains` against the same chains run one at a time."""

import numpy as np
import pytest

from langirl.core import (
    ConfigError,
    DensityFloorError,
    GradientPool,
    GradientSample,
    NonFiniteError,
    RngStream,
)
from langirl.forward import InitDensity
from langirl.irl import (
    CLASSICAL,
    MULTIKERNEL,
    NAIVE,
    PASSIVE_CLASSICAL,
    PASSIVE_GENERALIZED,
    VARIANTS,
    SamplerConfig,
    run_chains,
    run_sampler,
)
from langirl.kernels import FAMILIES, GAUSSIAN, Kernel
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


def configs(family=GAUSSIAN, inits=INITS):
    return [
        SamplerConfig(
            step=0.01,
            beta=1.0,
            init=np.asarray(init),
            kernel=Kernel(family, 0.8, 2),
            init_density=InitDensity(np.zeros(2), np.full(2, 2.0)),
            pool_size=8,
            conditional_std=0.3,
            skew=np.array([[0.0, 0.4], [-0.4, 0.0]]),
        )
        for init in inits
    ]


def chain_rngs(count=len(INITS)):
    root = RngStream(21)
    return [root.child(10 + chain) for chain in range(count)]


def per_chain_sources(variant):
    """One source per chain, each drawn from its own stream: noisy oracles or pools."""
    if VARIANTS[variant].source == "oracle":
        return [synthetic.quadratic_oracle(1.0, 0.0, 0.3, RngStream(30 + chain)) for chain in range(len(INITS))]
    return [pools(seed=30 + chain) for chain in range(len(INITS))]


def combined(sources):
    """The one source that gives chain c its own source's item in row c."""
    if callable(sources[0]):
        return lambda points: np.stack([oracle(p) for oracle, p in zip(sources, points)])
    return [GradientPool(*map(np.stack, zip(*row))) for row in zip(*sources)]


SHARED = [pytest.param(variant, False, id=variant) for variant in sorted(VARIANTS)]
OWN = [
    pytest.param(variant, True, id=f"{variant}-own-sources")
    for variant in sorted(VARIANTS)
    if VARIANTS[variant].source != "stream"
]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("variant, own_sources", SHARED + OWN)
def test_batch_matches_chains_run_one_at_a_time(variant, own_sources, family):
    # With own sources, stacked pools or a block oracle answering row c from
    # chain c's own oracle give each chain in the batch a source of its own.
    cfgs = configs(family)
    if own_sources:
        source = combined(per_chain_sources(variant))
        sources = per_chain_sources(variant)
    else:
        source = source_for(variant)
        sources = [source] * len(cfgs)
    batch = run_chains(variant, source, cfgs, STEPS, chain_rngs())
    alone = [run_sampler(variant, src, cfg, STEPS, rng) for src, cfg, rng in zip(sources, cfgs, chain_rngs())]
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
    cfg = configs()[1]
    ahead, now = RngStream(4), RngStream(4)
    a = run_sampler(variant, source_for(variant), cfg, STEPS, ahead)
    b = run_sampler(variant, source_for(variant), cfg, STEPS, now, block_noise=False)
    np.testing.assert_array_equal(a.samples, b.samples)
    # Drawing ahead takes no number the run does not use.
    assert ahead.standard_normal() == now.standard_normal()


def test_density_floor_names_chain_and_step():
    cfgs = configs(inits=([0.0, 0.0], [60.0, 0.0], [70.0, 0.0]))
    with pytest.raises(DensityFloorError, match=r"^chain 1: initialization density .* at sampler step 1$"):
        run_chains(PASSIVE_CLASSICAL, corpus(), cfgs, 10, chain_rngs())


def test_non_finite_estimate_names_chain_and_step():
    def oracle(point):
        return np.where(point[..., :1] > 5.0, np.inf, -point)

    cfgs = configs(inits=([0.0, 0.0], [0.0, 0.0], [6.0, 0.0]))
    with pytest.raises(NonFiniteError, match=r"^chain 2: estimate became non-finite at sampler step 1$"):
        run_chains(CLASSICAL, oracle, cfgs, 10, chain_rngs())


def test_one_chain_messages_name_no_chain():
    cfg = SamplerConfig(step=1e-3, beta=1.0, init=np.zeros(2))
    stream = [GradientSample(np.zeros(2), np.full(2, np.inf))] * 3
    with pytest.raises(NonFiniteError, match=r"^estimate became non-finite at sampler step 1$"):
        run_sampler(NAIVE, stream, cfg, 3, RngStream(0))


def test_configs_may_differ_only_in_init():
    cfgs = configs()
    other = SamplerConfig(step=0.02, beta=1.0, init=np.zeros(2), kernel=cfgs[0].kernel,
                          init_density=cfgs[0].init_density)
    with pytest.raises(ConfigError, match="only in init"):
        run_chains(PASSIVE_GENERALIZED, corpus(), [cfgs[0], other], 5, chain_rngs(2))
    with pytest.raises(ConfigError, match="one rng per config"):
        run_chains(PASSIVE_GENERALIZED, corpus(), cfgs, 5, chain_rngs(2))
    with pytest.raises(ConfigError, match="at least one config"):
        run_chains(PASSIVE_GENERALIZED, corpus(), [], 5, [])
