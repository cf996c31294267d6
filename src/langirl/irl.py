"""Langevin-style samplers that reconstruct a reward from observed gradient streams.

All variants share one goal: drive a Markov chain whose stationary law is the
Gibbs density proportional to exp(beta * R), where R is the reward implied by
the incoming gradients, while only ever touching gradient observations made at
points the estimator did not choose (except for the probing and oracle-driven
variants). The reward itself is then read off as the log of the empirical
density of the chain.

Variant overview
----------------
passive_generalized
    Kernel-weighted gradient plus a drift and noise both modulated by the
    initialization density evaluated at the current estimate.
passive_gated
    Every term, noise included, is gated by the kernel weight; density factors
    are evaluated at the observed point rather than the estimate.
passive_classical
    Kernel-weighted gradient divided by the initialization density at the
    estimate, with plain isotropic noise.
multikernel
    Weighted average of a whole pool of gradients, the weights given by a
    Gaussian conditional density centered at each pool point.
active
    The estimator chooses its own probe point near the estimate and corrects
    by the ratio of kernel weight to probe density.
nonreversible
    passive_classical with the gradient premultiplied by (I + S) for a
    skew-symmetric S, which provably preserves the stationary law.
classical
    Standard unadjusted Langevin ascent with direct oracle access, kept as the
    reference chain.

The passive clock: `passive_generalized` scales both its step and its noise by
the initialization density p at the estimate, so its limit diffusion is p(θ)
and one step advances Langevin time by about step·p(θ)², not by step. A
`passive_gated` step advances it by its noise variance gate·p, with gate =
step·K(u)/bandwidth^dim and p the density at the observed point; since
E[K_Δ] ≈ p that too is about step·p² on average. Where p is small a chain
barely moves, whatever its step count: a 2-D Gaussian init density with
variances 4 has p(0) = 1/(8π) ≈ 0.040, so step 0.5 advances 8e-4 time units
a step; at a 21-D estimate where p ≈ 4e-9, step 0.002 advances about 3e-20.

A variant is declared by one row of the `VARIANTS` table and one step
function. The row names the step, the kind of source it consumes (a stream of
GradientSample, a stream of GradientPool, or gradient oracles) and the
optional SamplerConfig fields it reads. `run_chains` is the only sampling loop
and reads everything it needs to know about a variant from that row. Its
chains share one SamplerConfig; chain c starts at `starts[c]`, so chains
differ only in their start and their noise. `run_sampler` is its one-chain
call, started at `cfg.init`.

A step function advances one chain: `est` is a (dim,) vector, and the kernel
weight, density and gate are NumPy scalars. Called directly with an rng, it
is the plain one-chain update, drawing from that rng when it needs noise.
`run_chains` steps several chains one by one inside each step, chain 0
first, by one rule for every source kind: chain c's part of a step's item is
`item[c]` when the item is a list (each of the CLI's CMDP pool items is one),
and the item itself otherwise. Chain c draws its noise from its own rng and
counts in its own SamplerStats, so its samples do not depend on how many
chains run beside it.

An oracle source is one callable that every chain calls, or a list of one
callable per chain; `run_chains` repeats it as every step's item. A step
calls its chain's oracle on its (dim,) point, so a shared oracle is called
once per chain per step, in chain order. Under the forward block contract
(see `forward`) that is what one call on the (chains, dim) block of those
points gives: n gradients bit for bit those of n successive single-point
calls, its rng or row counter used in row order. Every shipped oracle meets
it.

`run_chains` takes the plain-float path for a 2-D run, at any chain count,
whose variant has a float step (`passive_generalized`, `passive_gated`,
`classical`). A float step advances every chain over a block of up to 128
steps in Python floats, the kernel and the density written out inline, and
returns the block's rows; the next block starts from the last row written.
It reads one shared item per step, so from the first block that holds a list
item on, the run takes the NumPy steps, which give the same bits.
Chain c draws a block's noise in one `rngs[c].standard_normal((n, 2))` call,
the numbers per-step draws would give; without block noise a block is one
step. The float steps give the NumPy form's bits: the same IEEE operations
in the same order, every division kept; each sum in a 2-D step is one
addition of two non-negative terms, so it rounds alike however `einsum` or
`.sum(-1)` would reduce it (with three or more terms it would not, hence
2-D only); and each exponential is NumPy's `exp` on a float, which rounds as
the array loop does, where `math.exp` may not. The stream variants loop
chain by chain: every chain reads the same read-only samples and draws only
from its own rng, so the order of the chains changes no bit
(`passive_gated` computes its shared density bracket once per step, ahead
of the chain loop). `classical` loops step by step: a step asks the oracle
about every chain's point in one call, so a shared noisy oracle draws in
chain order.

`classical` takes the float path only when every chain calls one oracle that
has a float form: an `oracle.pairs` attribute that answers a list of n
(t0, t1) points with a list of n (g0, g1) gradients, bit for bit the
oracle's answer on the (n, 2) block of those points, its rng or row counter
used in the same order. `synthetic.quadratic_oracle` with a scalar curvature
and center and `mixture.make_stream_oracle` have one; an oracle without one
(logistic, a vector curvature) and a list of several chains' oracles keep
the NumPy form.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    ConfigError,
    DensityFloorError,
    GradientPool,
    GradientSample,
    NonFiniteError,
    RngStream,
    SourceExhausted,
    as_param,
    write_indexed_csv,
    write_json,
)
from .forward import InitDensity
from .kernels import Kernel, raw_eval, scaled_eval

PASSIVE_GENERALIZED = "passive_generalized"
PASSIVE_GATED = "passive_gated"
PASSIVE_CLASSICAL = "passive_classical"
MULTIKERNEL = "multikernel"
ACTIVE = "active"
NONREVERSIBLE = "nonreversible"
CLASSICAL = "classical"

# Source kinds: what `run_chains` hands a step function at every update.
STREAM = "stream"
POOL = "pool"
ORACLE = "oracle"

# Densities below this floor are an error when they appear as divisors.
DENSITY_FLOOR = 1e-300

# All pool weights underflowing double precision triggers the uniform fallback.
_UNDERFLOW_LOG = math.log(math.ulp(0.0))

# A gated gain ratio at or above this is no longer "small" and draws a warning.
_GAIN_RATIO_WARN = 0.5

# Steps per float-path noise draw, per write into the sample array and per
# finiteness check. The float path holds a block's noise and states as Python
# floats, so a block stays small.
_STEP_BLOCK = 128


@dataclass(frozen=True)
class SamplerConfig:
    """Static settings shared by the sampler variants.

    Not every field applies to every variant; `check_run` checks that the
    fields its variant needs are present. `conditional_std` is the Gaussian
    scale used both for multikernel pool weights and for active probing.
    `gain_ratio` is step / bandwidth**dim, the effective gain of fully gated
    updates, or None without a kernel.
    """

    step: float
    beta: float
    init: np.ndarray
    kernel: Kernel | None = None
    init_density: InitDensity | None = None
    pool_size: int = 1
    conditional_std: float | None = None
    skew: np.ndarray | None = None
    gain_ratio: float | None = field(default=None, init=False)

    def __post_init__(self):
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ConfigError("sampler step must be positive and finite")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ConfigError("beta must be positive and finite")
        object.__setattr__(self, "init", as_param(self.init))
        dim = self.init.size
        if self.kernel is not None:
            if self.kernel.dim != dim:
                raise ConfigError("kernel dim does not match the initial estimate")
            try:
                ratio = self.step / self.kernel.bandwidth**self.kernel.dim
            except OverflowError:
                ratio = math.inf
            if not math.isfinite(ratio):
                raise ConfigError("gain ratio step / bandwidth**dim is out of float range")
            object.__setattr__(self, "gain_ratio", ratio)
        if self.init_density is not None and self.init_density.dim != dim:
            raise ConfigError("init_density dim does not match the initial estimate")
        if self.pool_size < 1:
            raise ConfigError("pool_size must be at least 1")
        if self.conditional_std is not None and not self.conditional_std > 0:
            raise ConfigError("conditional_std must be positive")
        if self.skew is not None:
            s = np.asarray(self.skew, dtype=np.float64)
            if s.shape != (dim, dim):
                raise ConfigError("skew matrix shape must match the estimate dimension")
            if np.max(np.abs(s + s.T)) > 1e-12:
                raise ConfigError("skew matrix must satisfy S + S.T = 0 within 1e-12")
            object.__setattr__(self, "skew", s)

    @property
    def dim(self) -> int:
        return self.init.size

    def to_dict(self) -> dict:
        out = {"step": self.step, "beta": self.beta, "init": self.init.tolist()}
        if self.kernel is not None:
            # trajectory.json and the fingerprint record the one family; dropping it moves every hash.
            out["kernel"] = {
                "family": "gaussian",
                "bandwidth": self.kernel.bandwidth,
                "dim": self.kernel.dim,
            }
        if self.init_density is not None:
            out["init_density"] = {
                "mean": self.init_density.mean.tolist(),
                "variances": self.init_density.variances.tolist(),
            }
        if self.pool_size != 1:
            out["pool_size"] = self.pool_size
        if self.conditional_std is not None:
            out["conditional_std"] = self.conditional_std
        if self.skew is not None:
            out["skew"] = np.asarray(self.skew).tolist()
        return out


@dataclass
class SamplerStats:
    """Mutable counters one chain of a sampler run accumulates."""

    underflow_resets: int = 0


def _check_floor(value, what: str, where: str = "") -> None:
    """Raise DensityFloorError if a density used as a divisor is below DENSITY_FLOOR."""
    if value < DENSITY_FLOOR:
        raise DensityFloorError(f"{what} {float(value):.3e}{where} is below floor {DENSITY_FLOOR:.0e}")


def _query(oracle: Callable, point: np.ndarray) -> np.ndarray:
    """Oracle gradient at a (dim,) point."""
    return np.asarray(oracle(point), dtype=np.float64)


def step_passive_generalized(est, sample: GradientSample, cfg: SamplerConfig, rng) -> np.ndarray:
    """Density-modulated update from one streamed gradient sample."""
    kern = scaled_eval(cfg.kernel, sample.point - est)
    pval, pgrad = cfg.init_density.density_and_grad(est)
    drift = (0.5 * cfg.beta * kern) * sample.gradient + pgrad
    w = rng.standard_normal(est.size)
    return est + (cfg.step * pval) * drift + (math.sqrt(cfg.step) * pval) * w


def _passive_generalized_2d(state, items, cfg: SamplerConfig, rngs) -> np.ndarray:
    kernel, density = cfg.kernel, cfg.init_density
    band, norm = kernel.bandwidth, kernel._norm
    dnorm, (m0, m1), (v0, v1) = density._norm, density.mean.tolist(), density.variances.tolist()
    half_beta, step, root, scale, exp = 0.5 * cfg.beta, cfg.step, math.sqrt(cfg.step), kernel._scale, np.exp
    samples = [(s.point.tolist(), s.gradient.tolist()) for s in items]
    out = []
    for (e0, e1), rng in zip(state, rngs):
        for ((p0, p1), (g0, g1)), (w0, w1) in zip(samples, rng.standard_normal((len(items), 2)).tolist()):
            u0, u1 = (p0 - e0) / band, (p1 - e1) / band
            q = u0 * u0 + u1 * u1
            a = half_beta * (norm * float(exp(-0.5 * q)) * scale)
            z0, z1 = e0 - m0, e1 - m1
            pval = dnorm * float(exp(-0.5 * (z0 * z0 / v0 + z1 * z1 / v1)))
            gain, sd = step * pval, root * pval
            h0, h1 = a * g0 + -z0 / v0 * pval, a * g1 + -z1 / v1 * pval
            e0, e1 = e0 + gain * h0 + sd * w0, e1 + gain * h1 + sd * w1
            out += (e0, e1)
    return np.reshape(out, (len(state), len(items), 2)).swapaxes(0, 1)


def step_passive_gated(est, sample: GradientSample, cfg: SamplerConfig, rng) -> np.ndarray:
    """Fully kernel-gated update; noise only flows when the kernel fires.

    The noise standard deviation is the square root of the whole gated gain
    ``(step / bandwidth**dim) * K(u) * density(point)``, which is what makes
    the accumulated noise match the density-modulated diffusion limit. The
    density factors are those of the observed point, so chains share them.
    """
    band = cfg.kernel.bandwidth
    u = (sample.point - est) / band
    kraw = raw_eval(cfg.kernel, u)
    pval, pgrad = cfg.init_density.density_and_grad(sample.point)
    gate = cfg.gain_ratio * kraw
    drift = gate * ((0.5 * cfg.beta * pval) * sample.gradient + pgrad)
    w = rng.standard_normal(est.size)
    return est + drift + np.sqrt(gate * pval) * w


def _passive_gated_2d(state, items, cfg: SamplerConfig, rngs) -> np.ndarray:
    kernel, density = cfg.kernel, cfg.init_density
    band, norm = kernel.bandwidth, kernel._norm
    dnorm, (m0, m1), (v0, v1) = density._norm, density.mean.tolist(), density.variances.tolist()
    half_beta, ratio, exp = 0.5 * cfg.beta, cfg.gain_ratio, np.exp
    # The density and the gated drift's bracket belong to the shared sample point.
    shared = []
    for s in items:
        (p0, p1), (g0, g1) = s.point.tolist(), s.gradient.tolist()
        z0, z1 = p0 - m0, p1 - m1
        pval = dnorm * float(exp(-0.5 * (z0 * z0 / v0 + z1 * z1 / v1)))
        a = half_beta * pval
        shared.append((p0, p1, a * g0 + -z0 / v0 * pval, a * g1 + -z1 / v1 * pval, pval))
    out = []
    for (e0, e1), rng in zip(state, rngs):
        for (p0, p1, h0, h1, pval), (w0, w1) in zip(shared, rng.standard_normal((len(items), 2)).tolist()):
            u0, u1 = (p0 - e0) / band, (p1 - e1) / band
            q = u0 * u0 + u1 * u1
            gate = ratio * (norm * float(exp(-0.5 * q)))
            sd = math.sqrt(gate * pval)
            e0, e1 = e0 + gate * h0 + sd * w0, e1 + gate * h1 + sd * w1
            out += (e0, e1)
    return np.reshape(out, (len(state), len(items), 2)).swapaxes(0, 1)


def _classical_form_update(est, kern, gradient, cfg, rng) -> np.ndarray:
    pval = cfg.init_density.density(est)
    _check_floor(pval, "initialization density", " at the estimate")
    w = rng.standard_normal(est.size)
    gain = cfg.step * kern * 0.5 * cfg.beta / pval
    return est + gain * gradient + math.sqrt(cfg.step) * w


def step_passive_classical(est, sample: GradientSample, cfg: SamplerConfig, rng) -> np.ndarray:
    """Kernel-weighted gradient over the initialization density, plain noise."""
    kern = scaled_eval(cfg.kernel, sample.point - est)
    return _classical_form_update(est, kern, sample.gradient, cfg, rng)


def step_nonreversible(est, sample: GradientSample, cfg: SamplerConfig, rng) -> np.ndarray:
    """passive_classical with the gradient premultiplied by (I + S).

    With S = 0 this reproduces step_passive_classical exactly, draw for draw.
    """
    kern = scaled_eval(cfg.kernel, sample.point - est)
    gradient = sample.gradient + cfg.skew @ sample.gradient
    return _classical_form_update(est, kern, gradient, cfg, rng)


def normalized_weights(est, points, sigma: float) -> tuple[np.ndarray, bool]:
    """Pool weights from the Gaussian conditional density, in the log domain.

    Returns (weights, underflowed). When every unnormalized weight underflows
    double precision the weights come back uniform and the flag is set.
    """
    d = points - est
    logw = np.einsum("ij,ij->i", d, d) / (-2.0 * sigma * sigma)
    m = logw.max()
    if m < _UNDERFLOW_LOG:
        return np.full(len(points), 1.0 / len(points)), True
    w = np.exp(logw - m)
    return w / w.sum(), False


def step_multikernel(
    est, pool: GradientPool, cfg: SamplerConfig, rng, stats: SamplerStats | None = None
) -> np.ndarray:
    """Average a pool of gradients under conditional-density weights."""
    weights, underflowed = normalized_weights(est, pool.points, cfg.conditional_std)
    if stats is not None:
        stats.underflow_resets += underflowed
    w = rng.standard_normal(est.size)
    return est + (cfg.step * 0.5 * cfg.beta) * (weights @ pool.gradients) + math.sqrt(cfg.step) * w


def step_active(est, oracle: Callable, cfg: SamplerConfig, rng) -> np.ndarray:
    """Probe a Gaussian displacement of the estimate and reweight its gradient."""
    sigma = cfg.conditional_std
    dim = est.size
    v = sigma * rng.standard_normal(dim)
    gradient = _query(oracle, est + v)
    kern = scaled_eval(cfg.kernel, v)
    pden = (2.0 * math.pi) ** (-0.5 * dim) * sigma**-dim * math.exp(-0.5 * (v @ v) / (sigma * sigma))
    _check_floor(pden, "probe density")
    w = rng.standard_normal(dim)
    gain = cfg.step * kern * 0.5 * cfg.beta / pden
    return est + gain * gradient + math.sqrt(cfg.step) * w


def step_classical(est, oracle: Callable, cfg: SamplerConfig, rng) -> np.ndarray:
    """Reference chain: direct oracle gradient at the estimate."""
    gradient = _query(oracle, est)
    w = rng.standard_normal(est.size)
    return est + (cfg.step * 0.5 * cfg.beta) * gradient + math.sqrt(cfg.step) * w


def _classical_2d(state, items, cfg: SamplerConfig, rngs) -> np.ndarray:
    gain, root = cfg.step * 0.5 * cfg.beta, math.sqrt(cfg.step)
    out, noise = [], None
    for pairs in items:
        gradients = pairs(state)
        # Drawn after the oracle's first answer, as in the NumPy form: a one-step block needs it.
        noise = noise or zip(*[rng.standard_normal((len(items), 2)).tolist() for rng in rngs])
        rows = []
        for (e0, e1), (g0, g1), (w0, w1) in zip(state, gradients, next(noise)):
            rows.append((e0 + gain * g0 + root * w0, e1 + gain * g1 + root * w1))
        out += rows
        state = rows
    return np.fromiter(itertools.chain.from_iterable(out), np.float64)


@dataclass(frozen=True)
class Variant:
    """One row of the variant table.

    `step(est, item, cfg, rng)` makes one update of one chain's (dim,)
    estimate from its part of a step's item (`run_chains`): a GradientSample
    for a stream source, a GradientPool of (pool, dim) arrays for a pool
    source (pool steps also get the chain's SamplerStats), or an oracle
    callable. `needs` names the optional SamplerConfig fields the variant
    reads, none of which may be None; a POOL row also reads `pool_size`.
    `float_step(state, items, cfg, rngs)`, when set, makes one update per
    shared item for every chain of a 2-D run in plain floats (module
    docstring): `state` holds each chain's [e0, e1], chain c draws its noise
    from `rngs[c]`, an oracle variant's items are the shared oracle's float
    form, and it returns the block's rows, step-major.
    """

    step: Callable
    source: str
    needs: tuple = ()
    float_step: Callable | None = None


VARIANTS = {
    PASSIVE_GENERALIZED: Variant(
        step_passive_generalized, STREAM, ("kernel", "init_density"), float_step=_passive_generalized_2d
    ),
    PASSIVE_GATED: Variant(step_passive_gated, STREAM, ("kernel", "init_density"), float_step=_passive_gated_2d),
    PASSIVE_CLASSICAL: Variant(step_passive_classical, STREAM, ("kernel", "init_density")),
    NONREVERSIBLE: Variant(step_nonreversible, STREAM, ("kernel", "init_density", "skew")),
    MULTIKERNEL: Variant(step_multikernel, POOL, ("conditional_std",)),
    ACTIVE: Variant(step_active, ORACLE, ("kernel", "conditional_std")),
    CLASSICAL: Variant(step_classical, ORACLE, float_step=_classical_2d),
}


@dataclass(frozen=True)
class Trajectory:
    """A sampler run: every estimate visited, including the starting point."""

    samples: np.ndarray
    burn_in: int
    variant: str
    fingerprint: str
    seed: int | None = None
    underflow_resets: int = 0
    gain_ratio: float | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 2:
            raise ConfigError("trajectory samples must be a 2-D array")
        object.__setattr__(self, "samples", samples)
        if not 0 <= self.burn_in < len(samples):
            raise ConfigError("burn_in must be smaller than the trajectory length")

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def post(self) -> np.ndarray:
        """Samples with the burn-in prefix dropped."""
        return self.samples[self.burn_in:]


def _fingerprint(variant: str, cfg: SamplerConfig, start: np.ndarray, num_steps: int, seed) -> str:
    payload = {
        "variant": variant,
        "config": {**cfg.to_dict(), "init": start.tolist()},
        "num_steps": num_steps,
        "seed": seed,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def check_run(variant: str, cfg: SamplerConfig, num_steps: int, burn_in: int | None = None) -> Variant:
    """The `VARIANTS` row of `variant`, once `cfg`, `num_steps` and `burn_in` suit a run of it.

    Raises ConfigError for an unknown variant, a config field the variant
    needs left unset, an `active` conditional_std whose **-dim in
    `step_active` overflows, a `multikernel` conditional_std whose square in
    `normalized_weights` underflows to 0, a negative `num_steps` or a
    `burn_in` outside [0, num_steps]. A `burn_in` of None is the default
    tenth of the run.
    """
    row = VARIANTS.get(variant)
    if row is None:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {tuple(VARIANTS)}")
    for name in row.needs:
        if getattr(cfg, name) is None:
            raise ConfigError(f"variant {variant!r} needs {name}")
    if variant == ACTIVE:
        try:
            cfg.conditional_std**-cfg.dim
        except OverflowError:
            raise ConfigError(f"conditional_std {cfg.conditional_std} is too small for variant {variant!r} in "
                              f"{cfg.dim} dimensions: conditional_std**-dim overflows") from None
    if variant == MULTIKERNEL and cfg.conditional_std * cfg.conditional_std == 0:
        raise ConfigError(f"conditional_std {cfg.conditional_std} is too small for variant {variant!r}: "
                          "its square underflows to 0")
    if num_steps < 0:
        raise ConfigError(f"num_steps must be non-negative, got {num_steps}")
    if burn_in is not None and not 0 <= burn_in <= num_steps:
        raise ConfigError(f"burn_in must lie in [0, num_steps], got {burn_in}")
    return row


def run_chains(
    variant: str,
    source,
    cfg: SamplerConfig,
    starts,
    num_steps: int,
    rngs,
    burn_in: int | None = None,
    *,
    block_noise: bool = True,
) -> list[Trajectory]:
    """Drive one chain of `variant` per rng for `num_steps` updates, every chain under `cfg`.

    `source` is an iterable of GradientSample for stream variants, an
    iterable of GradientPool for pool variants, and for oracle variants one
    gradient oracle callable that every chain calls or a list of one per
    chain, repeated as every step's item (see `VARIANTS`). Each step advances
    the chains one by one, chain 0 first, chain c on its part of the step's
    item: `item[c]` when the item is a list of one part per chain, the item
    itself otherwise. Chain c starts at `starts[c]`, not at `cfg.init`, draws
    its noise from `rngs[c]` and counts its underflow resets in a SamplerStats
    of its own; its fingerprint records `starts[c]` as the config's init.

    With `block_noise` a float block draws each chain's noise ahead, one
    block of steps at a time, which gives the same numbers as drawing at
    every step only if nothing else draws from the chain's rng during the
    run. Pass False when the source draws from it too. A NumPy step draws
    its noise only when it asks for it.

    Raises ConfigError for no rng or `starts` not of shape (len(rngs),
    cfg.dim), for an oracle source neither a callable nor a list of one per
    chain, or naming the step of a list item of another length;
    SourceExhausted if an iterable runs out early; NonFiniteError or
    DensityFloorError naming the sampler step (and, for several chains, the
    first chain) at which a chain failed. Returns one Trajectory per chain.
    """
    starts = np.asarray(starts, dtype=np.float64)
    if not rngs or starts.shape != (len(rngs), cfg.dim):
        raise ConfigError(f"run_chains needs one start row of {cfg.dim} per rng, at least one; got {starts.shape}")
    row = check_run(variant, cfg, num_steps, burn_in)
    if burn_in is None:
        burn_in = num_steps // 10

    if variant == PASSIVE_GATED and cfg.gain_ratio >= _GAIN_RATIO_WARN:
        warnings.warn(
            f"gain ratio step/bandwidth**dim = {cfg.gain_ratio:.3g} is not small; "
            "the gated variant is only trustworthy when it is well below one",
            RuntimeWarning,
            stacklevel=2,
        )

    chains = len(rngs)
    floats = row.float_step is not None and cfg.dim == 2
    if row.source == ORACLE:
        oracles = source if isinstance(source, list) else [source] * chains
        if len(oracles) != chains or not all(map(callable, oracles)):
            raise ConfigError(
                f"variant {variant!r} expects a gradient oracle callable or a list of one per chain"
            )
        floats = floats and all(o is oracles[0] for o in oracles) and hasattr(oracles[0], "pairs")
        items = itertools.repeat(oracles[0].pairs if floats else source)
    else:
        items = iter(source)
    stats = [SamplerStats() for _ in rngs]
    extras = [(chain_stats,) if row.source == POOL else () for chain_stats in stats]

    # `rows[k]` is every chain's sample k; a block starts from the last row written.
    samples = np.empty((chains, num_steps + 1, cfg.dim))
    rows = samples.swapaxes(0, 1)
    rows[0] = starts
    # Step k makes row k + 1. Rows are written and checked for finiteness a
    # block at a time. A float block takes its items ahead, so without block
    # noise it is one step: the source may draw from the chains' rngs.
    size = _STEP_BLOCK if block_noise or not floats else 1
    for lo in range(0, num_steps + 1, size):
        hi = min(lo + size, num_steps + 1)
        steps = range(max(lo - 1, 0), hi - 1)
        taken = list(itertools.islice(items, len(steps))) if floats else items
        floats = floats and not any(isinstance(item, list) for item in taken)
        if floats:
            out, done = row.float_step(rows[steps.start].tolist(), taken, cfg, rngs), len(taken)
        else:
            states, out = list(rows[steps.start].copy()), []  # out: every chain's state after each item
            for k, item in zip(steps, taken):
                parts = item if isinstance(item, list) else [item] * chains
                if len(parts) != chains:
                    raise ConfigError(f"sampler step {k + 1}: a list item needs one part per chain, got {len(parts)}")
                for chain, (part, rng) in enumerate(zip(parts, rngs)):
                    try:
                        states[chain] = row.step(states[chain], part, cfg, rng, *extras[chain])
                    except DensityFloorError as exc:
                        prefix = f"chain {chain}: " if chains > 1 else ""
                        raise DensityFloorError(f"{prefix}{exc} at sampler step {k + 1}") from exc
                out.append(states[:])
            done = len(out)
        if done < len(steps):
            raise SourceExhausted(f"{row.source} source exhausted after {steps.start + done} of {num_steps} steps")
        rows[steps.start + 1:hi] = np.reshape(out, (len(steps), chains, cfg.dim))
        _check_block(rows, lo, hi)

    trajectories = []
    for chain, (rng, chain_stats) in enumerate(zip(rngs, stats)):
        seed = getattr(rng, "seed", None)
        trajectories.append(
            Trajectory(
                samples=samples[chain],
                burn_in=burn_in,
                variant=variant,
                fingerprint=_fingerprint(variant, cfg, samples[chain, 0], num_steps, seed),
                seed=seed,
                underflow_resets=chain_stats.underflow_resets,
                gain_ratio=cfg.gain_ratio,
            )
        )
    return trajectories


def run_sampler(
    variant: str,
    source,
    cfg: SamplerConfig,
    num_steps: int,
    rng: RngStream,
    burn_in: int | None = None,
    *,
    block_noise: bool = True,
) -> Trajectory:
    """Drive `variant` for `num_steps` updates: `run_chains` with one chain."""
    return run_chains(variant, source, cfg, [cfg.init], num_steps, [rng], burn_in, block_noise=block_noise)[0]


def _check_block(rows: np.ndarray, lo: int, hi: int) -> None:
    finite = np.isfinite(rows[lo:hi]).all(axis=-1)
    if finite.all():
        return
    step, chain = np.argwhere(~finite)[0]
    prefix = f"chain {chain}: " if finite.shape[1] > 1 else ""
    raise NonFiniteError(f"{prefix}estimate became non-finite at sampler step {lo + step}")


def save_trajectory(traj: Trajectory, cfg: SamplerConfig, directory, stem: str = "trajectory"):
    """Write `{stem}.csv` (step, est_1..est_N) and `{stem}.json`, `cfg` with init the first row, in `directory`."""
    os.makedirs(directory, exist_ok=True)
    csv_path = os.path.join(directory, f"{stem}.csv")
    meta_path = os.path.join(directory, f"{stem}.json")
    write_indexed_csv(csv_path, ["step"] + [f"est_{i + 1}" for i in range(traj.dim)], traj.samples)
    meta = {
        "variant": traj.variant,
        "seed": traj.seed,
        "burn_in": traj.burn_in,
        "num_steps": len(traj.samples) - 1,
        "underflow_resets": traj.underflow_resets,
        "gain_ratio": traj.gain_ratio,
        "fingerprint": traj.fingerprint,
        "config": {**cfg.to_dict(), "init": traj.samples[0].tolist()},
    }
    write_json(meta_path, meta)
    return csv_path, meta_path


def load_trajectory(directory, stem: str = "trajectory") -> tuple[Trajectory, dict]:
    """Read back a trajectory written by save_trajectory.

    Raises ConfigError naming the file when either file is missing,
    unreadable or malformed: metadata without its fields, a CSV with another
    header, a field that is not a finite number, a row of the wrong width,
    or a row count other than `num_steps + 1`.
    """
    csv_path = os.path.join(directory, f"{stem}.csv")
    meta_path = os.path.join(directory, f"{stem}.json")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        num_steps, burn_in = int(meta["num_steps"]), int(meta["burn_in"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{meta_path}: not trajectory metadata ({type(exc).__name__}: {exc})") from None
    try:
        with open(csv_path, newline="") as fh:
            header = fh.readline().rstrip("\r\n").split(",")
            if header[0] != "step":
                raise ConfigError("unrecognized trajectory header")
            with warnings.catch_warnings():
                # An empty body is a row-count error, raised below.
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{csv_path}: {exc}") from None
    if rows.shape[0] != num_steps + 1 or rows.shape[1] != len(header):
        raise ConfigError(
            f"{csv_path}: {rows.shape[0]} rows of {rows.shape[1]} fields, expected "
            f"num_steps + 1 = {num_steps + 1} rows of {len(header)}"
        )
    if not np.isfinite(rows).all():
        raise ConfigError(f"{csv_path}: holds a value that is not a finite number")
    try:
        traj = Trajectory(
            samples=rows[:, 1:],
            burn_in=burn_in,
            variant=meta["variant"],
            fingerprint=meta["fingerprint"],
            seed=meta.get("seed"),
            underflow_resets=int(meta.get("underflow_resets", 0)),
            gain_ratio=meta.get("gain_ratio"),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{meta_path}: not trajectory metadata ({type(exc).__name__}: {exc})") from None
    return traj, meta
