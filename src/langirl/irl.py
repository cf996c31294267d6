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
naive
    Uses streamed gradients directly at the estimate with no kernel
    correction. Known-bad baseline retained for comparisons.

A variant is declared by one row of the `VARIANTS` table and one step
function. The row names the step, the kind of source it consumes (a stream of
GradientSample, a stream of GradientPool, or an oracle callable) and the
SamplerConfig fields that must be set; `run_sampler` is the only sampling loop
and reads everything it needs to know about a variant from that row.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass
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
    write_csv,
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
NAIVE = "naive"

# Source kinds: what `run_sampler` hands a step function at every update.
STREAM = "stream"
POOL = "pool"
ORACLE = "oracle"

# Densities below this floor are an error when they appear as divisors.
DENSITY_FLOOR = 1e-300

# All pool weights underflowing double precision triggers the uniform fallback.
_UNDERFLOW_LOG = math.log(math.ulp(0.0))

# A gated gain ratio at or above this is no longer "small" and draws a warning.
_GAIN_RATIO_WARN = 0.5

_FINITE_CHECK_BLOCK = 1024


@dataclass(frozen=True)
class SamplerConfig:
    """Static settings shared by the sampler variants.

    Not every field applies to every variant; `run_sampler` checks that the
    fields its variant needs are present. `conditional_std` is the Gaussian
    scale used both for multikernel pool weights and for active probing.
    """

    step: float
    beta: float
    init: np.ndarray
    kernel: Kernel | None = None
    init_density: InitDensity | None = None
    pool_size: int = 1
    conditional_std: float | None = None
    skew: np.ndarray | None = None

    def __post_init__(self):
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ConfigError("sampler step must be positive and finite")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ConfigError("beta must be positive and finite")
        object.__setattr__(self, "init", as_param(self.init))
        dim = self.init.size
        if self.kernel is not None and self.kernel.dim != dim:
            raise ConfigError("kernel dim does not match the initial estimate")
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

    @property
    def gain_ratio(self) -> float | None:
        """step / bandwidth**dim, the effective gain of fully gated updates."""
        if self.kernel is None:
            return None
        return self.step / self.kernel.bandwidth**self.kernel.dim

    def to_dict(self) -> dict:
        out = {"step": self.step, "beta": self.beta, "init": self.init.tolist()}
        if self.kernel is not None:
            out["kernel"] = {
                "family": self.kernel.family,
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
    """Mutable counters a sampler run accumulates."""

    underflow_resets: int = 0


def step_passive_generalized(est, sample: GradientSample, cfg: SamplerConfig, rng) -> np.ndarray:
    """Density-modulated update from one streamed gradient sample."""
    kern = float(scaled_eval(cfg.kernel, sample.point - est))
    pval, pgrad = cfg.init_density.density_and_grad(est)
    drift = (0.5 * cfg.beta * kern) * sample.gradient + pgrad
    w = rng.standard_normal(est.size)
    return est + (cfg.step * pval) * drift + (math.sqrt(cfg.step) * pval) * w


def step_passive_gated(est, sample: GradientSample, cfg: SamplerConfig, rng) -> np.ndarray:
    """Fully kernel-gated update; noise only flows when the kernel fires.

    The noise standard deviation is the square root of the whole gated gain
    ``(step / bandwidth**dim) * K(u) * density(point)``, which is what makes
    the accumulated noise match the density-modulated diffusion limit.
    """
    band = cfg.kernel.bandwidth
    u = (sample.point - est) / band
    kraw = float(raw_eval(cfg.kernel, u))
    pval, pgrad = cfg.init_density.density_and_grad(sample.point)
    ratio = cfg.step / band**cfg.kernel.dim
    gate = ratio * kraw
    drift = gate * ((0.5 * cfg.beta * pval) * sample.gradient + pgrad)
    w = rng.standard_normal(est.size)
    return est + drift + math.sqrt(gate * pval) * w


def _classical_form_update(est, kern, gradient, cfg, rng) -> np.ndarray:
    pval = cfg.init_density.density(est)
    if pval < DENSITY_FLOOR:
        raise DensityFloorError(
            f"initialization density {pval:.3e} below floor {DENSITY_FLOOR:.0e} at the estimate"
        )
    w = rng.standard_normal(est.size)
    gain = cfg.step * kern * 0.5 * cfg.beta / pval
    return est + gain * gradient + math.sqrt(cfg.step) * w


def step_passive_classical(est, sample: GradientSample, cfg: SamplerConfig, rng) -> np.ndarray:
    """Kernel-weighted gradient over the initialization density, plain noise."""
    kern = float(scaled_eval(cfg.kernel, sample.point - est))
    return _classical_form_update(est, kern, sample.gradient, cfg, rng)


def step_nonreversible(est, sample: GradientSample, cfg: SamplerConfig, rng) -> np.ndarray:
    """passive_classical with the gradient premultiplied by (I + S).

    With S = 0 this reproduces step_passive_classical exactly, draw for draw.
    """
    kern = float(scaled_eval(cfg.kernel, sample.point - est))
    gradient = sample.gradient + cfg.skew @ sample.gradient
    return _classical_form_update(est, kern, gradient, cfg, rng)


def normalized_weights(est, points, sigma: float) -> tuple[np.ndarray, bool]:
    """Pool weights from the Gaussian conditional density, in the log domain.

    Returns (weights, underflowed). When every unnormalized weight underflows
    double precision the weights come back uniform and the flag is set.
    """
    d = points - est
    logw = np.einsum("ij,ij->i", d, d) / (-2.0 * sigma * sigma)
    m = float(logw.max())
    if m < _UNDERFLOW_LOG:
        n = len(points)
        return np.full(n, 1.0 / n), True
    w = np.exp(logw - m)
    return w / w.sum(), False


def step_multikernel(
    est, pool: GradientPool, cfg: SamplerConfig, rng, stats: SamplerStats | None = None
) -> np.ndarray:
    """Average a pool of gradients under conditional-density weights."""
    weights, underflowed = normalized_weights(est, pool.points, cfg.conditional_std)
    if underflowed and stats is not None:
        stats.underflow_resets += 1
    drift = weights @ pool.gradients
    w = rng.standard_normal(est.size)
    return est + (cfg.step * 0.5 * cfg.beta) * drift + math.sqrt(cfg.step) * w


def step_active(est, oracle: Callable, cfg: SamplerConfig, rng) -> np.ndarray:
    """Probe a Gaussian displacement of the estimate and reweight its gradient."""
    sigma = cfg.conditional_std
    dim = est.size
    v = sigma * rng.standard_normal(dim)
    gradient = np.asarray(oracle(est + v), dtype=np.float64)
    kern = float(scaled_eval(cfg.kernel, v))
    pden = (2.0 * math.pi) ** (-0.5 * dim) * sigma**-dim * math.exp(
        -0.5 * float(v @ v) / (sigma * sigma)
    )
    if pden < DENSITY_FLOOR:
        raise DensityFloorError(
            f"probe density {pden:.3e} below floor {DENSITY_FLOOR:.0e}"
        )
    w = rng.standard_normal(dim)
    gain = cfg.step * kern * 0.5 * cfg.beta / pden
    return est + gain * gradient + math.sqrt(cfg.step) * w


def step_classical(est, oracle: Callable, cfg: SamplerConfig, rng) -> np.ndarray:
    """Reference chain: direct oracle gradient at the estimate."""
    gradient = np.asarray(oracle(est), dtype=np.float64)
    w = rng.standard_normal(est.size)
    return est + (cfg.step * 0.5 * cfg.beta) * gradient + math.sqrt(cfg.step) * w


def step_naive(est, sample: GradientSample, cfg: SamplerConfig, rng) -> np.ndarray:
    """Kernel-free misuse of a streamed gradient as if it were taken at the estimate."""
    w = rng.standard_normal(est.size)
    return est + (cfg.step * 0.5 * cfg.beta) * sample.gradient + math.sqrt(cfg.step) * w


@dataclass(frozen=True)
class Variant:
    """One row of the variant table.

    `step(est, item, cfg, rng)` makes one update from `item`: a GradientSample
    for a stream source, a GradientPool for a pool source (pool steps also get
    the run's SamplerStats), or the oracle callable itself. `needs` names the
    SamplerConfig fields that must not be None.
    """

    step: Callable
    source: str
    needs: tuple = ()


VARIANTS = {
    PASSIVE_GENERALIZED: Variant(step_passive_generalized, STREAM, ("kernel", "init_density")),
    PASSIVE_GATED: Variant(step_passive_gated, STREAM, ("kernel", "init_density")),
    PASSIVE_CLASSICAL: Variant(step_passive_classical, STREAM, ("kernel", "init_density")),
    NONREVERSIBLE: Variant(step_nonreversible, STREAM, ("kernel", "init_density", "skew")),
    NAIVE: Variant(step_naive, STREAM),
    MULTIKERNEL: Variant(step_multikernel, POOL, ("conditional_std",)),
    ACTIVE: Variant(step_active, ORACLE, ("kernel", "conditional_std")),
    CLASSICAL: Variant(step_classical, ORACLE),
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


def _fingerprint(variant: str, cfg: SamplerConfig, num_steps: int, seed) -> str:
    payload = {
        "variant": variant,
        "config": cfg.to_dict(),
        "num_steps": num_steps,
        "seed": seed,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_sampler(
    variant: str,
    source,
    cfg: SamplerConfig,
    num_steps: int,
    rng: RngStream,
    burn_in: int | None = None,
) -> Trajectory:
    """Drive `variant` for `num_steps` updates and collect the trajectory.

    `source` is an iterable of GradientSample for stream variants, an
    iterable of GradientPool for pool variants, and a gradient oracle
    callable, queried by every step, for oracle variants (see `VARIANTS`).
    Raises SourceExhausted if an iterable runs out early and NonFiniteError
    naming the first bad step if the chain leaves the finite range.
    """
    row = VARIANTS.get(variant)
    if row is None:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {tuple(VARIANTS)}")
    if num_steps < 0:
        raise ConfigError("num_steps must be non-negative")
    if burn_in is None:
        burn_in = num_steps // 10
    if not 0 <= burn_in <= num_steps:
        raise ConfigError("burn_in must lie in [0, num_steps]")
    for name in row.needs:
        if getattr(cfg, name) is None:
            raise ConfigError(f"variant {variant!r} needs {name}")

    if variant == PASSIVE_GATED and cfg.gain_ratio >= _GAIN_RATIO_WARN:
        warnings.warn(
            f"gain ratio step/bandwidth**dim = {cfg.gain_ratio:.3g} is not small; "
            "the gated variant is only trustworthy when it is well below one",
            RuntimeWarning,
            stacklevel=2,
        )

    if row.source == ORACLE:
        if not callable(source):
            raise ConfigError(f"variant {variant!r} expects a gradient oracle callable")
        items = itertools.repeat(source)
    else:
        items = iter(source)
    stats = SamplerStats()
    extra = (stats,) if row.source == POOL else ()

    est = cfg.init.copy()
    samples = np.empty((num_steps + 1, cfg.dim))
    samples[0] = est
    checked = 0
    for k in range(num_steps):
        try:
            item = next(items)
        except StopIteration:
            raise SourceExhausted(
                f"{row.source} source exhausted after {k} of {num_steps} steps"
            ) from None
        est = row.step(est, item, cfg, rng, *extra)
        samples[k + 1] = est
        if k + 2 - checked >= _FINITE_CHECK_BLOCK:
            _check_block(samples, checked, k + 2)
            checked = k + 2
    _check_block(samples, checked, num_steps + 1)

    seed = getattr(rng, "seed", None)
    return Trajectory(
        samples=samples,
        burn_in=burn_in,
        variant=variant,
        fingerprint=_fingerprint(variant, cfg, num_steps, seed),
        seed=seed,
        underflow_resets=stats.underflow_resets,
        gain_ratio=cfg.gain_ratio,
    )


def _check_block(samples: np.ndarray, lo: int, hi: int) -> None:
    block = samples[lo:hi]
    if np.isfinite(block).all():
        return
    bad = lo + int(np.flatnonzero(~np.isfinite(block).all(axis=1))[0])
    raise NonFiniteError(f"estimate became non-finite at sampler step {bad}")


def save_trajectory(traj: Trajectory, cfg: SamplerConfig, directory, stem: str = "trajectory"):
    """Write `{stem}.csv` (step, est_1..est_N) and `{stem}.json` under `directory`."""
    os.makedirs(directory, exist_ok=True)
    csv_path = os.path.join(directory, f"{stem}.csv")
    meta_path = os.path.join(directory, f"{stem}.json")
    write_csv(
        csv_path,
        ["step"] + [f"est_{i + 1}" for i in range(traj.dim)],
        ([i, *row.tolist()] for i, row in enumerate(traj.samples)),
    )
    meta = {
        "variant": traj.variant,
        "seed": traj.seed,
        "burn_in": traj.burn_in,
        "num_steps": len(traj.samples) - 1,
        "underflow_resets": traj.underflow_resets,
        "gain_ratio": traj.gain_ratio,
        "fingerprint": traj.fingerprint,
        "config": cfg.to_dict(),
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, meta_path


def load_trajectory(directory, stem: str = "trajectory") -> tuple[Trajectory, dict]:
    """Read back a trajectory written by save_trajectory."""
    csv_path = os.path.join(directory, f"{stem}.csv")
    meta_path = os.path.join(directory, f"{stem}.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "step":
            raise ConfigError(f"unrecognized trajectory header in {csv_path}")
        rows = [[float(v) for v in r[1:]] for r in reader]
    traj = Trajectory(
        samples=np.asarray(rows, dtype=np.float64),
        burn_in=int(meta["burn_in"]),
        variant=meta["variant"],
        fingerprint=meta["fingerprint"],
        seed=meta.get("seed"),
        underflow_resets=int(meta.get("underflow_resets", 0)),
        gain_ratio=meta.get("gain_ratio"),
    )
    return traj, meta
