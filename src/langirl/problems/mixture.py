"""Bimodal Bayesian estimation problem: a two-component Gaussian mixture.

The unknown is a two-vector. The first coordinate locates the first mixture
component; the sum of the two coordinates locates the second. Component
variances are fixed and the components are equally weighted, which makes the
problem non-identifiable up to swapping components: two well separated maxima
of the expected reward exist, one near the truth and one at its swap image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import ConfigError, RngStream


@dataclass(frozen=True)
class MixtureModel:
    """Two-component location mixture with a diagonal Gaussian prior.

    `likelihood_weight` multiplies the per-observation log likelihood in the
    reward, sharpening the posterior the way a batch of that many observations
    would.
    """

    true_param: np.ndarray
    likelihood_weight: float = 20.0
    prior_variances: tuple = (10.0, 2.0)
    component_var: float = 2.0

    def __post_init__(self):
        tp = np.asarray(self.true_param, dtype=np.float64)
        if tp.shape != (2,):
            raise ConfigError("true_param must be a length-2 vector")
        object.__setattr__(self, "true_param", tp)
        if len(self.prior_variances) != 2 or min(self.prior_variances) <= 0:
            raise ConfigError("prior_variances must be two positive numbers")
        if self.component_var <= 0:
            raise ConfigError("component_var must be positive")
        if not (self.likelihood_weight > 0 and math.isfinite(self.likelihood_weight)):
            raise ConfigError("likelihood_weight must be positive and finite")

    @property
    def component_means(self) -> np.ndarray:
        return np.array([self.true_param[0], self.true_param[0] + self.true_param[1]])


def sample_observation(model: MixtureModel, rng: RngStream, theta=None) -> float:
    """Draw one observation from the mixture at `theta` (default: the truth)."""
    theta = model.true_param if theta is None else np.asarray(theta, dtype=np.float64)
    means = (theta[0], theta[0] + theta[1])
    pick = int(rng.integers(0, 2))
    return float(means[pick] + math.sqrt(model.component_var) * rng.standard_normal())


def _responsibilities(model: MixtureModel, theta, y):
    """Posterior component weights for observation y, stable in the log domain.

    Works for a single theta (2,) or a batch (M, 2); returns (gamma1, gamma2,
    residual1, residual2) with residuals y - mean per component.
    """
    theta = np.asarray(theta, dtype=np.float64)
    v = model.component_var
    r1 = y - theta[..., 0]
    r2 = y - theta[..., 0] - theta[..., 1]
    l1 = -0.5 * r1 * r1 / v
    l2 = -0.5 * r2 * r2 / v
    m = np.maximum(l1, l2)
    e1 = np.exp(l1 - m)
    e2 = np.exp(l2 - m)
    z = e1 + e2
    return e1 / z, e2 / z, r1, r2


def likelihood_grad(model: MixtureModel, theta, y):
    """Gradient of the log observation density at `theta`; batched over rows."""
    g1, g2, r1, r2 = _responsibilities(model, theta, y)
    v = model.component_var
    d_second = g2 * r2 / v
    d_first = g1 * r1 / v + d_second
    return np.stack([d_first, d_second], axis=-1)


def prior_grad(model: MixtureModel, theta):
    theta = np.asarray(theta, dtype=np.float64)
    return -theta / np.asarray(model.prior_variances)


def reward_grad(model: MixtureModel, theta, y):
    """Gradient of log prior plus weighted log likelihood; batched over rows."""
    return prior_grad(model, theta) + model.likelihood_weight * likelihood_grad(model, theta, y)


def make_stream_oracle(model: MixtureModel, rng: RngStream):
    """Oracle drawing a fresh observation from the truth for every point.

    Each observation is one `integers(0, 2)` draw picking the component and
    then one `standard_normal()` draw, taken from `rng.generator` in the
    order and with the arithmetic of `sample_observation`, so the stream
    and the observations match it draw for draw. The pick is read straight
    off the bit generator: `integers(0, 2)` is Lemire's method on one
    buffered 32-bit draw, which comes to that draw's top bit.

    The oracle has a plain-float form, `oracle.pairs`: a list of n (t0, t1)
    points gives the list of n (g0, g1) gradients, drawing one observation
    per point in list order. On 0-d values NumPy dispatch would cost most of
    the call. It does the IEEE operations of `reward_grad` in the same order
    (the division by the component variance is kept, not turned into a
    product with its inverse), and it takes the responsibilities' `exp` from
    NumPy, not from `math.exp`, which may round differently. So it returns
    the bits of `reward_grad` at the same observations. A single (2,) point
    is answered through it.

    A (n, 2) block draws n observations, one per row in row order, and
    evaluates the batched `reward_grad` on them, so it returns the bits of n
    single-point calls (the forward block contract), and of the float form
    on the same n points. The draws are taken one at a time: the
    `integers`/`standard_normal` interleave has no bit-equal block draw.
    """
    true0, true1 = model.true_param.tolist()
    means = (true0, true0 + true1)
    scale = math.sqrt(model.component_var)
    v = float(model.component_var)
    p0, p1 = map(float, model.prior_variances)
    w = float(model.likelihood_weight)
    generator = rng.generator
    bits = generator.bit_generator.ctypes

    def draw():
        pick = bits.next_uint32(bits.state) >> 31
        return means[pick] + scale * generator.standard_normal()

    def pairs(points):
        out = []
        for t0, t1 in points:
            y = draw()
            r1 = y - t0
            r2 = y - t0 - t1
            l1 = -0.5 * r1 * r1 / v
            l2 = -0.5 * r2 * r2 / v
            m = max(l1, l2)
            e1 = float(np.exp(l1 - m))
            e2 = float(np.exp(l2 - m))
            z = e1 + e2
            d_second = e2 / z * r2 / v
            d_first = e1 / z * r1 / v + d_second
            out.append((-t0 / p0 + w * d_first, -t1 / p1 + w * d_second))
        return out

    def oracle(point):
        if point.ndim != 1:
            return reward_grad(model, point, np.array([draw() for _ in range(len(point))]))
        return np.array(pairs([point.tolist()])[0])

    oracle.pairs = pairs
    return oracle


def make_pool_oracle(model: MixtureModel, rng: RngStream):
    """Oracle drawing one observation per call, shared by every point queried.

    `reward_grad` is batched, so a (pool_size, dim) block of points queried
    in one call shares that call's observation, as a pool does.
    """

    def oracle(points):
        return reward_grad(model, points, sample_observation(model, rng))

    return oracle


def expected_reward(model: MixtureModel, theta, quad_points: int = 2001) -> float:
    """Average reward at `theta` over the observation law, by quadrature.

    Used by tests to locate the two maxima independently of any sampler.
    """
    theta = np.asarray(theta, dtype=np.float64)
    v = model.component_var
    means = model.component_means
    span = 8.0 * math.sqrt(v)
    lo = float(means.min()) - span
    hi = float(means.max()) + span
    y = np.linspace(lo, hi, quad_points)
    obs_density = 0.5 * (
        np.exp(-0.5 * (y - means[0]) ** 2 / v) + np.exp(-0.5 * (y - means[1]) ** 2 / v)
    ) / math.sqrt(2 * math.pi * v)

    t_means = (theta[0], theta[0] + theta[1])
    like = 0.5 * (
        np.exp(-0.5 * (y - t_means[0]) ** 2 / v) + np.exp(-0.5 * (y - t_means[1]) ** 2 / v)
    ) / math.sqrt(2 * math.pi * v)
    avg_loglike = float(np.trapezoid(obs_density * np.log(like), y))

    pv = np.asarray(model.prior_variances)
    log_prior = float(-0.5 * np.sum(theta * theta / pv) - 0.5 * np.sum(np.log(2 * math.pi * pv)))
    return log_prior + model.likelihood_weight * avg_loglike
