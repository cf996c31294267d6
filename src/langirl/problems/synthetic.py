"""Quadratic test rewards with known Gibbs laws."""

from __future__ import annotations

import numpy as np

from ..core import ConfigError, RngStream


def quadratic_oracle(curvature=1.0, center=0.0, noise_std: float = 0.0, rng: RngStream | None = None):
    """Gradient oracle for a concave quadratic reward.

    The reward is -0.5 * sum(curvature * (x - center)**2), so the gradient is
    -curvature * (x - center), optionally with isotropic Gaussian noise. Under
    the reference chain at inverse temperature beta the stationary variance per
    coordinate is 1 / (curvature * beta).

    With a scalar curvature and center the oracle has a plain-float form,
    `oracle.pairs`: a list of n (t0, t1) points gives the list of n (g0, g1)
    gradients, bit for bit its answer on the (n, 2) block of those points,
    the noise drawn from `rng` in the same order.
    """
    if noise_std < 0:
        raise ConfigError("noise_std must be non-negative")
    if noise_std > 0 and rng is None:
        raise ConfigError("a noisy oracle needs an RngStream")
    curvature = np.asarray(curvature, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)

    if noise_std == 0.0:

        def oracle(point):
            return -curvature * (point - center)

    else:

        def oracle(point):
            return -curvature * (point - center) + noise_std * rng.standard_normal(point.shape)

    if curvature.ndim == 0 and center.ndim == 0:
        oracle.pairs = _scalar_pairs(-float(curvature), float(center), noise_std, rng)
    return oracle


def _scalar_pairs(k: float, c: float, noise_std: float, rng: RngStream | None):
    """The float form of the quadratic oracle whose gradient is k * (x - c) plus noise."""
    if noise_std == 0.0:
        return lambda points: [(k * (t0 - c), k * (t1 - c)) for t0, t1 in points]

    def pairs(points):
        noise = rng.standard_normal((len(points), 2)).tolist()
        return [
            (k * (t0 - c) + noise_std * w0, k * (t1 - c) + noise_std * w1)
            for (t0, t1), (w0, w1) in zip(points, noise)
        ]

    return pairs
