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

    return oracle

