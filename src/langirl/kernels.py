"""Smoothing kernels used to localize gradient information around the estimate.

Two families are provided, both normalized to unit mass:

* ``gaussian``: standard multivariate normal density.
* ``truncated-gaussian``: the same density cut off at radius 4 (in bandwidth
  units) and renormalized, for bounded-support weighting.

``scaled_eval`` applies the usual bandwidth scaling ``b**-dim * K(diff / b)``
so that the scaled kernel again integrates to one and concentrates to a point
mass as the bandwidth shrinks, at second order in the bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError

GAUSSIAN = "gaussian"
TRUNCATED_GAUSSIAN = "truncated-gaussian"
FAMILIES = (GAUSSIAN, TRUNCATED_GAUSSIAN)

# Cutoff radius for the truncated family, in bandwidth units.
TRUNCATION_RADIUS = 4.0


@dataclass(frozen=True)
class Kernel:
    family: str
    bandwidth: float
    dim: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown kernel family {self.family!r}")
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth)):
            raise ConfigError("kernel bandwidth must be positive and finite")
        if self.dim < 1:
            raise ConfigError("kernel dim must be at least 1")
        norm = (2.0 * math.pi) ** (-0.5 * self.dim)
        if self.family == TRUNCATED_GAUSSIAN:
            # Renormalize by the chi-square mass inside the cutoff ball. scipy.stats
            # is slow to import and no other family needs it.
            from scipy import stats

            norm /= stats.chi2.cdf(TRUNCATION_RADIUS**2, df=self.dim)
        object.__setattr__(self, "_norm", norm)
        try:
            object.__setattr__(self, "_scale", self.bandwidth ** -self.dim)
        except OverflowError:
            raise ConfigError(f"kernel bandwidth {self.bandwidth} is too small: bandwidth**-dim overflows") from None


def raw_eval(kernel: Kernel, u) -> np.ndarray:
    """Evaluate the unscaled kernel at `u`; batched over leading axes."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1] != kernel.dim:
        raise ConfigError(f"expected last axis of size {kernel.dim}, got {u.shape}")
    q = np.einsum("...i,...i->...", u, u)
    val = kernel._norm * np.exp(-0.5 * q)
    if kernel.family == TRUNCATED_GAUSSIAN:
        val = np.where(q <= TRUNCATION_RADIUS**2, val, 0.0)
    return val


def scaled_eval(kernel: Kernel, diff) -> np.ndarray:
    """Evaluate the bandwidth-scaled kernel at a raw displacement `diff`.

    Computes ``b**-dim * K(diff / b)`` with ``b`` the bandwidth. Batched over
    leading axes of `diff`.
    """
    diff = np.asarray(diff, dtype=np.float64)
    return raw_eval(kernel, diff / kernel.bandwidth) * kernel._scale
