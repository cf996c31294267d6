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
from typing import NamedTuple

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
    b = kernel.bandwidth
    return raw_eval(kernel, diff / b) * b ** (-kernel.dim)


class KernelReport(NamedTuple):
    """Numeric check of the kernel axioms on a tensor quadrature grid."""

    mass: float
    second_moment: float
    symmetry_error: float


def verify_kernel_axioms(
    kernel: Kernel, half_width: float = 6.0, points_per_axis: int | None = None
) -> KernelReport:
    """Check unit mass, symmetry and the second moment by tensor-grid quadrature.

    Practical up to dim 3; the grid has ``points_per_axis ** dim`` nodes, so
    the default resolution drops with dimension to keep memory bounded.
    Symmetry error is the largest absolute difference between the kernel at a
    grid point and at its reflection through the origin.
    """
    if kernel.dim > 3:
        raise ConfigError("axiom quadrature supported up to dim 3")
    if points_per_axis is None:
        points_per_axis = {1: 2001, 2: 2001, 3: 201}[kernel.dim]
    axis = np.linspace(-half_width, half_width, points_per_axis)
    grids = np.meshgrid(*([axis] * kernel.dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = raw_eval(kernel, pts).reshape([points_per_axis] * kernel.dim)
    sq = np.einsum("...i,...i->...", pts, pts).reshape(vals.shape)

    mass = vals
    second = vals * sq
    for _ in range(kernel.dim):
        mass = np.trapezoid(mass, axis, axis=-1)
        second = np.trapezoid(second, axis, axis=-1)

    flipped = np.flip(vals, axis=tuple(range(kernel.dim)))
    symmetry_error = float(np.max(np.abs(vals - flipped)))
    return KernelReport(float(mass), float(second), symmetry_error)
