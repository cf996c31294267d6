"""Reference code the test modules check `langirl` against; no run reaches it."""

from typing import NamedTuple

import numpy as np

from langirl.core import ConfigError, GradientPool
from langirl.kernels import Kernel, raw_eval
from langirl.problems.cmdp import POOL_CHUNK, angle_pool_chunk


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
    grid point and at its reflection through the origin. The axis is made
    exactly antisymmetric (`linspace` alone is not, by an ulp), so a
    symmetric kernel shows a symmetry error of exactly 0.
    """
    if kernel.dim > 3:
        raise ConfigError("axiom quadrature supported up to dim 3")
    if points_per_axis is None:
        points_per_axis = {1: 2001, 2: 2001, 3: 201}[kernel.dim]
    axis = np.linspace(-half_width, half_width, points_per_axis)
    axis = 0.5 * (axis - axis[::-1])
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


def policy_to_spherical(policy) -> np.ndarray:
    """Invert `cmdp.spherical_to_policy` on strictly positive rows, angles in (0, pi/2)."""
    phi = np.asarray(policy, dtype=np.float64)
    if phi.ndim < 2 or phi.shape[-1] < 2:
        raise ConfigError("policy must have shape (..., states, actions) with actions >= 2")
    if np.any(phi <= 0):
        raise ConfigError("policy rows must be strictly positive to invert the chart")
    if np.max(np.abs(phi.sum(axis=-1) - 1.0)) > 1e-9:
        raise ConfigError("policy rows must sum to one")
    num_actions = phi.shape[-1]
    remaining = np.ones_like(phi[..., 0])
    angles = np.empty(phi.shape[:-1] + (num_actions - 1,))
    for u in range(num_actions - 1):
        ratio = np.clip(phi[..., u] / remaining, 0.0, 1.0)
        angles[..., u] = np.arccos(np.sqrt(ratio))
        remaining = remaining - phi[..., u]
    return angles


def make_angle_pool_source(model, pool_size, num_pools, horizon, perturbation, rng):
    """The CMDP pool stream of `cmdp.angle_pool_chunk`, chunk after chunk, as `num_pools` GradientPools."""
    return (
        GradientPool(points, gradients)
        for c in range(-(-num_pools // POOL_CHUNK))
        for points, gradients in zip(*angle_pool_chunk(model, pool_size, num_pools, horizon, perturbation, rng, c))
    )
