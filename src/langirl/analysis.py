"""Histogram densities, distribution distances and mixing diagnostics."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ConfigError, write_csv


@dataclass(frozen=True)
class GridSpec:
    """Rectangular histogram grid, one (low, high, bins) triple per dimension.

    Bins are half open [edge_i, edge_{i+1}) except the final bin of each axis,
    which also includes its upper edge.
    """

    axes: tuple

    def __post_init__(self):
        axes = []
        for ax in self.axes:
            low, high, bins = ax
            low, high = float(low), float(high)
            if not (math.isfinite(low) and math.isfinite(high) and low < high):
                raise ConfigError(f"grid axis needs finite low < high, got {ax}")
            if not float(bins).is_integer():
                raise ConfigError(f"grid axis needs a whole number of bins, got {ax}")
            bins = int(bins)
            if bins < 1:
                raise ConfigError("grid axis needs at least one bin")
            axes.append((low, high, bins))
        object.__setattr__(self, "axes", tuple(axes))

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(ax[2] for ax in self.axes)

    def edges(self, axis: int) -> np.ndarray:
        low, high, bins = self.axes[axis]
        return np.linspace(low, high, bins + 1)

    def centers(self, axis: int) -> np.ndarray:
        e = self.edges(axis)
        return 0.5 * (e[:-1] + e[1:])


@dataclass(frozen=True)
class EmpiricalDensity:
    """Normalized cell masses plus the fraction of samples falling off-grid.

    Masses are sample fractions, so the cell masses and the out-of-range
    fraction always sum to one.
    """

    grid: GridSpec
    mass: np.ndarray
    out_of_range_fraction: float
    sample_count: int

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.shape != self.grid.shape:
            raise ConfigError("mass array does not match the grid shape")
        object.__setattr__(self, "mass", mass)


def build_density(samples, grid: GridSpec) -> EmpiricalDensity:
    """Bin samples on `grid`. Accepts (M, dim) arrays, or (M,) when dim is 1."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2 or samples.shape[1] != grid.dim:
        raise ConfigError(
            f"samples of shape {samples.shape} do not match a dim-{grid.dim} grid"
        )
    if len(samples) == 0:
        raise ConfigError("cannot build a density from zero samples")
    edges = [grid.edges(d) for d in range(grid.dim)]
    counts, _ = np.histogramdd(samples, bins=edges)
    total = len(samples)
    inside = float(counts.sum())
    oor = (total - inside) / total
    if inside == 0.0:
        warnings.warn(
            "all samples fell outside the density grid", RuntimeWarning, stacklevel=2
        )
    return EmpiricalDensity(grid, counts / total, oor, total)


def log_density(density: EmpiricalDensity) -> np.ndarray:
    """Natural log of the cell masses with empty cells masked as NaN.

    Empty cells are reported as missing rather than floored to a fake value.
    """
    out = np.full(density.mass.shape, np.nan)
    positive = density.mass > 0
    out[positive] = np.log(density.mass[positive])
    return out


def marginal(density: EmpiricalDensity, axis: int) -> EmpiricalDensity:
    """Sum the joint mass over every axis except `axis`."""
    keep = axis
    others = tuple(d for d in range(density.grid.dim) if d != keep)
    mass = density.mass.sum(axis=others) if others else density.mass
    return EmpiricalDensity(
        GridSpec((density.grid.axes[keep],)),
        mass,
        density.out_of_range_fraction,
        density.sample_count,
    )


def wasserstein1(a, b) -> float:
    """Exact order-1 transport distance between two 1-D empirical laws.

    Integrates |F_a - F_b| over the merged breakpoint set of the two ECDFs,
    which is exact for step functions. Each sample must be non-empty and
    finite.
    """
    a, b = (np.asarray(x, dtype=np.float64).ravel() for x in (a, b))
    if not (len(a) and len(b)):
        raise ConfigError("wasserstein1 needs at least one value in each sample")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ConfigError("wasserstein1 values must be finite")
    a, b = np.sort(a), np.sort(b)
    support = np.concatenate([a, b])
    support.sort(kind="mergesort")
    deltas = np.diff(support)
    fa = np.searchsorted(a, support[:-1], side="right") / len(a)
    fb = np.searchsorted(b, support[:-1], side="right") / len(b)
    return float(np.sum(np.abs(fa - fb) * deltas))


def variational_distance(a: EmpiricalDensity, b: EmpiricalDensity) -> float:
    """Total-variation distance between two densities on the same grid.

    The out-of-range mass participates as one extra shared cell.
    """
    if a.grid != b.grid:
        raise ConfigError("variational_distance needs densities on identical grids")
    diff = float(np.sum(np.abs(a.mass - b.mass)))
    diff += abs(a.out_of_range_fraction - b.out_of_range_fraction)
    return 0.5 * diff


def autocorr_time(series, min_length: int = 1000) -> float:
    """Integrated autocorrelation time by initial-positive-sequence truncation.

    Sums adjacent autocorrelation pairs until the first non-positive pair, the
    standard conservative truncation for reversible chains. A first-order
    autoregressive series with coefficient 0.9 comes out near 19.
    """
    x = np.asarray(series, dtype=np.float64).ravel()
    n = len(x)
    if n < min_length:
        raise ConfigError(f"need at least {min_length} points, got {n}")
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        raise ConfigError("series is constant; autocorrelation time is undefined")
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n] / n
    rho = acov / acov[0]

    total = 0.0
    m = 0
    while 2 * m + 1 < n:
        gamma = rho[2 * m] + rho[2 * m + 1]
        if gamma <= 0.0:
            break
        total += gamma
        m += 1
    return max(2.0 * total - 1.0, 1e-12)


def local_max(mass: np.ndarray, radius: int) -> np.ndarray:
    """The maximum over the (2 * radius + 1)-wide window around each cell.

    Cells outside the grid count as -1, below any mass; this is
    `scipy.ndimage.maximum_filter(mass, size=2 * radius + 1, mode="constant",
    cval=-1.0)` without importing scipy.
    """
    padded = np.pad(mass, radius, constant_values=-1.0)
    windows = sliding_window_view(padded, (2 * radius + 1,) * mass.ndim)
    return windows.max(axis=tuple(range(mass.ndim, 2 * mass.ndim)))


def find_modes(density: EmpiricalDensity, neighborhood: int = 2, min_rel_mass: float = 0.25):
    """Locate well separated local maxima of the cell mass.

    A cell is a mode when it carries the maximum over the surrounding
    (2 * neighborhood + 1)-wide window and holds at least `min_rel_mass` of
    the global maximum. Returns a list of (index tuple, center coordinates,
    mass), ordered by decreasing mass; empty when no sample fell on the grid.
    """
    mass = density.mass
    peak = float(mass.max())
    if peak == 0.0:
        return []
    threshold = min_rel_mass * peak
    hits = np.argwhere((mass == local_max(mass, neighborhood)) & (mass >= threshold))
    modes = []
    for idx in hits:
        idx = tuple(int(i) for i in idx)
        center = np.array(
            [density.grid.centers(d)[idx[d]] for d in range(density.grid.dim)]
        )
        modes.append((idx, center, float(mass[idx])))
    modes.sort(key=lambda m: -m[2])
    return modes


def density_to_csv(density: EmpiricalDensity, path) -> None:
    """Write cells as rows: indices, centers, mass, log mass (NA when empty)."""
    dim = density.grid.dim
    centers = [density.grid.centers(d) for d in range(dim)]
    logmass = log_density(density)
    header = (
        [f"cell_{i + 1}" for i in range(dim)]
        + [f"center_{i + 1}" for i in range(dim)]
        + ["mass", "log_mass"]
    )
    rows = [["out_of_range"] * dim + [""] * dim + [float(density.out_of_range_fraction), "NA"]]
    for idx in np.ndindex(*density.grid.shape):
        lm = float(logmass[idx])
        rows.append(
            [*idx]
            + [float(centers[d][idx[d]]) for d in range(dim)]
            + [float(density.mass[idx]), "NA" if math.isnan(lm) else lm]
        )
    write_csv(path, header, rows)
