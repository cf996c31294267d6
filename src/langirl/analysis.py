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
            low, high, bins = float(low), float(high), int(bins)
            if not (math.isfinite(low) and math.isfinite(high) and low < high):
                raise ConfigError(f"grid axis needs finite low < high, got {ax}")
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

    def cell_volume(self) -> float:
        return float(np.prod([(h - l) / b for l, h, b in self.axes]))


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


def log_density(density: EmpiricalDensity, zero_policy: str = "mask") -> np.ndarray:
    """Natural log of the cell masses with empty cells masked as NaN.

    The only supported policy is "mask"; empty cells are reported as missing
    rather than flooring them to a fake value.
    """
    if zero_policy != "mask":
        raise ConfigError(f"unsupported zero policy {zero_policy!r}")
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


class Ecdf:
    """Empirical CDF of a 1-D sample."""

    def __init__(self, values):
        values = np.asarray(values, dtype=np.float64).ravel()
        if len(values) == 0:
            raise ConfigError("Ecdf needs at least one value")
        if not np.isfinite(values).all():
            raise ConfigError("Ecdf values must be finite")
        self.values = np.sort(values)

    def __len__(self) -> int:
        return len(self.values)

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.searchsorted(self.values, x, side="right") / len(self.values)


def wasserstein1(a, b) -> float:
    """Exact order-1 transport distance between two 1-D empirical laws.

    Integrates |F_a - F_b| over the merged breakpoint set of the two ECDFs,
    which is exact for step functions.
    """
    a = a if isinstance(a, Ecdf) else Ecdf(a)
    b = b if isinstance(b, Ecdf) else Ecdf(b)
    support = np.concatenate([a.values, b.values])
    support.sort(kind="mergesort")
    deltas = np.diff(support)
    fa = np.searchsorted(a.values, support[:-1], side="right") / len(a)
    fb = np.searchsorted(b.values, support[:-1], side="right") / len(b)
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
    mass), ordered by decreasing mass.
    """
    mass = density.mass
    threshold = min_rel_mass * float(mass.max())
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
