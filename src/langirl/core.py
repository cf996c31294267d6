"""Shared primitives: parameter vectors, gradient samples, seeded RNG streams."""

from __future__ import annotations

import csv
from typing import NamedTuple

import numpy as np

RNG_ALGORITHM = "pcg64"


class ConfigError(ValueError):
    """Raised when a configuration value is invalid."""


class NonFiniteError(FloatingPointError):
    """Raised when a NaN or infinity shows up where finite numbers are required."""


class DensityFloorError(ZeroDivisionError):
    """Raised when a density used as a divisor falls below the guard floor."""


class SourceExhausted(RuntimeError):
    """Raised when a sample source runs dry before the requested step count."""


def as_param(values) -> np.ndarray:
    """Coerce to a finite 1-D float64 vector.

    Raises NonFiniteError on NaN or infinity and ConfigError on a bad shape.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"expected a non-empty 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError("parameter vector contains NaN or infinity")
    return arr


def check_finite(arr: np.ndarray, context: str) -> None:
    """Raise NonFiniteError naming `context` if `arr` has any non-finite entry."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite value in {context}")


def write_csv(path, header, rows) -> None:
    """Write one header row and then `rows` as CSV with CRLF line endings.

    The csv module writes a float as its repr, so rows built with
    `ndarray.tolist()` keep every value exact and read back bit for bit.
    `rows` may be a generator; rows are written as they come.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class GradientSample(NamedTuple):
    """One reward-gradient observation: the query point and the gradient there."""

    point: np.ndarray
    gradient: np.ndarray


class GradientPool(NamedTuple):
    """A batch of gradient observations sharing one slow-time index.

    `points` and `gradients` are (pool_size, dim) arrays, row i belonging to
    the i-th member of the pool.
    """

    points: np.ndarray
    gradients: np.ndarray


class RngStream:
    """Seeded random stream with reproducible child streams.

    Wraps a PCG64 bit generator. Identical seeds and call sequences give
    bit-identical output. `child(i)` derives an independent stream for worker
    or chain `i`, deterministic in (seed, i).
    """

    algorithm = RNG_ALGORITHM

    def __init__(self, seed: int, _sequence: np.random.SeedSequence | None = None):
        if _sequence is None:
            _sequence = np.random.SeedSequence(seed)
        self.seed = seed
        self._sequence = _sequence
        self.generator = np.random.Generator(np.random.PCG64(_sequence))

    def child(self, index: int) -> "RngStream":
        if index < 0:
            raise ConfigError("child index must be non-negative")
        key = tuple(self._sequence.spawn_key) + (index,)
        seq = np.random.SeedSequence(self.seed, spawn_key=key)
        return RngStream(self.seed, _sequence=seq)

    # Thin passthroughs so callers rarely need .generator directly.
    def standard_normal(self, size=None):
        return self.generator.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size)

    def permutation(self, n):
        return self.generator.permutation(n)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, algorithm={self.algorithm!r})"


def gaussian_vector(rng: RngStream, dim: int) -> np.ndarray:
    """Draw one standard normal vector of length `dim`."""
    if dim < 1:
        raise ConfigError("dim must be at least 1")
    return rng.standard_normal(dim)
