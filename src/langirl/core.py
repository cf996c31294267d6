"""Shared primitives: parameter vectors, gradient samples, seeded RNG streams, artifact writers."""

from __future__ import annotations

import csv
import json
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


# Rows formatted per write in `write_indexed_csv`: the formatted text of a
# whole trajectory would hold memory in proportion to its length.
_CSV_BLOCK_ROWS = 1024


def write_indexed_csv(path, header, values) -> None:
    """Write `header` and then the row `i, *values[i]` for each row of a 2-D float array.

    The bytes are those of `write_csv(path, header, ([i, *row] for i, row in
    enumerate(values.tolist())))`: the csv module writes an int as `str` and a
    float as its `repr`, and none of those needs quoting. Formatting the rows
    with `%` in blocks skips the csv module's per-field work.
    """
    line = "%d" + ",%r" * values.shape[1] + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(values), _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, len(values))
            fh.write("".join(map(line.__mod__, zip(range(lo, hi), *values[lo:hi].T.tolist()))))


def write_json(path, payload) -> None:
    """Write `payload` as JSON with sorted keys, two-space indents and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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

