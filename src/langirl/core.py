"""Shared primitives: parameter vectors, gradient samples, seeded RNG streams, artifact writers."""

from __future__ import annotations

import csv
import io
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


class DomainError(ArithmeticError):
    """Raised when an estimate leaves the domain its problem is defined on."""


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
    float as its `repr`, and none of those needs quoting.

    The floats are formatted by orjson a block of rows at a time. Like `repr`,
    it writes the shortest decimal that reads back as the same float, but not
    always in the same form. `repr` switches to exponent form below 1e-4 and
    from 1e16 on, where orjson writes `6.4e-05` as `0.000064`, `-4.05e-06` as
    `-4.05e-6` and `1e+16` as `1e16`; and orjson writes a NaN or an infinity
    as `null`. So a row holding a nonzero magnitude outside [1e-4, 1e16) or a
    value that is not finite is formatted with `repr`, as the csv module would;
    ±0.0 and every magnitude in [1e-4, 1e16) come out the same from both.
    """
    # Imported on first use: a run's start-up and `compare` write no trajectory and need not load it.
    import orjson

    option = orjson.OPT_SERIALIZE_NUMPY
    head = io.StringIO(newline="")
    csv.writer(head).writerow(header)
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode())
        for lo in range(0, len(values), _CSV_BLOCK_ROWS):
            block = np.ascontiguousarray(values[lo:lo + _CSV_BLOCK_ROWS], dtype=np.float64)
            # Row i of the block is parts[4i:4i + 4]: its index, a comma, its values and the line end.
            parts = [b"", b",", b"", b"\r\n"] * len(block)
            parts[0::4] = orjson.dumps(np.arange(lo, lo + len(block)), option=option)[1:-1].split(b",")
            parts[2::4] = orjson.dumps(block, option=option)[2:-2].split(b"],[")
            mag = np.abs(block)
            same = (mag < 1e16) & ((mag >= 1e-4) | (mag == 0.0))
            for row in np.flatnonzero(~same.all(axis=1)).tolist():
                parts[4 * row + 2] = ",".join(map(repr, block[row].tolist())).encode()
            fh.write(b"".join(parts))


def write_json(path, payload) -> None:
    """Write `payload` as JSON with sorted keys, two-space indents and a final newline.

    A NaN or infinity in `payload` raises ValueError: standard JSON has no token for them.
    The whole payload is encoded before the file is opened, so a refused one leaves no file.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


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

    def random(self, size=None):
        return self.generator.random(size)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size)

    def permutation(self, n):
        return self.generator.permutation(n)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, algorithm={self.algorithm!r})"

