"""Bayesian logistic regression with a Laplace prior, fed by libsvm-format data."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..core import ConfigError, RngStream


def parse_libsvm(source, num_features: int | None = None):
    """Parse sparse libsvm-format classification data into dense arrays.

    `source` is a file path or an iterable of text lines. Each line is
    ``label index:value ...`` with 1-based, strictly increasing indices and
    labels in {-1, +1}, mapped to {0, 1}. When `num_features` is omitted the
    dimension is the largest index seen. Returns (features, labels) where
    features carries a leading all-ones bias column, so its width is
    `num_features + 1`.

    Malformed lines raise ConfigError naming the 1-based line number.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            return parse_libsvm(fh, num_features)

    labels = []
    rows = []
    max_index = 0
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] in ("+1", "1"):
            labels.append(1.0)
        elif parts[0] == "-1":
            labels.append(0.0)
        else:
            raise ConfigError(f"line {lineno}: label must be +1 or -1, got {parts[0]!r}")
        entries = []
        previous = 0
        for token in parts[1:]:
            try:
                idx_text, val_text = token.split(":", 1)
                idx = int(idx_text)
                val = float(val_text)
            except ValueError:
                raise ConfigError(f"line {lineno}: malformed feature token {token!r}") from None
            if idx < 1:
                raise ConfigError(f"line {lineno}: feature index {idx} out of range")
            if num_features is not None and idx > num_features:
                raise ConfigError(
                    f"line {lineno}: feature index {idx} exceeds declared range {num_features}"
                )
            if idx <= previous:
                raise ConfigError(f"line {lineno}: feature indices must be increasing")
            previous = idx
            entries.append((idx, val))
            max_index = max(max_index, idx)
        rows.append(entries)

    if not rows:
        raise ConfigError("no data lines found")
    width = num_features if num_features is not None else max_index
    features = np.zeros((len(rows), width + 1))
    features[:, 0] = 1.0  # bias column
    for r, entries in enumerate(rows):
        for idx, val in entries:
            features[r, idx] = val
    return features, np.asarray(labels)


@dataclass(frozen=True)
class LogisticModel:
    """Design matrix (bias column included), binary labels, likelihood weight."""

    features: np.ndarray
    labels: np.ndarray
    likelihood_weight: float = 10.0

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.float64)
        if feats.ndim != 2 or len(feats) != len(labels):
            raise ConfigError("features and labels must have matching row counts")
        if not set(np.unique(labels)) <= {0.0, 1.0}:
            raise ConfigError("labels must be 0 or 1")
        if len(feats) == 0:
            raise ConfigError("model needs at least one data row")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def num_rows(self) -> int:
        return len(self.labels)


def reward_grad(model: LogisticModel, theta, row: int):
    """Laplace prior score plus the weighted log-likelihood gradient at one row.

    The prior contributes -sign(theta) per coordinate, with sign(0) taken as
    zero. Batched over leading axes of `theta`.
    """
    # Imported here: scipy.special is slow to import and only logistic runs need it.
    from scipy.special import expit

    theta = np.asarray(theta, dtype=np.float64)
    psi = model.features[row % model.num_rows]
    y = model.labels[row % model.num_rows]
    margin = theta @ psi
    resid = y - expit(margin)
    return -np.sign(theta) + model.likelihood_weight * np.multiply.outer(resid, psi).reshape(theta.shape)


def make_stream_oracle(model: LogisticModel):
    """Oracle sweeping the dataset one data row per point, wrapping around.

    A (n, dim) block of points takes the next n data rows, one per point in
    row order, and returns the bits of n single-point calls (the forward
    block contract): each row is a `reward_grad` call at its own data row.
    """
    counter = {"k": 0}

    def oracle(point):
        block = np.atleast_2d(point)
        g = np.stack([reward_grad(model, p, counter["k"] + i) for i, p in enumerate(block)])
        counter["k"] += len(block)
        return g.reshape(np.shape(point))

    return oracle


def make_pool_oracle(model: LogisticModel):
    """Oracle sweeping the dataset one data row per call, wrapping around.

    `reward_grad` is batched, so a (pool_size, dim) block of points queried
    in one call shares that call's row, as a pool does.
    """
    counter = {"k": 0}

    def oracle(points):
        g = reward_grad(model, points, counter["k"])
        counter["k"] += 1
        return g

    return oracle


def top_frequency_subset(
    features: np.ndarray,
    labels: np.ndarray,
    num_rows: int,
    num_features: int,
    rng: RngStream,
):
    """Shrink a parsed dataset to its busiest columns and a row subsample.

    Keeps the bias column plus the `num_features` non-bias columns with the
    most nonzero entries (ties broken by column order), then draws `num_rows`
    rows without replacement.
    """
    feats = np.asarray(features, dtype=np.float64)
    if num_rows > len(feats):
        raise ConfigError(f"asked for {num_rows} rows but only {len(feats)} available")
    if num_features > feats.shape[1] - 1:
        raise ConfigError("asked for more feature columns than the dataset has")
    counts = np.count_nonzero(feats[:, 1:], axis=0)
    order = np.argsort(-counts, kind="stable")[:num_features]
    cols = np.concatenate([[0], 1 + np.sort(order)])
    rows = rng.generator.choice(len(feats), size=num_rows, replace=False)
    rows.sort()
    return feats[np.ix_(rows, cols)], np.asarray(labels)[rows]
