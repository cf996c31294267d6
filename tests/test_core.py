"""Seeded RNG streams, parameter coercion, the shared error types and the artifact writers."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langirl.core import (
    ConfigError,
    NonFiniteError,
    RngStream,
    as_param,
    write_indexed_csv,
    write_json,
)
from strategies import EDGE_FLOATS


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(7).standard_normal(100)
        b = RngStream(7).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(7).standard_normal(100)
        b = RngStream(8).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_children_are_deterministic(self):
        a = RngStream(11).child(3).uniform(size=50)
        b = RngStream(11).child(3).uniform(size=50)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 7, 4000])
    def test_random_is_uniform_on_zero_one_bit_for_bit(self, n):
        a, b = RngStream(5).child(2), RngStream(5).child(2)
        for _ in range(3):
            assert a.random(n).tobytes() == b.uniform(size=n).tobytes()
        assert a.generator.bit_generator.state == b.generator.bit_generator.state
        assert a.random() == b.uniform()

    def test_children_differ_from_parent_and_siblings(self):
        root = RngStream(11)
        draws = {
            "parent": RngStream(11).standard_normal(20).tobytes(),
            "c0": root.child(0).standard_normal(20).tobytes(),
            "c1": root.child(1).standard_normal(20).tobytes(),
        }
        assert len(set(draws.values())) == 3

    def test_nested_children_do_not_collide_with_flat_ones(self):
        root = RngStream(11)
        nested = root.child(2).child(5).standard_normal(20)
        flat = root.child(5).standard_normal(20)
        assert not np.array_equal(nested, flat)

    def test_nested_children_reproducible(self):
        a = RngStream(3).child(1).child(4).integers(0, 1000, size=30)
        b = RngStream(3).child(1).child(4).integers(0, 1000, size=30)
        np.testing.assert_array_equal(a, b)

    def test_negative_child_index_rejected(self):
        with pytest.raises(ConfigError):
            RngStream(1).child(-1)

    def test_permutation_is_a_permutation(self):
        perm = RngStream(5).permutation(1000)
        assert sorted(perm) == list(range(1000))

    def test_repr_names_seed_and_algorithm(self):
        text = repr(RngStream(42))
        assert "42" in text and "pcg64" in text


def test_as_param_accepts_lists_and_arrays():
    np.testing.assert_array_equal(as_param([1, 2, 3]), np.array([1.0, 2.0, 3.0]))
    out = as_param(np.arange(4))
    assert out.dtype == np.float64


def test_as_param_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        as_param(np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        as_param([])


def test_as_param_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        as_param([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        as_param([np.inf])


def test_error_types_are_catchable_as_builtins():
    # Callers that only know the stdlib hierarchy still catch these.
    assert issubclass(ConfigError, ValueError)
    assert issubclass(NonFiniteError, FloatingPointError)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_non_standard_tokens(tmp_path, value):
    with pytest.raises(ValueError):
        write_json(tmp_path / "out.json", {"mean": [0.0, value]})
    # The payload is refused before the file is opened: no truncated file is left.
    assert not (tmp_path / "out.json").exists()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 2100), st.integers(1, 4)),
    pool=st.lists(st.one_of(EDGE_FLOATS, st.sampled_from([math.nan, math.inf, -math.inf])), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_indexed_csv_writes_the_csv_module_bytes(tmp_path_factory, shape, pool, seed):
    # Up to 2100 rows cross the writer's 1024-row blocks; each value is drawn from `pool`.
    values = np.array(pool)[np.random.default_rng(seed).integers(len(pool), size=shape)]
    header = ["step"] + [f"est_{i + 1}" for i in range(shape[1])]
    path = tmp_path_factory.mktemp("csv") / "values.csv"
    write_indexed_csv(path, header, values)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(header)
    writer.writerows([i, *row] for i, row in enumerate(values.tolist()))
    assert path.read_bytes() == want.getvalue().encode()
