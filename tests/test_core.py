"""Seeded RNG streams, parameter coercion, and the shared error types."""

import numpy as np
import pytest

from langirl.core import (
    ConfigError,
    NonFiniteError,
    RngStream,
    as_param,
)


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
