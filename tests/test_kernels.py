"""Kernel axioms: unit mass, symmetry, scaling, and second-order smoothing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from langirl.core import ConfigError, GradientSample
from langirl.forward import InitDensity
from langirl.irl import PASSIVE_GENERALIZED, VARIANTS, SamplerConfig
from langirl.kernels import (
    FAMILIES,
    GAUSSIAN,
    TRUNCATED_GAUSSIAN,
    TRUNCATION_RADIUS,
    Kernel,
    raw_eval,
    scaled_eval,
)
from reference import verify_kernel_axioms
from strategies import EDGE_FLOATS


def smoothing_error(kernel: Kernel, bandwidth: float, nodes: int = 4001) -> float:
    """Quadrature oracle for the kernel-smoothing bias of a known test function.

    Convolves f(x) = cos(x) with the bandwidth-scaled kernel at x = 0 and
    returns the difference from f(0). For a symmetric unit-mass kernel the
    bias is (bandwidth**2 / 2) * f''(0) * m2 + higher order, so halving the
    bandwidth should shrink it by a factor close to 4.
    """
    u = np.linspace(-8.0, 8.0, nodes)
    k = raw_eval(Kernel(kernel.family, 1.0, 1), u[:, None])
    smeared = np.trapezoid(k * np.cos(bandwidth * u), u)
    return float(abs(smeared - 1.0))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim", [1, 2])
def test_unit_mass(family, dim):
    report = verify_kernel_axioms(Kernel(family, 1.0, dim))
    assert abs(report.mass - 1.0) <= 1e-6


def test_unit_mass_three_dim():
    # The cutoff shell of the compact-support family limits tensor-grid
    # resolution in 3-D, hence the looser bound for that family.
    gauss = verify_kernel_axioms(Kernel(GAUSSIAN, 1.0, 3))
    assert abs(gauss.mass - 1.0) <= 1e-6
    trunc = verify_kernel_axioms(Kernel(TRUNCATED_GAUSSIAN, 1.0, 3))
    assert abs(trunc.mass - 1.0) <= 1e-5


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_symmetry(family, dim):
    report = verify_kernel_axioms(Kernel(family, 1.0, dim))
    assert report.symmetry_error < 1e-12


# Trapezoid error at 201 nodes on [-6, 6]: the Gaussian tails beyond 6 leave
# about 2e-9 per axis; the truncated family's cutoff jump is first order in
# the node spacing.
AXIOM_NODES = 201
MASS_TOLERANCE = {GAUSSIAN: 1e-8, TRUNCATED_GAUSSIAN: 2e-5}
BANDWIDTHS = st.floats(1e-3, 1e3)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(family=st.sampled_from(FAMILIES), bandwidth=BANDWIDTHS, dim=st.integers(1, 2))
def test_axioms_hold_for_any_family_and_bandwidth(family, bandwidth, dim):
    report = verify_kernel_axioms(Kernel(family, bandwidth, dim), points_per_axis=AXIOM_NODES)
    assert abs(report.mass - 1.0) <= MASS_TOLERANCE[family]
    assert report.symmetry_error == 0.0


@settings(max_examples=150, derandomize=True, database=None)
@given(
    family=st.sampled_from(FAMILIES),
    bandwidth=BANDWIDTHS,
    diff=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 2)), elements=EDGE_FLOATS),
)
def test_scaled_eval_is_raw_eval_at_diff_over_bandwidth(family, bandwidth, diff):
    kernel = Kernel(family, bandwidth, diff.shape[1])
    with np.errstate(all="ignore"):
        want = raw_eval(kernel, diff / bandwidth) * bandwidth ** (-kernel.dim)
        got = scaled_eval(kernel, diff)
    assert got.tobytes() == want.tobytes()


class ZeroNoise:
    """A chain stream whose normal draws are all zero."""

    def standard_normal(self, size):
        return np.zeros(size)


def float_block_kernel(kernel: Kernel, diff: np.ndarray) -> np.ndarray:
    """The scaled kernel at `diff` as a 2-D passive_generalized float block evaluates it inline.

    A noiseless block step from the origin, with the gradient (1, 1), beta 2,
    step 1 and a unit-peak density centred on the origin, moves each
    coordinate by exactly that kernel value.
    """
    var = 1.0 / (2.0 * math.pi)
    density = InitDensity(np.zeros(2), np.array([var, var]))
    assert density._norm == 1.0
    cfg = SamplerConfig(step=1.0, beta=2.0, init=np.zeros(2), kernel=kernel, init_density=density)
    items = [GradientSample(diff, np.ones(2))]
    rows = VARIANTS[PASSIVE_GENERALIZED].float_step([[0.0, 0.0]], items, cfg, [ZeroNoise()])
    return np.asarray(rows, dtype=np.float64).reshape(2)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    bandwidth=BANDWIDTHS,
    diff=arrays(np.float64, 2, elements=EDGE_FLOATS),
)
def test_float_evaluations_are_the_array_ones_bit_for_bit(family, bandwidth, diff):
    kernel = Kernel(family, bandwidth, 2)
    with np.errstate(all="ignore"):
        raw = raw_eval(kernel, diff)
        scaled = scaled_eval(kernel, diff)
        # At bandwidth 1 the scaled kernel is the raw one.
        got_raw = float_block_kernel(Kernel(family, 1.0, 2), diff)
        got_scaled = float_block_kernel(kernel, diff)
    assert got_raw.tobytes() == np.array([raw, raw]).tobytes()
    assert got_scaled.tobytes() == np.array([scaled, scaled]).tobytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_second_moment_is_finite_and_positive(family):
    report = verify_kernel_axioms(Kernel(family, 1.0, 1))
    assert 0.5 < report.second_moment < 1.5


@pytest.mark.parametrize("family", FAMILIES)
def test_smoothing_error_shrinks_at_second_order(family):
    kernel = Kernel(family, 1.0, 1)
    coarse = smoothing_error(kernel, 0.2)
    fine = smoothing_error(kernel, 0.1)
    assert 3.5 <= coarse / fine <= 4.5


class TestEvaluation:
    def test_gaussian_matches_closed_form(self):
        kernel = Kernel(GAUSSIAN, 1.0, 2)
        pts = np.array([[0.0, 0.0], [1.0, -1.0], [2.5, 0.5]])
        expected = (2 * math.pi) ** -1 * np.exp(-0.5 * np.sum(pts**2, axis=1))
        np.testing.assert_allclose(raw_eval(kernel, pts), expected, rtol=1e-14)

    def test_scaled_eval_applies_bandwidth_power(self):
        kernel = Kernel(GAUSSIAN, 0.25, 3)
        diff = np.array([0.1, -0.2, 0.05])
        direct = 0.25**-3 * raw_eval(Kernel(GAUSSIAN, 1.0, 3), diff / 0.25)
        np.testing.assert_allclose(scaled_eval(kernel, diff), direct, rtol=1e-14)

    def test_truncation_zeroes_the_tail(self):
        kernel = Kernel(TRUNCATED_GAUSSIAN, 1.0, 1)
        inside = raw_eval(kernel, np.array([TRUNCATION_RADIUS - 1e-9]))
        outside = raw_eval(kernel, np.array([TRUNCATION_RADIUS + 1e-9]))
        assert inside > 0.0
        assert outside == 0.0

    def test_truncated_exceeds_gaussian_inside_support(self):
        # Renormalization pushes the truncated density up where it survives.
        g = raw_eval(Kernel(GAUSSIAN, 1.0, 2), np.zeros(2))
        t = raw_eval(Kernel(TRUNCATED_GAUSSIAN, 1.0, 2), np.zeros(2))
        assert t > g

    def test_batched_shapes(self):
        kernel = Kernel(GAUSSIAN, 0.5, 2)
        out = scaled_eval(kernel, np.zeros((4, 7, 2)))
        assert out.shape == (4, 7)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            raw_eval(Kernel(GAUSSIAN, 1.0, 2), np.zeros(3))


def test_kernel_validation():
    with pytest.raises(ConfigError):
        Kernel("triweight", 1.0, 1)
    with pytest.raises(ConfigError):
        Kernel(GAUSSIAN, 0.0, 1)
    with pytest.raises(ConfigError):
        Kernel(GAUSSIAN, math.inf, 1)
    with pytest.raises(ConfigError):
        Kernel(GAUSSIAN, 1.0, 0)
    with pytest.raises(ConfigError, match="is too small"):
        Kernel(GAUSSIAN, 1e-200, 2)


def test_axiom_quadrature_dim_limit():
    with pytest.raises(ConfigError):
        verify_kernel_axioms(Kernel(GAUSSIAN, 1.0, 4))
