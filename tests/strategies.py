"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

# Finite floats, edge values included: signed zeros, subnormals, magnitudes near 1e308.
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 2.2250738585072014e-308,
                     1e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
