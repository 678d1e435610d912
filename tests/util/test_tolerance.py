"""Scale-aware float comparisons (ISSUE 3 ε-termination fix)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.tolerance import (
    REL_TOL, cut_line, geq, gt, leq, lt, proves_bound, tolerance,
)


class TestDriftAbsorption:
    def test_classic_binary_drift(self):
        # 0.1 + 0.2 == 0.30000000000000004: drift, not a real excess.
        assert not gt(0.1 + 0.2, 0.3)
        assert leq(0.1 + 0.2, 0.3)
        assert geq(0.3, 0.1 + 0.2)
        assert not lt(0.3, 0.1 + 0.2)

    def test_real_differences_survive(self):
        assert gt(0.31, 0.3)
        assert lt(0.3, 0.31)
        assert not leq(0.31, 0.3)
        assert not geq(0.3, 0.31)

    def test_scales_with_magnitude(self):
        # At 3e8 an absolute 1e-9 is below one ulp; the relative
        # tolerance still absorbs a one-ulp drift there.
        big = 3e8
        drifted = big + math.ulp(big)
        assert not gt(drifted, big)
        assert leq(drifted, big)
        # ...but a real difference at that scale is still seen.
        assert gt(big + 1.0, big)

    def test_absolute_floor_near_zero(self):
        assert tolerance(0.0, 0.0) == REL_TOL
        assert leq(REL_TOL / 2, 0.0)
        assert not gt(REL_TOL / 2, 0.0)
        assert gt(3 * REL_TOL, 0.0)


class TestProvesBound:
    def test_exact_epsilon_zero(self):
        assert proves_bound(0.3, 0.0, 0.1 + 0.2)  # drift must not spin
        assert proves_bound(0.1 + 0.2, 0.0, 0.3)  # ...in either direction
        assert not proves_bound(0.31, 0.0, 0.3)  # nor terminate early

    def test_epsilon_relaxation(self):
        assert proves_bound(1.2, 0.25, 1.0)
        assert not proves_bound(1.3, 0.25, 1.0)

    def test_empty_open_lists_always_prove(self):
        assert proves_bound(42.0, 0.0, math.inf)


_NONNEG = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.0 - REL_TOL, 1e-12, math.inf]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, allow_infinity=True, allow_nan=False),
)


@settings(max_examples=400, deadline=None)
@given(_NONNEG, _NONNEG)
def test_cut_line_decides_geq(a, b):
    assert geq(a, b) == (a >= cut_line(b))


@given(_NONNEG)
def test_cut_line_holds_one_ulp_either_side_of_the_tolerance(b):
    # The values where the answer flips: b less its tolerance, and one
    # ulp either way.
    edge = b - tolerance(0.0, b)
    for a in (edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)):
        if a >= 0.0:
            assert geq(a, b) == (a >= cut_line(b))
