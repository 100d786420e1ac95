"""Bracket growth and the safeguarded Newton solver behind quantile and mode.

Both live in `gels.distribution`. The solver takes an increasing f that
returns (value, slope), a bracket with f(lo) <= 0 <= f(hi), and a start.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gels.distribution import (
    BracketError,
    ConvergenceError,
    expand_bracket,
    solve_bracketed,
)

# root of cos x = x, frozen from a converged fixed-point iteration
DOTTIE = 0.7390851332151607


def with_slope(f, df):
    return lambda x: (f(x), df(x))


class TestExpandBracket:
    def test_linear(self):
        hi = expand_bracket(with_slope(lambda x: x - 5.0, lambda x: 1.0), 0.0, 1.0)
        assert 5.0 <= hi

    def test_log(self):
        hi = expand_bracket(with_slope(lambda x: math.log(x) - 3.0, lambda x: 1.0 / x), 1.0, 2.0)
        assert math.e ** 3 <= hi

    def test_geometric_growth(self):
        seen = []

        def f(x):
            seen.append(x)
            return x - 100.0, 1.0

        expand_bracket(f, 1.0, 2.0)
        # upper probes follow lo + 2^j (hi0 - lo), starting at hi0
        assert seen == [1.0 + 2.0 ** j for j in range(len(seen))]
        assert seen[-1] >= 100.0 > seen[-2]

    def test_no_root(self):
        with pytest.raises(BracketError):
            expand_bracket(lambda x: (-1.0, 0.0), 0.0, 1.0)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            expand_bracket(lambda x: (x, 1.0), 1.0, 1.0)


class TestSolveBracketed:
    def test_sqrt2(self):
        root = solve_bracketed(lambda x: (x * x - 2.0, 2.0 * x), 1.0, 2.0, 1.5)
        assert abs(root - math.sqrt(2.0)) <= 1e-14

    def test_identity(self):
        assert solve_bracketed(lambda x: (x, 1.0), -1.0, 1.0, 0.5) == 0.0

    def test_dottie_number(self):
        # cos x - x decreases, so solve x - cos x = 0
        f = with_slope(lambda x: x - math.cos(x), lambda x: 1.0 + math.sin(x))
        root = solve_bracketed(f, 0.0, 1.0, 0.0)
        assert abs(root - DOTTIE) <= 1e-15

    def test_budget_exhausted(self):
        # a step with no slope: every iteration bisects, and 200 halvings
        # cannot narrow a bracket of width 2e300 to 1e-13
        f = lambda x: (math.copysign(1.0, x - 1.0), 0.0)
        with pytest.raises(ConvergenceError) as err:
            solve_bracketed(f, -1e300, 1e300, 0.5)
        # error carries the last bracket, which still holds the jump
        assert err.value.lo <= 1.0 <= err.value.hi

    @given(st.floats(-50, 50), st.floats(0.1, 50), st.floats(0.2, 4), st.floats(0, 1))
    def test_root_stays_inside_bracket(self, r, off, cube, start):
        # odd, strictly increasing function with the only real root at r
        f = with_slope(lambda x: cube * (x - r) ** 3 + (x - r),
                       lambda x: 3.0 * cube * (x - r) ** 2 + 1.0)
        lo, hi = r - off, r + 1.7 * off
        root = solve_bracketed(f, lo, hi, lo + start * (hi - lo))
        assert lo <= root <= hi
        assert abs(root - r) <= 1e-12 * max(1.0, abs(r))

    def test_steep_tail(self):
        # Phi(x) - Phi(-30): from x = 0 plain Newton moves about 1/|x| per
        # step down the tail, so reaching -30 needs bisection as well
        p = 0.5 * math.erfc(30.0 / math.sqrt(2.0))
        f = with_slope(lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0)) - p,
                       lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
        assert abs(solve_bracketed(f, -40.0, 0.0, 0.0) + 30.0) <= 1e-12

    def test_steep_flat_mix(self):
        # flat shelf then steep rise; bisection fallback must keep progress
        f = with_slope(lambda x: math.tanh(50.0 * (x - 3.0)) + x / 1e6,
                       lambda x: 50.0 / math.cosh(50.0 * (x - 3.0)) ** 2 + 1e-6)
        hi = expand_bracket(f, -1.0, 0.5)
        root = solve_bracketed(f, -1.0, hi, -1.0)
        assert abs(f(root)[0]) < 1e-12
