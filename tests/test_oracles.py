"""The oracles that the benchmark references will come from, against an
independent route each: G from the direct sums against the continued
fraction, and the first zero of H against ``t_infinity``."""

import math

import pytest

from dyckarea.qseries import t_infinity
import oracles


# H(qt)/H(t), its two passes 500 bits apart, against the 200-bit continued
# fraction cut at a 1e-20 enclosure
@pytest.mark.parametrize("eps, t", [(1e-3, 0.263), (1e-3, 0.45)])
def test_g_exact_against_cfrac(eps, t):
    q = math.exp(-eps)
    assert abs(oracles.g_exact(t, q) / oracles.cfrac(t, q) - 1) <= 1e-15


# the march from 1/4 lands on the first zero, not a later one, and the
# bisection of its bracket meets t_infinity's sign-count bisection
@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
def test_pole_line_against_t_infinity(q):
    assert abs(oracles.pole_line(q) / t_infinity(q) - 1) <= 2e-12
