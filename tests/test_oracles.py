"""Oracles against an independent route each: G from the direct sums against
the continued fraction and the first zero of H against ``t_infinity``, the
two the benchmark references will come from, and the dilogarithm's
quadrature against mpmath's polylog."""

import math

import mpmath
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


# the quadrature along [0, z] against mpmath's own polylog, at the points
# where the tests compare dilog with it
@pytest.mark.parametrize("z", [0.5, 0.3 + 0.3j, -0.8, 0.9 + 0.1j, -2.0 + 1.0j])
def test_dilog_against_polylog(z):
    with mpmath.workdps(30):
        assert abs(oracles.dilog(z) - mpmath.polylog(2, z)) <= mpmath.mpf(10) ** -25
