"""Airy pair, zeros, zeta sums, dilogarithm and the scaling function."""

import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as sp

from dyckarea.errors import BranchCutError, DivergenceError, DomainError, PoleProximityError
from dyckarea.special_functions import (
    A0,
    AIRY_AT_ZERO,
    AIRY_PRIME_AT_ZERO,
    airy,
    airy_scaled,
    airy_zeros,
    airy_zeta,
    dilog,
    scaling_F,
    scaling_F_series,
)

AI0 = 0.3550280538878172
AIP0 = -0.2588194037928068
S1 = -2.338107410459767
S2 = -4.087949444130971
# 3^(5/3) Gamma(2/3)^4 / (4 pi^2)
Z2_CLOSED = 0.5314572319609995
# sha256 of "x,ai,ai_prime,underflow" lines (repr of each float) over
# AIRY_GOLDEN_GRID, pinned before the Maclaurin and asymptotic evaluators
# were merged so that every tier stays bit-identical
AIRY_GOLDEN_GRID = np.linspace(-12.0, 80.0, 4601).tolist() + [-7.8, -4.5, 3.5, 4.5, 7.8, 60.0, 9999.0]
AIRY_GOLDEN_DIGEST = "3877a2b1bf9d281ea2b88d7b1b6619edda713660fed1d705f1e95dd7718e7acb"


class TestAiry:
    def test_values_at_zero(self):
        pair = airy(0.0)
        assert pair.ai == pytest.approx(AI0, abs=1e-14)
        assert pair.ai_prime == pytest.approx(AIP0, abs=1e-14)
        assert AIRY_AT_ZERO == pytest.approx(AI0, abs=1e-15)
        assert AIRY_PRIME_AT_ZERO == pytest.approx(AIP0, abs=1e-15)

    @pytest.mark.parametrize("x", np.linspace(-30.0, 8.0, 77).tolist() + [4.5, -4.5, 7.8, -7.8, 3.5])
    def test_against_scipy(self, x):
        mine = airy(float(x))
        ai, aip, _, _ = sp.airy(x)
        assert mine.ai == pytest.approx(ai, rel=1e-11, abs=1e-14)
        assert mine.ai_prime == pytest.approx(aip, rel=1e-11, abs=1e-14)

    def test_oscillatory_envelope_accuracy(self):
        # relative accuracy near zeros is meaningless; compare against the
        # oscillation envelope instead
        for x in np.linspace(-400.0, -8.0, 60):
            mine = airy(float(x))
            ai, aip, _, _ = sp.airy(x)
            assert abs(mine.ai - ai) <= 1e-11 * abs(x) ** -0.25
            assert abs(mine.ai_prime - aip) <= 1e-11 * abs(x) ** 0.25

    def test_differential_relation(self):
        # centered second difference of Ai equals x Ai(x)
        h = 1e-4
        for x in np.linspace(-5.0, 5.0, 41):
            second = (airy(x + h).ai - 2.0 * airy(x).ai + airy(x - h).ai) / h**2
            assert second == pytest.approx(x * airy(x).ai, abs=1e-6)

    def test_positive_decay(self):
        values = [airy(x).ai for x in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]]
        assert all(v > 0.0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_golden_digest(self):
        lines = []
        for x in AIRY_GOLDEN_GRID:
            pair = airy(x)
            lines.append(f"{x!r},{pair.ai!r},{pair.ai_prime!r},{pair.underflow}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == AIRY_GOLDEN_DIGEST

    def test_underflow_flag(self):
        pair = airy(9999.0)
        assert pair.ai == 0.0
        assert pair.underflow

    def test_domain(self):
        with pytest.raises(DomainError):
            airy(2e4)

    def test_scaled_positive(self):
        for x in [9.0, 40.0, 61.0, 300.0]:
            pair, log_factor = airy_scaled(x)
            zeta = 2.0 * x**1.5 / 3.0
            assert log_factor == (-zeta if x > 60.0 else 0.0)
            # scipy's airye is the pair times exp(zeta), so it stays in range
            eai, eaip, _, _ = sp.airye(x)
            scale = math.exp(log_factor + zeta)
            assert pair.ai * scale == pytest.approx(eai, rel=1e-10)
            assert pair.ai_prime * scale == pytest.approx(eaip, rel=1e-10)
        assert airy_scaled(60.0) == (airy(60.0), 0.0)
        assert airy_scaled(-3.0) == (airy(-3.0), 0.0)
        with pytest.raises(DomainError):
            airy_scaled(2e4)


# the Maclaurin/mpmath/asymptotic switches of airy and the scaled switch of
# airy_scaled, each probed within 1e-9 on both sides
_TIER_SWITCHES = [-7.8, -4.5, -3.5, 3.5, 4.5, 7.8, 60.0]
_NEAR = st.floats(min_value=-1e-9, max_value=1e-9)


def _mp_airy(x: float) -> tuple[float, float]:
    with mpmath.workdps(30):
        return float(mpmath.airyai(x)), float(mpmath.airyai(x, derivative=1))


class TestTierSwitches:
    @settings(max_examples=60)
    @given(st.sampled_from(_TIER_SWITCHES), _NEAR)
    def test_airy_against_mpmath(self, switch, offset):
        x = switch + offset
        pair = airy(x)
        ai, aip = _mp_airy(x)
        assert pair.ai == pytest.approx(ai, rel=1e-11, abs=1e-14)
        assert pair.ai_prime == pytest.approx(aip, rel=1e-11, abs=1e-14)

    @settings(max_examples=30)
    @given(_NEAR)
    def test_scaled_continuous_at_60(self, offset):
        below = 60.0 - abs(offset)
        above = math.nextafter(60.0 + abs(offset), math.inf)
        values = []
        for x in (below, above):
            pair, log_factor = airy_scaled(x)
            value = pair.ai * math.exp(log_factor)
            assert value == pytest.approx(_mp_airy(x)[0], rel=1e-11)
            values.append(value)
        # Ai'/Ai is -7.8 at x = 60, so the true jump is below 8 (above - below)
        assert abs(values[1] / values[0] - 1.0) <= 8.0 * (above - below) + 1e-11


class TestAiryZeros:
    def test_first_two(self):
        zeros = airy_zeros(2)
        assert zeros[0] == pytest.approx(S1, abs=1e-10)
        assert zeros[1] == pytest.approx(S2, abs=1e-10)

    def test_against_scipy(self):
        mine = airy_zeros(50)
        ref = sp.ai_zeros(50)[0]
        assert np.allclose(mine, ref, rtol=0, atol=1e-9)

    def test_ordering(self):
        zeros = airy_zeros(30)
        assert all(b < a for a, b in zip(zeros, zeros[1:]))
        assert all(z < 0 for z in zeros)

    def test_count_validation(self):
        with pytest.raises(DomainError):
            airy_zeros(0)

    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=2000))
    def test_against_mpmath_and_prefix(self, k):
        # DLMF 9.9: the k-th zero to 30 digits; shorter calls are prefixes
        zeros = airy_zeros(2000)
        with mpmath.workdps(30):
            ref = float(mpmath.airyaizero(k))
        assert zeros[k - 1] == pytest.approx(ref, rel=1e-12)
        assert airy_zeros(k) == zeros[:k]


class TestAiryZeta:
    def test_regularised_first_value(self):
        assert airy_zeta(1) == pytest.approx(0.7290111329472270, abs=1e-12)
        assert airy_zeta(1) == -A0

    def test_z2_closed_form(self):
        assert airy_zeta(2, count=2000) == pytest.approx(Z2_CLOSED, abs=1e-8)

    def test_tail_estimate_matters(self):
        # raw 400-term sum misses Z(2) by percents; the integral tail fixes it
        zeros = airy_zeros(400)
        raw = sum(s**-2 for s in zeros)
        assert abs(raw - Z2_CLOSED) > 1e-3
        assert abs(airy_zeta(2, count=400) - Z2_CLOSED) < 1e-7

    def test_fast_convergence_high_order(self):
        assert airy_zeta(6, count=50) == pytest.approx(airy_zeta(6, count=400), abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            airy_zeta(0)


class TestDilog:
    def test_trivial_points(self):
        assert dilog(0.0) == 0.0
        assert dilog(1.0).real == pytest.approx(math.pi**2 / 6.0, abs=1e-15)
        assert dilog(1.0).imag == 0.0

    def test_half(self):
        expected = math.pi**2 / 12.0 - math.log(2.0) ** 2 / 2.0
        assert dilog(0.5).real == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("z", [0.5, 0.3 + 0.3j, -0.8, 0.9 + 0.1j, -2.0 + 1.0j])
    def test_quadrature_oracle(self, z):
        # independent oracle: -int_0^z log(1-s)/s ds along the segment
        def integrand_re(u):
            s = u * z
            return (-np.log(1.0 - s) / s * z).real

        def integrand_im(u):
            s = u * z
            return (-np.log(1.0 - s) / s * z).imag

        re, _ = integrate.quad(integrand_re, 1e-300, 1.0, limit=200)
        im, _ = integrate.quad(integrand_im, 1e-300, 1.0, limit=200)
        value = dilog(z)
        assert value.real == pytest.approx(re, abs=5e-11)
        assert value.imag == pytest.approx(im, abs=5e-11)

    def test_inversion_identity_ring(self):
        # Li2(z) + Li2(1/z) = -pi^2/6 - log(-z)^2/2 on |z| = 3
        for theta in np.linspace(0.1, 2.0 * math.pi - 0.1, 24):
            z = 3.0 * np.exp(1j * theta)
            lhs = dilog(complex(z)) + dilog(complex(1.0 / z))
            rhs = -math.pi**2 / 6.0 - 0.5 * np.log(complex(-z)) ** 2
            assert abs(lhs - rhs) < 1e-12

    def test_branch_cut(self):
        with pytest.raises(BranchCutError):
            dilog(1.5)
        # just off the cut is fine
        assert dilog(1.5 + 1e-9j).imag != 0.0


class TestScalingFunction:
    def test_amplitude_at_zero(self):
        assert scaling_F(0.0) == pytest.approx(A0, abs=1e-14)
        assert A0 == pytest.approx(-0.7290111329472270, abs=1e-12)

    def test_large_argument_square_root(self):
        assert 0.98 < scaling_F(25.0) / (-5.0) < 1.02

    @pytest.mark.parametrize("k", range(1, 13))
    def test_pole_detection(self, k):
        zero = float(sp.ai_zeros(k)[0][-1])  # S1 at k = 1
        with pytest.raises(PoleProximityError) as err:
            scaling_F(zero + 1e-10)
        assert err.value.nearest == pytest.approx(zero, abs=1e-8)

    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_series_matches_ratio(self, s):
        assert scaling_F_series(s, 40) == pytest.approx(scaling_F(s), abs=1e-8)

    def test_series_limit_at_zero(self):
        assert scaling_F_series(1e-12, 40) == pytest.approx(-airy_zeta(1), abs=1e-10)

    def test_series_divergence(self):
        with pytest.raises(DivergenceError):
            scaling_F_series(2.4, 40)

    def test_series_truncation_bound(self):
        value, bound = scaling_F_series(1.5, 30, full_output=True)
        assert abs(value - scaling_F(1.5)) < 10.0 * bound + 1e-12

    def test_hadamard_product(self):
        # Hadamard factorization of Ai over 1e4 zeros. The bare product
        # prod (1 - s/s_k) diverges (sum 1/|s_k| does), so the convergent
        # genus-one form with e^{s/s_k} factors is tested,
        #   Ai(s) = Ai(0) e^{A0 s} prod_k (1 - s/s_k) e^{s/s_k},
        # with the quadratic zeta tail of the truncated product restored
        # from the integral estimate (the remaining error is the cubic
        # tail, ~1e-5 at |s| = 2 for K = 1e4).
        K = 10_000
        zeros = np.array(airy_zeros(K))
        tail2 = (1.5 * math.pi) ** (-4.0 / 3.0) * (K + 0.25) ** (-1.0 / 3.0) * 3.0
        for s in np.linspace(-2.0, 2.0, 9):
            log_product = float(np.sum(np.log1p(-s / zeros) + s / zeros))
            model = AIRY_AT_ZERO * math.exp(A0 * s + log_product - 0.5 * s * s * tail2)
            assert model == pytest.approx(airy(s).ai, rel=1e-4)
