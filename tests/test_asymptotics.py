"""Saddle data, uniform Airy approximations, tricritical and finite-size scaling."""

import cmath
import math
import random
import re

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckarea import asymptotics
from dyckarea.asymptotics import (
    PHI_AMPLITUDE,
    ScaledValue,
    _log_euler_function,
    finite_size_phi,
    g_scaling,
    g_uniform,
    h_uniform,
    phase_f,
    q_m_asymptotic,
    saddle_data,
    scaling_s,
    scaling_t,
)
from dyckarea.enumeration import area_columns, partition_series
from dyckarea.errors import (
    AccuracyError,
    BranchCutError,
    DomainError,
    NonConvergenceError,
    PoleProximityError,
)
from dyckarea.qseries import EvalSettings, g_cfrac, g_ratio, h_series, log_q_pochhammer
from dyckarea.special_functions import A0, _riccati_coefficient, airy, airy_zeta
import oracles

BETA_QUARTER = 1.3029200473423146  # ln(1/4)^2/4 + pi^2/12


class TestPhase:
    def test_saddle_condition_analytic(self):
        for t in (0.1, 0.2):
            sd = saddle_data(t)
            for z in (sd.z1, sd.z2):
                grad = (math.log(t) - cmath.log(z) - cmath.log(1.0 - z)) / z
                assert abs(grad) < 1e-12

    def test_saddle_condition_finite_difference(self):
        sd = saddle_data(0.2)
        h = 1e-6
        for z in (sd.z1, sd.z2):
            der = (phase_f(z + h, 0.2) - phase_f(z - h, 0.2)) / (2.0 * h)
            assert abs(der) < 1e-9

    def test_sum_rule(self):
        # f(z1) + f(z2) = 2 beta = ln(t)^2/2 + pi^2/6
        sd = saddle_data(0.2)
        total = (sd.f1 + sd.f2).real
        assert total == pytest.approx(2.0 * sd.beta, abs=1e-12)
        assert total == pytest.approx(0.5 * math.log(0.2) ** 2 + math.pi**2 / 6.0, abs=1e-12)

    def test_coalescent_value(self):
        assert phase_f(0.5, 0.25).real == pytest.approx(BETA_QUARTER, abs=1e-13)
        assert saddle_data(0.25).beta == pytest.approx(BETA_QUARTER, abs=1e-13)

    def test_branch_cuts(self):
        with pytest.raises(BranchCutError):
            phase_f(-0.5, 0.2)
        with pytest.raises(BranchCutError):
            phase_f(1.5, 0.2)
        with pytest.raises(DomainError):
            phase_f(0.5, -0.1)


def _near_quarter(d):
    """The t nearest (1 - d)/4 with |1 - 4t| <= |d|."""
    t = 0.25 - 0.25 * d
    while abs(1.0 - 4.0 * t) > abs(d):
        t = math.nextafter(t, 0.25)
    return t


class TestSaddleData:
    @pytest.mark.parametrize("t", [0.05, 0.15, 0.2, 0.25, 0.3, 0.45])
    def test_vieta(self, t):
        sd = saddle_data(t)
        assert abs(sd.z1 + sd.z2 - 1.0) < 1e-14
        assert abs(sd.z1 * sd.z2 - t) < 1e-14

    def test_beta_closed_form(self):
        for t in (0.1, 0.2, 0.3, 0.45):
            sd = saddle_data(t)
            assert sd.beta == pytest.approx(
                0.25 * math.log(t) ** 2 + math.pi**2 / 12.0, abs=1e-12
            )

    def test_alpha_sign_and_coalescence(self):
        assert saddle_data(0.25).alpha == 0.0
        assert saddle_data(0.2).alpha > 0.0
        assert saddle_data(0.3).alpha < 0.0

    def test_alpha_near_linear(self):
        for t in (0.21, 0.24, 0.26, 0.29):
            sd = saddle_data(t)
            assert abs(sd.alpha / (1.0 - 4.0 * t) - 1.0) < 0.2

    def test_alpha_spec_point(self):
        # alpha(0.2) tracks d = 0.2 within 15 percent
        assert saddle_data(0.2).alpha == pytest.approx(0.2, rel=0.15)

    def test_alpha_continuity_through_coalescence(self):
        left = saddle_data(0.25 - 1e-5).alpha
        right = saddle_data(0.25 + 1e-5).alpha
        assert abs(left - right) < 2e-4

    @pytest.mark.parametrize("side", [1, -1], ids=["below", "past"])
    @pytest.mark.parametrize("size", [4e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5])
    def test_near_coalescence_against_mpmath(self, size, side):
        # f(z2) - f(z1) cancels as |d|^(3/2): alpha and the coefficients come
        # from its series and closed forms, within 1e-15 of 60-digit mpmath
        t = _near_quarter(side * size)
        want = oracles.saddle(t)
        sd = saddle_data(t)
        got = (sd.alpha, sd.p0_h, sd.q0_h, sd.p0_hqt, sd.q0_hqt)
        for value, exact in zip(got, want, strict=True):
            assert abs(value / exact - 1.0) < 1e-15

    def test_coefficients_against_mpmath(self):
        # 400 t off the series band, at the double alpha: the theta form is
        # within 7.8e-16 of 60 digits, the complex powers it replaced 1.1e-15;
        # the bound keeps a margin of 1.8 over the larger
        for k in range(400):
            t = 0.001 + 0.498 * k / 399
            if abs(1.0 - 4.0 * t) < 1e-5:
                continue
            sd = saddle_data(t)
            want = oracles.saddle(t, sd.alpha)[1:]
            got = (sd.p0_h, sd.q0_h, sd.p0_hqt, sd.q0_hqt)
            for value, exact in zip(got, want, strict=True):
                assert abs(value / exact - 1.0) < 2e-15, t

    @pytest.mark.parametrize("size", [4e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5])
    def test_g_uniform_continuous_through_one_quarter(self, size):
        # within 10 |d| of the value at t = 1/4 (about 5 |d| at eps = 1e-3)
        q = math.exp(-1e-3)
        centre = g_uniform(0.25, q)
        for side in (1, -1):
            t = _near_quarter(side * size)
            assert abs(g_uniform(t, q) / centre - 1.0) < 10.0 * abs(1.0 - 4.0 * t)

    def test_coefficients_real(self):
        for t in (0.2, 0.3):
            sd = saddle_data(t)
            for value in (sd.p0_h, sd.q0_h, sd.p0_hqt, sd.q0_hqt):
                assert isinstance(value, float)
                assert math.isfinite(value)

    def test_domain(self):
        for bad in (-0.1, 0.0, 0.5, 0.7):
            with pytest.raises(DomainError):
                saddle_data(bad)

    # below the smallest t, z1 = (1 + sqrt(1 - 4t))/2 rounds to 1, the branch
    # point of the phase: a plain domain error names the smallest t accepted
    @pytest.mark.parametrize("t", [1e-20, 5e-324, math.nextafter(6.93889390390723e-17, 0.0)])
    def test_below_the_smallest_t(self, t):
        with pytest.raises(DomainError, match=re.escape(f"requires t in [6.93889390390723e-17, 1/2), got {t!r}")) as err:
            saddle_data(t)
        assert type(err.value) is DomainError

    def test_smallest_t_is_finite(self):
        sd = saddle_data(6.93889390390723e-17)
        assert sd.z1.real < 1.0
        assert all(map(math.isfinite, (sd.alpha, sd.beta, sd.p0_h, sd.q0_h, sd.p0_hqt, sd.q0_hqt)))


class TestHUniform:
    def test_matches_series_subcritical(self):
        q = math.exp(-0.05)
        exact = h_series(0.2, EvalSettings(q=q))
        approx = h_uniform(0.2, q, "H").to_float()
        assert abs(approx - exact) / abs(exact) < 0.05

    def test_error_shrinks_with_epsilon(self):
        errs = []
        for eps in (0.05, 0.025):
            q = math.exp(-eps)
            exact = h_series(0.2, EvalSettings(q=q))
            approx = h_uniform(0.2, q, "H").to_float()
            errs.append(abs(approx - exact) / abs(exact))
        assert errs[1] < errs[0]

    def test_matches_series_supercritical(self):
        # branch continuation for t > 1/4
        q = math.exp(-0.05)
        exact = h_series(0.3, EvalSettings(q=q))
        approx = h_uniform(0.3, q, "H").to_float()
        assert abs(approx - exact) / abs(exact) < 0.05

    def test_unknown_variant(self):
        with pytest.raises(DomainError, match="variant"):
            h_uniform(0.2, 0.99, "bogus")

    def test_variant_ratio_consistency(self):
        q = math.exp(-0.05)
        ratio = h_uniform(0.2, q, "H_qt").to_float() / h_uniform(0.2, q, "H").to_float()
        assert abs(ratio / g_ratio(0.2, EvalSettings(q=q)) - 1.0) < 0.05

    def test_scaled_representation(self):
        # the bare value leaves double range as eps -> 0 even though the
        # intermediate factor exp(beta/eps) ~ e^(10^4) is far larger; the
        # scaled pair keeps everything finite
        value = h_uniform(0.2, math.exp(-2e-4), "H")
        assert value.log_abs < -1000.0
        assert value.to_float() == 0.0  # clean underflow, no exception
        moderate = h_uniform(0.2, math.exp(-0.05), "H")
        assert moderate.to_float() == pytest.approx(
            moderate.mantissa * math.exp(moderate.exponent), rel=1e-14
        )
        with pytest.raises(OverflowError):
            ScaledValue(mantissa=1.5, exponent=800.0).to_float()

    @pytest.mark.parametrize("mantissa", [0.0, -0.0])
    def test_zero_mantissa(self, mantissa):
        # h_uniform returns a zero mantissa where its bracket vanishes
        value = ScaledValue(mantissa=mantissa, exponent=850.0)
        assert value.log_abs == -math.inf
        zero = value.to_float()
        assert zero == 0.0 and math.copysign(1.0, zero) == math.copysign(1.0, mantissa)

    def test_epsilon_window(self):
        with pytest.raises(DomainError):
            h_uniform(0.2, 0.5, "H")  # eps = 0.69 too coarse
        with pytest.raises(DomainError):
            h_uniform(0.2, -0.5, "H")  # no eps at all

    # at eps 1.2 and 3.0 the log (p; p)_inf term, p = exp(-4 pi^2/eps), counts
    @pytest.mark.parametrize("eps", [3.0, 1.2, 0.199, 0.05, 0.01])
    def test_eta_transformation_matches_product(self, eps):
        q = math.exp(-eps)
        assert abs(_log_euler_function(eps) - log_q_pochhammer(q, q).real) < 1e-11


class TestGUniform:
    @pytest.mark.parametrize("q", [0.0, 1.0, 1.5, math.nan])
    def test_nome_outside_unit_interval(self, q):
        with pytest.raises(DomainError):
            g_uniform(0.2, q)

    def test_two_percent_at_centi_epsilon(self):
        q = math.exp(-1e-2)
        for t in (0.05, 0.15, 0.2, 0.23):
            exact = g_cfrac(t, q)
            assert abs(g_uniform(t, q) - exact) / exact < 0.02

    # t = 0.26 at eps = 1e-3 sits 5e-4 away from a true pole of G (the
    # second denominator zero), where the comparison is meaningless; that
    # point gets an eps pair clear of poles.
    @pytest.mark.parametrize(
        "t,eps_pair",
        [
            (0.15, (1e-2, 1e-3)),
            (0.2, (1e-2, 1e-3)),
            (0.24, (1e-2, 1e-3)),
            (0.25, (1e-2, 1e-3)),
            (0.26, (3e-2, 3e-3)),
            (0.3, (1e-2, 1e-3)),
        ],
    )
    def test_error_decreases_with_epsilon(self, t, eps_pair):
        errs = []
        for eps in eps_pair:
            q = math.exp(-eps)
            exact = g_cfrac(t, q)
            errs.append(abs(g_uniform(t, q) - exact) / abs(exact))
        assert errs[1] < errs[0]

    @pytest.mark.parametrize("t", [0.1, 0.2])
    def test_catalan_limit(self, t):
        closed = (1.0 - math.sqrt(1.0 - 4.0 * t)) / (2.0 * t)
        errs = [abs(g_uniform(t, math.exp(-eps)) - closed) for eps in (1e-2, 1e-3, 1e-4)]
        assert errs[0] > errs[1] > errs[2]

    def test_small_t_limit(self):
        assert g_uniform(0.01, math.exp(-1e-3)) == pytest.approx(1.0, abs=0.02)

    def test_critical_point_expansion(self):
        # at t = 1/4 the value departs from 2 by 2 A0 (1-q)^(1/3)
        q = math.exp(-1e-6)
        g = g_uniform(0.25, q)
        assert g - 2.0 == pytest.approx(2.0 * A0 * (1.0 - q) ** (1.0 / 3.0), rel=0.05)

    def test_pole_detection(self):
        # bracket a zero of the Airy denominator above the critical point
        q = math.exp(-1e-2)
        eps = 1e-2

        def denominator(t):
            sd = saddle_data(t)
            pair = airy(sd.alpha * eps ** (-2.0 / 3.0))
            return sd.p0_h * pair.ai - sd.q0_h * eps ** (1.0 / 3.0) * pair.ai_prime

        lo, hi = 0.27, 0.32
        assert denominator(lo) * denominator(hi) < 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if denominator(lo) * denominator(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        with pytest.raises(PoleProximityError):
            g_uniform(0.5 * (lo + hi), q)


class TestScaling:
    def test_query_consistency(self):
        q = math.exp(-1e-3)
        t = scaling_t(1.0, q)
        assert scaling_s(t, q) == pytest.approx(1.0, abs=1e-10)
        # this close to q = 1 the t of s = 1 keeps no digit of s
        with pytest.raises(DomainError, match="inconsistent scaling query"):
            scaling_t(1.0, math.exp(-1e-16))

    @pytest.mark.parametrize("q", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_nome_validation(self, q):
        for fn in (scaling_s, scaling_t, g_scaling):
            with pytest.raises(DomainError):
                fn(0.2, q)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate(self, x):
        with pytest.raises(DomainError, match="finite t"):
            scaling_s(x, 0.99)
        with pytest.raises(DomainError, match="finite s"):
            scaling_t(x, 0.99)

    def test_amplitude_identity(self):
        q = math.exp(-1e-4)
        assert scaling_t(0.0, q) == 0.25
        assert g_scaling(0.0, q) == pytest.approx(
            2.0 * (1.0 + A0 * (1.0 - q) ** (1.0 / 3.0)), abs=1e-14
        )

    def test_uniform_beats_scaling(self):
        # at matched points the Airy-ratio form is the closer approximation
        q = math.exp(-1e-4)
        for s in (-1.0, -0.5, 0.5, 1.0):
            t = scaling_t(s, q)
            exact = g_cfrac(t, q)
            err_uniform = abs(g_uniform(t, q) - exact)
            err_scaling = abs(g_scaling(s, q) - exact)
            assert err_uniform <= err_scaling

    def test_scaling_error_shrinks(self):
        for s in (0.5, -0.5):
            errs = []
            for eps in (1e-3, 1e-4, 1e-5):
                q = math.exp(-eps)
                exact = g_cfrac(scaling_t(s, q), q)
                errs.append(abs(g_scaling(s, q) - exact))
            assert errs[0] > errs[1] > errs[2]


class TestFiniteSize:
    def test_sign_calibration(self):
        # the constant sign of phi agrees with the exact series (ratio 0.56)
        [column] = area_columns([12])
        exact = partition_series(column, 0.25)
        asym = q_m_asymptotic(12, 0.25)
        assert exact > 0.0
        assert asym > 0.0

    def test_value_at_origin(self):
        # -amplitude * Z(1)/Gamma(-1/3)
        base = airy_zeta(1) / math.gamma(-1.0 / 3.0)
        expected = -PHI_AMPLITUDE * base
        assert finite_size_phi(0.0) == pytest.approx(expected, rel=1e-12)
        assert finite_size_phi(0.0) > 0.0

    def test_large_s_form_identity(self):
        # m^{-4/3} phi((1-4t) m^{2/3}) is term-for-term the m-power series
        m, t, j_top = 40, 0.23, 3
        s = (1.0 - 4.0 * t) * m ** (2.0 / 3.0)
        direct = 0.0
        for j in range(j_top + 1):
            direct += (
                airy_zeta(j + 1)
                / math.gamma(2.0 * j / 3.0 - 1.0 / 3.0)
                * m ** (2.0 * j / 3.0)
                * (1.0 - 4.0 * t) ** j
            )
        direct *= -PHI_AMPLITUDE * m ** (-4.0 / 3.0)
        truncated = 0.0
        for j in range(j_top + 1):
            truncated += (
                airy_zeta(j + 1)
                / math.gamma(2.0 * j / 3.0 - 1.0 / 3.0)
                * s**j
            )
        truncated *= -PHI_AMPLITUDE * m ** (-4.0 / 3.0)
        assert direct == pytest.approx(truncated, rel=1e-13)

    def test_ratio_trend_at_fixed_s(self):
        areas = (20, 40, 80)
        deviations = []
        for m, column in zip(areas, area_columns(areas)):
            t = (1.0 - m ** (-2.0 / 3.0)) / 4.0
            exact = partition_series(column, t)  # exact: c[m][0..2m] fixes Q_m
            ratio = exact / q_m_asymptotic(m, t)
            assert ratio > 0.0
            deviations.append(abs(ratio - 1.0))
        assert deviations[0] > deviations[1] > deviations[2]

    def test_validation(self):
        with pytest.raises(DomainError):
            q_m_asymptotic(5, 0.24)
        with pytest.raises(NonConvergenceError):
            finite_size_phi(40.0)

    @pytest.mark.parametrize("s", [1e3, -1e3])
    def test_term_outside_double_range(self, s):
        # s^j overflows from j = 103 at |s| = 1e3
        with pytest.raises(DomainError, match="term 103 .* leaves the double range"):
            finite_size_phi(s)

    def test_dropped_tail_is_certified(self, monkeypatch):
        # the terms past the stop, from the program's own Z(j+1) = -c_j and
        # exact Gamma and powers, sum to at most 2^-54 of the sum; term j
        # reads c_j, so the reads of the coefficient generator count the
        # terms summed
        calls = []
        monkeypatch.setattr(asymptotics, "_riccati_coefficient",
                            lambda j: calls.append(j) or _riccati_coefficient(j))
        rng = random.Random(35)
        for s in [0.0, -30.0, 3.9, *(rng.uniform(-30.0, 3.9) for _ in range(40))]:
            calls.clear()
            total = finite_size_phi(s) / -PHI_AMPLITUDE
            assert calls == list(range(len(calls)))
            tail, j = mpmath.mpf(0), len(calls)
            with mpmath.workprec(200):
                while True:
                    term = (mpmath.mpf(-_riccati_coefficient(j)) * mpmath.mpf(s) ** j
                            / mpmath.gamma(mpmath.mpf(2 * j - 1) / 3))
                    tail += term
                    if abs(term) <= 2.0**-120 * abs(total):
                        break
                    j += 1
                assert abs(tail) <= 2.0**-54 * abs(total), s

    # the largest |phi/phi_exact - 1| measured up to each upper edge of s, on
    # a 0.1 grid of [-30, 3.8] and 6000 uniform draws; the oracle sums the
    # exact coefficients at 80 digits, so what is left is the double sum
    _PHI_WORST = ((-8.0, 1.0e-14), (-2.0, 1.45e-15), (1.0, 8.9e-16), (2.0, 6.7e-15), (3.8, 6.6e-13))

    def _assert_near_exact(self, s):
        bound = next(worst for edge, worst in self._PHI_WORST if s <= edge)
        assert abs(finite_size_phi(s) / oracles.phi_exact(s) - 1) <= 4.0 * bound, s

    def test_against_exact_coefficients(self):
        for k in range(-300, 39):
            self._assert_near_exact(k / 10.0)

    @settings(max_examples=200)
    @given(st.floats(min_value=-30.0, max_value=3.8))
    def test_against_exact_coefficients_drawn(self, s):
        self._assert_near_exact(s)

    def test_cancellation_guard(self):
        # every s the old fixed 24-term cut accepted (a 0.01 grid of
        # [-5.01, 3.36]) loses at most 8.3 bits; from 10 lost bits on the sum
        # is refused
        for k in range(-501, 337):
            assert math.isfinite(finite_size_phi(k / 100.0)), k
        for s in (5.0, 8.0, 40.0):
            with pytest.raises(AccuracyError):
                finite_size_phi(s)
