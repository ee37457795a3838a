"""log q-Pochhammer products, the alternating series, continued fraction,
pole boundary, remainder certification and contour quadrature."""

import cmath
import hashlib
import inspect
import itertools
import json
import logging
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import textwrap
import time

import hypothesis
import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

from dyckarea import qseries
from dyckarea.asymptotics import g_scaling, g_uniform, h_uniform, scaling_s, scaling_t
from dyckarea.datasets import scan_g_vs_t, scan_scaling_fn
from dyckarea.errors import (
    AccuracyError,
    DomainError,
    NonConvergenceError,
    PoleProximityError,
    ResourceLimitError,
)
from dyckarea.qseries import (
    EvalSettings,
    contour_h,
    euler_maclaurin_check,
    g_cfrac,
    g_ratio,
    h_series,
    log_q_pochhammer,
    t_infinity,
)
import oracles

# frozen from 40-digit direct partial sums of the defining series
H_02_05 = 0.6262869831031218
H_01_05 = 0.8066191269521281
G_02_05 = 1.2879385149528385
QP_HALF = 0.2887880950866024

# sha256 of the "q,t_inf" and "eps,t,h_series,g_ratio" lines (repr of each
# value, or the name of the error raised) built by TestGoldenDigest, re-pinned
# after H(qt) moved into the pass of H(t) at the exact product qt, and again
# after its terms became T_n - T_(n-1) (-t) q^(2n-2): three g_ratio values
# moved, each within the bound of test_oracle_accuracy (1.4e-16 -> 0,
# 0 -> 2.2e-16, and 3.0e-11 -> 9.7e-12 next to a zero of H); and again after
# g_ratio became one division of the integer sums, rounded once: fourteen
# g_ratio values moved by an ulp or two, none farther from the oracle than
# 3.3e-16 relative (9.7e-12 next to the zero of H, as before); and again
# after t_infinity came to bisect [1/4, 1] on the continued fraction's sign
# count: the six roots moved by 3.7e-13 relative at most, inside tol, and
# with them the eight grid points at root * f, which test_oracle_accuracy checks;
# and again after every sum of H came to stop on its certified tail bound:
# 16 h_series and 20 g_ratio values moved, by 2.9e-15 and 1.5e-15 relative at
# most (eps 3e-3, t 0.15), each within the tightened test_oracle_accuracy bound
SERIES_GOLDEN_DIGEST = "29872d894f79f460b6130f001570c606d54f9ee3732c714c0f6600c91c18d6c6"


class TestGoldenDigest:
    EPS = (3e-3, 0.01, 0.03, 0.1, 0.2, 0.3, 0.7)
    TS = (1e-13, 0.05, 0.15, 0.25, 0.26, 0.3, 0.45, 0.6, 0.2 + 0.01j, 0.1 - 0.05j)
    QS = (0.3, 0.5, 0.7, 0.9, 0.95, 0.99)

    @staticmethod
    def _outcome(fn, *args):
        try:
            return repr(fn(*args))
        except Exception as err:
            return type(err).__name__

    def _roots_and_grid(self):
        roots = {q: t_infinity(q) for q in self.QS}
        grid = [(eps, t) for eps in self.EPS for t in self.TS]
        for q in (0.5, 0.99):  # at, beside and q-scaled next to the first zero of H
            grid += [(-math.log(q), roots[q] * f) for f in (1.0, 1 - 1e-7, 1 + 1e-7, (1 - 1e-7) / q)]
        return roots, grid

    def test_golden_digest(self):
        roots, grid = self._roots_and_grid()
        lines = [f"{q!r},{root!r}" for q, root in roots.items()]
        for eps, t in grid:
            s = EvalSettings(q=math.exp(-eps))
            lines.append(f"{eps!r},{t!r},{self._outcome(h_series, t, s)},{self._outcome(g_ratio, t, s)}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SERIES_GOLDEN_DIGEST

    def test_oracle_accuracy(self):
        # every value on the golden grid is within _oracle_bound
        for eps, t in self._roots_and_grid()[1]:
            q = math.exp(-eps)
            s = EvalSettings(q=q)
            h, hq = oracles.h(t, q), oracles.h(oracles.exact_qt(q, t), q)
            for fn, reference, series in ((h_series, h, 1), (g_ratio, hq / h, 2)):
                try:
                    res = fn(t, s, full_output=True)
                except PoleProximityError:
                    continue
                bound = _oracle_bound(series, res)
                assert abs(res.value - reference) <= bound * abs(reference), (fn.__name__, eps, t)


def _oracle_bound(series: int, res) -> float:
    """The relative error a result of ``series`` sums of H may carry: each
    sum's certified tail, 2^-54, the final rounding to a double, 2^-53, and
    the floor errors its reported surviving bits allow."""
    return series * 2.0**-54 + 2.0**-53 + 2.0 ** (res.bits_lost - res.precision_bits + 4)


class TestEvalSettings:
    # eps is never stored: every route recomputes it from q through the one check
    def test_epsilon_recomputed(self):
        assert qseries._epsilon(0.5) == pytest.approx(math.log(2.0), rel=1e-15)
        assert qseries._epsilon(math.exp(-1e-5)) == -math.log(math.exp(-1e-5))
        for q in (0.0, 1.0, -0.5, 1.5, math.nan, math.inf):
            with pytest.raises(DomainError, match=rf"q must lie in \(0, 1\), got {re.escape(repr(q))}$"):
                qseries._epsilon(q)

    def test_validation(self):
        with pytest.raises(DomainError):
            EvalSettings(q=1.0)
        with pytest.raises(TypeError):  # _sum_h alone picks the precision
            EvalSettings(q=0.5, precision_bits=200)

    def test_bits_floor(self):
        assert EvalSettings(q=0.5).bits_for(0.2) >= 53

    def test_bits_scale_with_epsilon(self):
        loose = EvalSettings(q=0.9).bits_for(0.2)
        tight = EvalSettings(q=math.exp(-0.01)).bits_for(0.2)
        assert tight > loose


@pytest.mark.parametrize("route", [h_series, g_ratio, g_cfrac])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_t_is_a_domain_error(route, t):
    nome = 0.5 if route is g_cfrac else EvalSettings(q=0.5)
    with pytest.raises(DomainError):
        route(t, nome)
    with pytest.raises(DomainError):
        route(complex(0.1, t), nome)


def test_cfrac_takes_real_t():
    for t in (0.1 + 0.1j, complex(0.2, 0.0)):
        with pytest.raises(DomainError, match="takes real t"):
            g_cfrac(t, 0.5)


# every route that reads q, in qseries and asymptotics, refuses a q outside
# (0, 1) with the one check's message; where t is bad too (nan, complex), or
# needs no work (t = 0), q is still checked first
@pytest.mark.parametrize("q", [0.0, 1.0, 1.5, -0.5, math.nan])
@pytest.mark.parametrize("route", [
    lambda q: EvalSettings(q=q),
    lambda q: log_q_pochhammer(0.3, q),
    lambda q: euler_maclaurin_check(0.3 + 0.2j, q),
    lambda q: contour_h(0.2, q),
    lambda q: t_infinity(q),
    lambda q: g_cfrac(0.0, q),
    lambda q: g_cfrac(0.2 + 0.1j, q),
    lambda q: h_uniform(0.2, q),
    lambda q: g_uniform(0.2, q),
    lambda q: scaling_s(math.nan, q),
    lambda q: scaling_t(math.nan, q),
    lambda q: g_scaling(0.0, q),
], ids=["EvalSettings", "log_q_pochhammer", "euler_maclaurin_check", "contour_h", "t_infinity",
        "g_cfrac_at_zero", "g_cfrac_complex", "h_uniform", "g_uniform", "scaling_s", "scaling_t",
        "g_scaling"])
def test_one_check_for_q(route, q):
    with pytest.raises(DomainError, match=r"^q must lie in \(0, 1\)"):
        route(q)


class TestQPochhammer:
    def test_empty_product(self):
        assert log_q_pochhammer(0.3, 0.5, 0) == 0.0

    def test_single_factor(self):
        assert log_q_pochhammer(0.5, 0.5, 1) == math.log(0.5)

    def test_euler_function(self):
        assert log_q_pochhammer(0.5, 0.5) == pytest.approx(math.log(QP_HALF), abs=1e-14)

    def test_complex_argument(self):
        value = log_q_pochhammer(0.2 + 0.1j, 0.5, 3)
        expected = (1 - (0.2 + 0.1j)) * (1 - (0.2 + 0.1j) * 0.5) * (1 - (0.2 + 0.1j) * 0.25)
        assert cmath.exp(value) == pytest.approx(expected, rel=1e-14)

    def test_infinite_needs_q_in_unit(self):
        with pytest.raises(DomainError):
            log_q_pochhammer(0.5, 1.2)

    def test_log_form(self):
        # the sum of the factors' logs against mpmath's product
        z = 0.3 + 0.4j
        assert cmath.exp(log_q_pochhammer(z, 0.6)) == pytest.approx(complex(mpmath.qp(z, 0.6)), abs=1e-12)

    @pytest.mark.parametrize("z, q", [(-3.0 + 0.5j, 0.9), (0.2 + 1.5j, 0.99), (40.0 - 1e-3j, 0.5),
                                      (-0.9 - 0.2j, 0.99), (-7.0, 0.8)])
    def test_principal_branch(self, z, q):
        # the sum of the principal logs, not the log of the product: the
        # factors' args add up past pi, and the tail is summed as its log series
        n = max(8, math.ceil(math.log(max(abs(z), 1.0) / (1e-17 * (1.0 - q))) / -math.log(q)) + 2)
        expected = oracles.log_q_pochhammer_sum(z, q, n)
        assert log_q_pochhammer(z, q) == pytest.approx(expected, rel=1e-13)

    # the factors logged one at a time and the geometric series of the rest,
    # against the product: the principal branch is test_principal_branch's
    @pytest.mark.parametrize("n", [None, 5, 50, 400])
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.99, 0.999])
    def test_against_a_200_bit_product(self, q, n):
        rng = random.Random(f"{q},{n}")
        for _ in range(3):
            z = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            value = log_q_pochhammer(z, q, n)
            reference = oracles.log_q_pochhammer_product(z, q, n, value)
            assert abs(value - reference) <= 4e-15 * max(1.0, abs(reference)), (z, q, n)

    # outside 0 < q < 1 the series does not apply: every factor is logged
    @pytest.mark.parametrize("q", [1.0, 1.5, -0.5])
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_finite_order_outside_the_unit_interval(self, q, n):
        for z in (0.3 + 0.2j, -1.5 + 0.7j):
            expected = oracles.log_q_pochhammer_sum(z, q, n)
            assert log_q_pochhammer(z, q, n) == pytest.approx(expected, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.5, math.inf)])
    def test_non_finite_z_is_a_domain_error(self, z):
        with pytest.raises(DomainError):
            log_q_pochhammer(z, 0.5)


class TestHSeries:
    def test_at_origin(self):
        assert h_series(0.0, EvalSettings(q=0.7)) == 1.0

    def test_frozen_values(self):
        s = EvalSettings(q=0.5)
        assert h_series(0.2, s) == pytest.approx(H_02_05, abs=1e-13)
        assert h_series(0.1, s) == pytest.approx(H_01_05, abs=1e-13)

    def test_diagnostics(self):
        res = h_series(0.2, EvalSettings(q=0.5), full_output=True)
        assert res.precision_bits == EvalSettings(q=0.5).bits_for(0.2)
        assert res.terms_used < 30
        assert res.bits_lost < 8.0
        assert res.last_term < 1e-10

    def test_cancellation_grows_as_q_to_one(self):
        mild = h_series(0.2, EvalSettings(q=0.5), full_output=True)
        harsh = h_series(0.2, EvalSettings(q=math.exp(-0.02)), full_output=True)
        assert harsh.bits_lost > mild.bits_lost + 10

    @pytest.mark.parametrize("t, q", [(0.2, 0.5), (0.45, 0.99), (-0.3, 0.9)])
    def test_complex_path_matches_real(self, t, q):
        # the (re, im) pairs with im = 0 reproduce the real sums, their stop
        # and their diagnostics exactly; term 0 = 1 is the peak at (0.2, 0.5)
        for route in (h_series, g_ratio):
            real = route(t, EvalSettings(q=q), full_output=True)
            cplx = route(complex(t, 0.0), EvalSettings(q=q), full_output=True)
            assert (complex(real.value), real.terms_used, real.bits_lost, real.last_term) == (
                cplx.value, cplx.terms_used, cplx.bits_lost, cplx.last_term), route.__name__

    def test_non_convergence(self, monkeypatch):
        monkeypatch.setattr(qseries, "_MAX_TERMS", 3)
        with pytest.raises(NonConvergenceError) as err:
            h_series(0.2, EvalSettings(q=0.5))
        assert err.value.last_term is not None

    @pytest.mark.parametrize("route", [h_series, g_ratio])
    def test_fails_fast_where_no_pass_can_stop(self, route):
        # at (0.2, 1e-6) the term ratios reach 1/2 only from n = 267 143,
        # past _MAX_TERMS, so no pass can stop: the error comes before any sum
        start = time.process_time()
        with pytest.raises(NonConvergenceError, match="no earlier than term 267143"):
            route(0.2, EvalSettings(q=math.exp(-1e-6)))
        assert time.process_time() - start < 1.0

    @hypothesis.settings(max_examples=300)
    @hypothesis.given(st.floats(-8.0, 4.0), st.floats(-3.0, 1.0), st.booleans())
    def test_first_stop_bounds_the_loop(self, log_t, log_eps, negative):
        # the loop's own test of r_(n-1) <= 1/2, in its running doubles,
        # first holds at or after the bound, and within one term of it
        t, q = (-1.0 if negative else 1.0) * 10.0**log_t, math.exp(-(10.0**log_eps))
        bound = qseries._first_stop(t, q)
        q2, qn, q2n = q * q, q, 1.0
        for n in itertools.count(1):
            if abs(t) * q2n <= 0.5 * (1.0 - qn):
                break
            qn, q2n = qn * q, q2n * q2
        assert bound <= n < bound + 1.0


class TestGRatio:
    def test_at_origin(self):
        assert g_ratio(0.0, EvalSettings(q=0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_value(self):
        assert g_ratio(0.2, EvalSettings(q=0.5)) == pytest.approx(G_02_05, abs=1e-13)

    def test_diagnostics(self):
        res = g_ratio(0.2, EvalSettings(q=0.5), full_output=True)
        assert 0.0 < res.last_term < 1e-10

    def test_last_term_past_the_double_range(self):
        # the sums of H pass 2^1024 at t = 1e20; G and the continued fraction agree
        res = g_ratio(1e20, EvalSettings(q=math.exp(-0.1)), full_output=True)
        assert res.last_term == math.inf
        assert res.value == pytest.approx(g_cfrac(1e20, math.exp(-0.1)), rel=1e-12)

    def test_catalan_trend(self):
        # towards C(0.24) = 1.6168... as q -> 1
        closed = (1.0 - math.sqrt(1.0 - 0.96)) / 0.48
        err_far = abs(g_ratio(0.24, EvalSettings(q=0.9)) - closed)
        err_near = abs(g_ratio(0.24, EvalSettings(q=0.999)) - closed)
        assert err_near < err_far
        assert err_near < 5e-2

    def test_pole_proximity(self):
        q = 0.5
        root = t_infinity(q)
        with pytest.raises(PoleProximityError):
            g_ratio(root, EvalSettings(q=q))


def _envelope_bits(t: float, settings: EvalSettings) -> int:
    return max(settings.bits_for(t), settings.bits_for(settings.q * t))


def _envelope_reference(fn, t, settings: EvalSettings):
    """h_series or g_ratio at t summed at the envelope, the cap of the
    precision rule, and rounded as they round: one int true division per part."""
    scaled = fn is g_ratio
    bits = _envelope_bits(t, settings) if scaled else settings.bits_for(t)
    frac, sums = qseries._h_series_mp(t, settings.q, scaled, bits)
    (d_re, d_im), cplx = sums[0][0], isinstance(t, complex)
    if not scaled:
        unit = 1 << frac
        return complex(d_re / unit, d_im / unit) if cplx else d_re / unit
    (n_re, n_im), norm2 = sums[1][0], d_re * d_re + d_im * d_im
    return complex((n_re * d_re + n_im * d_im) / norm2, (n_im * d_re - n_re * d_im) / norm2) if cplx else n_re / d_re


class TestRatioPrecision:
    """g_ratio sums at the saddle-point prediction of the cancellation, or at
    53 + 96 bits off it, and reruns at no less than twice the bits and the
    measured loss when fewer than 53 + 96 bits survive."""

    @hypothesis.settings(max_examples=40)
    @hypothesis.given(
        log_eps=st.floats(math.log(1e-3), math.log(0.2)),
        t=st.floats(1e-6, 0.45),
    )
    def test_predicted_matches_envelope(self, log_eps, t):
        q = math.exp(-math.exp(log_eps))
        res = g_ratio(t, EvalSettings(q=q), full_output=True)
        bits = _envelope_bits(t, EvalSettings(q=q))
        reference = _envelope_reference(g_ratio, t, EvalSettings(q=q))
        assert res.precision_bits <= bits
        assert abs(res.value - reference) <= 1e-14 * abs(reference)
        if res.precision_bits < bits:  # the prediction, not the envelope, was used
            assert res.precision_bits - res.bits_lost >= 149

    @pytest.mark.parametrize("zero_of", ["H(t)", "H(qt)"])
    def test_rerun_next_to_zero(self, caplog, zero_of):
        q = math.exp(-0.01)
        settings = EvalSettings(q=q)
        t = t_infinity(q) * (1.0 - 1e-7) / (q if zero_of == "H(qt)" else 1.0)
        with caplog.at_level(logging.DEBUG, logger="dyckarea"):
            res = g_ratio(t, settings, full_output=True)
        assert any("rerun" in rec.getMessage() for rec in caplog.records)
        envelope = _envelope_bits(t, settings)
        assert res.precision_bits < envelope  # the rerun went to the loss, not the envelope
        assert res.precision_bits - res.bits_lost >= 149
        assert res.value == _envelope_reference(g_ratio, t, settings)

    def test_reports_larger_loss(self):
        # H(qt) sits next to its zero and loses 106.8 bits; H(t) loses 91.4
        q = math.exp(-0.01)
        settings = EvalSettings(q=q)
        t = t_infinity(q) * (1.0 - 1e-7) / q
        assert g_ratio(t, settings, full_output=True).bits_lost > 100

    def test_cost_guard(self, caplog):
        # the envelope rule sums this point at 26 554 bits; it loses 141,
        # and the prediction's guard bits cover that in one pass
        with caplog.at_level(logging.DEBUG, logger="dyckarea"):
            res = g_ratio(0.05, EvalSettings(q=math.exp(-1e-3)), full_output=True)
        assert not any("rerun" in rec.getMessage() for rec in caplog.records)
        assert res.precision_bits < 400
        assert res.precision_bits - res.bits_lost >= 149

    @pytest.mark.parametrize("t, most_bits", [(0.001j, 149), (0.05 + 0.05j, 700), (0.2 + 0.01j, 1300), (-0.25, 149)])
    def test_off_saddle(self, caplog, t, most_bits):
        # the envelope sums these at 110 412, 22 319, 12 724 and 11 285 bits
        settings = EvalSettings(q=math.exp(-1e-3))
        with caplog.at_level(logging.DEBUG, logger="dyckarea"):
            res = g_ratio(t, settings, full_output=True)
        passes = [int(m.group(1)) for rec in caplog.records
                  if (m := re.search(r": (\d+) of \d+ bits", rec.getMessage()))]
        assert passes[0] == 149 and all(b >= 2 * a for a, b in zip(passes, passes[1:]))  # each rerun doubles
        assert passes[-1] == res.precision_bits <= most_bits
        assert res.value == _envelope_reference(g_ratio, t, settings)
        TestAgainstOracle._ratio_within_bound(t, settings)


class TestBitsLost:
    """The loss is read off the loop's integers in doubles, the sum an
    (re, im) pair, im = 0 for real t; it agrees with a 64-bit mpmath log of
    the ratio, also beyond the double range."""

    FRAC = 7000  # units of 2^-7000 hold 2.5e-2000 to more than 200 bits

    @classmethod
    def _units(cls, x: str) -> int:
        with mpmath.workprec(cls.FRAC + 5200):
            return int(mpmath.nint(mpmath.ldexp(mpmath.mpf(x), cls.FRAC)))

    @pytest.mark.parametrize("peak, total", [
        ("3e30", "1.2345e-5"),
        ("1.7e1500", "-2.5e-2000"),
        ("1e10", ("3e-20", "-4e-21")),
        ("1e10", ("0", "-2e-30")),
        ("2e300", ("-7e-400", "0")),
    ])
    def test_against_mpmath_log(self, peak, total):
        peak = self._units(peak)
        total = tuple(map(self._units, total if isinstance(total, tuple) else (total, "0")))
        with mpmath.workprec(64):
            expected = float(mpmath.log(mpmath.mpf(peak) / mpmath.hypot(*total), 2))
        assert qseries._bits_lost(peak, total) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_no_loss_and_zero_sum(self):
        assert qseries._bits_lost(2, (3, 0)) == 0.0
        assert qseries._bits_lost(2, (-2, 0)) == 0.0
        assert qseries._bits_lost(5, (3, -4)) == 0.0
        assert qseries._bits_lost(2, (0, 0)) == math.inf


class TestNextToZeros:
    """Both series callers, right next to a zero of H(t) or of H(qt), agree
    with the envelope precision and keep 53 + 96 bits after their reruns."""

    @hypothesis.settings(max_examples=20)
    @hypothesis.given(
        log_eps=st.floats(math.log(3e-3), math.log(0.2)),
        log_delta=st.floats(math.log(1e-9), math.log(1e-3)),
        side=st.sampled_from([-1.0, 1.0]),
        zero_of=st.sampled_from(["H(t)", "H(qt)"]),
    )
    def test_matches_envelope(self, log_eps, log_delta, side, zero_of):
        q = math.exp(-math.exp(log_eps))
        settings = EvalSettings(q=q)
        t = t_infinity(q) * (1.0 + side * math.exp(log_delta)) / (q if zero_of == "H(qt)" else 1.0)
        for fn, envelope in ((h_series, settings.bits_for(t)), (g_ratio, _envelope_bits(t, settings))):
            res = fn(t, settings, full_output=True)
            assert res.value == _envelope_reference(fn, t, settings)
            assert res.precision_bits <= envelope
            if res.precision_bits < envelope:
                assert res.precision_bits - res.bits_lost >= 149


class TestAgainstOracle:
    """h_series and g_ratio match a direct high-precision sum wherever
    53 + 96 bits survive the cancellation; the stop rule's truncation is
    certified below 2^-54 of each sum."""

    @hypothesis.settings(max_examples=30)
    @hypothesis.given(
        eps=st.floats(1e-3, 0.7),
        t=st.one_of(
            st.floats(0.0, 0.6, exclude_min=True),
            st.complex_numbers(max_magnitude=0.3, allow_nan=False, allow_infinity=False),
        ),
    )
    def test_matches_oracle(self, eps, t):
        q = math.exp(-eps)
        settings = EvalSettings(q=q)
        h, hq = oracles.h(t, q), oracles.h(oracles.exact_qt(q, t), q)
        try:
            res = h_series(t, settings, full_output=True)
        except DomainError:  # only past the double range
            assert not sys.float_info.min <= abs(h) <= sys.float_info.max
        else:
            if res.precision_bits - res.bits_lost >= 149:
                assert abs(res.value - h) <= 1e-13 * abs(h)
        res = g_ratio(t, settings, full_output=True)
        if res.precision_bits - res.bits_lost >= 149:
            assert abs(res.value - hq / h) <= 1e-13 * abs(hq / h)

    @staticmethod
    def _ratio_within_bound(t, settings):
        q = settings.q
        reference = oracles.h(oracles.exact_qt(q, t), q) / oracles.h(t, q)
        res = g_ratio(t, settings, full_output=True)
        assert abs(res.value - reference) <= _oracle_bound(2, res) * abs(reference)

    @pytest.mark.parametrize("eps, t", [(1.038e-3, 0.148), (1e-3, 0.1), (3e-3, 0.26)])
    def test_ratio_at_exact_qt(self, eps, t):
        # H(qt) at the double nearest qt is off by qt H'(qt)/H(qt) 2^-53
        # relative: 1.8e-14, 6.7e-15 and 1.1e-14 of G at these points
        self._ratio_within_bound(t, EvalSettings(q=math.exp(-eps)))

    @hypothesis.settings(max_examples=12)
    @hypothesis.given(
        eps=st.floats(3e-3, 0.7),
        t=st.complex_numbers(min_magnitude=0.02, max_magnitude=0.3, allow_nan=False, allow_infinity=False),
    )
    def test_complex_ratio_at_exact_qt(self, eps, t):
        self._ratio_within_bound(t, EvalSettings(q=math.exp(-eps)))

    @classmethod
    def _narrowed_within_bound(cls, t, settings):
        # the value is within _ratio_within_bound's bound of the oracle, and
        # the narrowed sums are those of the full-width pass at the same
        # precision, to the rounding the reported surviving bits allow
        try:
            res = g_ratio(t, settings, full_output=True)
        except PoleProximityError:
            return
        cls._ratio_within_bound(t, settings)
        frac, narrowed = qseries._h_series_mp(t, settings.q, True, res.precision_bits, narrow=True)
        full_frac, full = qseries._h_series_mp(t, settings.q, True, res.precision_bits)
        assert frac <= full_frac
        rounding = 2.0 ** (res.bits_lost - res.precision_bits + 4)
        for ((re, _), *_), ((full_re, _), *_) in zip(narrowed, full):
            assert abs((re << full_frac - frac) - full_re) <= rounding * abs(full_re)

    # a seeded draw over the benchmark's ratio domain, eps log-uniform in
    # [1e-3, 1e-1] and t in (0.05, 0.25): its passes below the envelope are
    # narrowed past the peak of their terms
    @pytest.mark.parametrize("seed", range(12))
    def test_narrowed_integers(self, seed):
        rng = random.Random(seed)
        eps, t = math.exp(rng.uniform(math.log(1e-3), math.log(0.1))), rng.uniform(0.05, 0.25)
        self._narrowed_within_bound(t, EvalSettings(q=math.exp(-eps)))

    # the golden grid's points at and beside the first zero of H
    @pytest.mark.parametrize("f", [1.0, 1 - 1e-7, 1 + 1e-7, "(1 - 1e-7) / q"])
    @pytest.mark.parametrize("q", [0.5, 0.99])
    def test_narrowed_integers_next_to_zeros(self, q, f):
        f = (1 - 1e-7) / q if isinstance(f, str) else f
        self._narrowed_within_bound(t_infinity(q) * f, EvalSettings(q=q))


class TestStopRule:
    """Every sum of H stops where the geometric majorant certifies that the
    terms it drops add up to at most 2^-54 of it, and the saddle estimate at
    t sizes H(qt) too."""

    # a seeded draw of real and complex t, |t| <= 1/2, eps log-uniform in [1e-3, 1]
    @pytest.mark.parametrize("seed", range(16))
    def test_dropped_tail_below_bound(self, seed):
        rng = random.Random(seed)
        q = math.exp(-math.exp(rng.uniform(math.log(1e-3), 0.0)))
        t = rng.uniform(-0.5, 0.5) if seed % 2 else cmath.rect(rng.uniform(0.0, 0.5), rng.uniform(-math.pi, math.pi))
        settings, h = EvalSettings(q=q), oracles.h(t, q)
        n = h_series(t, settings, full_output=True).terms_used
        assert abs(oracles.h_tail(t, q, n, False)) <= 2.0**-54 * abs(h)
        n = g_ratio(t, settings, full_output=True).terms_used // 2  # both series
        for reference, scaled in ((h, False), (oracles.h(oracles.exact_qt(q, t), q), True)):
            assert abs(oracles.h_tail(t, q, n, scaled)) <= 2.0**-54 * abs(reference), scaled

    # a seeded grid of real t below the pole line: H(qt) loses no more bits
    # than H(t) in one scaled pass, so the estimate at t sizes both
    @pytest.mark.parametrize("eps", [1e-3, 4e-3, 0.02, 0.2])
    def test_scaled_series_loses_no_more_bits(self, eps):
        q, rng = math.exp(-eps), random.Random(eps)
        for t in sorted(rng.uniform(0.0, t_infinity(q)) for _ in range(4)):
            bits = qseries._predicted_bits(t, q)
            _, [(h, _, h_peak, _), (hq, _, hq_peak, _)] = qseries._h_series_mp(t, q, True, bits)
            lost, lost_q = qseries._bits_lost(h_peak, h), qseries._bits_lost(hq_peak, hq)
            assert bits - lost >= 149 and lost_q <= lost, (t, lost, lost_q)


class TestGCfrac:
    def test_at_origin(self):
        assert g_cfrac(0.0, 0.3) == 1.0

    def test_frozen_value(self):
        value, depth = g_cfrac(0.2, 0.5, full_output=True)
        assert value == pytest.approx(G_02_05, abs=1e-12)
        # G >= 1, and the tail at depth K lies in [1, C(x_K)], x_k = 0.2 * 0.5^k:
        # levels K-1 .. 0 carry it to an interval at most prod_(k <= K) (C(x_k) - 1)
        # wide, as C(x) - 1 = x C(x)^2 bounds each level's slope. Below 2^-60 at
        # the reported depth, and not one level higher
        with mpmath.workprec(100):
            x = [mpmath.mpf(0.2) * mpmath.mpf(0.5) ** k for k in range(depth + 1)]
            slopes = [(1 - mpmath.sqrt(1 - 4 * w)) / (2 * w) - 1 for w in x]
            assert mpmath.fprod(slopes) < mpmath.mpf(2) ** -60 <= mpmath.fprod(slopes[:-1])

    def test_beyond_pole_line(self):
        # converges past t_inf(0.5) = 0.624 where the series C route fails
        value = g_cfrac(0.35, 0.5)
        assert math.isfinite(value)
        assert value == pytest.approx(g_ratio(0.35, EvalSettings(q=0.5)), rel=1e-10)

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_cross_method_grid(self, q):
        settings = EvalSettings(q=q)
        top = 0.9 * t_infinity(q)
        for t in (0.05 + k * 0.05 for k in range(math.ceil((top - 0.05) / 0.05))):
            a = g_cfrac(t, q)
            b = g_ratio(t, settings)
            assert abs(a - b) / abs(a) < 1e-9

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_functional_equation(self, q):
        for t in (0.05, 0.15, 0.25):
            G = g_cfrac(t, q)
            Gq = g_cfrac(q * t, q)
            assert abs(G - 1.0 - t * G * Gq) < 1e-10

    def test_deep_evaluation_consistency(self):
        # the pairwise matrix path kicks in past the scalar depth limit
        value = g_cfrac(0.2, math.exp(-2e-5))
        closed = (1.0 - math.sqrt(0.2)) / 0.4
        assert value == pytest.approx(closed, abs=1e-4)
        assert value < closed  # area weight q < 1 suppresses every term

    # g_cfrac at t = 0.2, 0.25 and -3 takes the scalar loop at eps = 1e-3 and
    # the pairwise product at the smaller eps, t and eps alone picking the
    # kernel; each line reports the bits the cut certifies, at least 60
    @pytest.mark.parametrize("eps, path", [(1e-3, "scalar"), (2e-4, "pairwise"), (5e-5, "pairwise")])
    def test_each_evaluation_logged(self, caplog, eps, path):
        for t in (0.2, 0.25, -3.0):
            with caplog.at_level(logging.DEBUG, logger="dyckarea"):
                _, depth = g_cfrac(t, math.exp(-eps), full_output=True)
            lines = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("cfrac")]
            assert len(lines) == 1
            line = re.fullmatch(rf"cfrac: depth {depth}, path {path}, bound (\S+) bits", lines[0])
            assert line and float(line.group(1)) >= 60.0, (t, lines)
            caplog.clear()


# sha256 of the lines built by TestCfracGoldenDigest (repr of every value, or
# the name of the error raised; not the depth g_cfrac reports), pinned while
# the continued fraction still doubled its depth until two values agreed, and
# re-pinned when it became cut where its tail enclosure closes: 15 of the 42
# values of g_cfrac and of the grid evaluator moved, the pairwise ones as the tree
# regroups, by 2.4e-14 relative at most (eps 1e-3, t = 20, past the pole
# line), each still within its TestCfracOracle bound; and again when the
# grid evaluator went: its lines were dropped and the kernel's one line per
# (q, depth) now lists every t, with no value moved; and again when t < 0
# came to be cut at the first level whose enclosure, |det P| / (d (c + d)),
# is within 2^-60 of G (190 levels where 14 979 were walked): g_cfrac at
# eps 2e-4, t = -20 moved by 2 ulps, from 2.6e-16 to 1.3e-17 relative off
# the 200-bit oracle, now the correctly rounded double; and again when the
# scalar loop's weights became t * libm pow(q, k) for numpy's power: 3 of the
# 21 g_cfrac values moved (eps 1e-3, t = 0.263, 0.45 and 20), by 1.5e-13
# relative at most (t = 20, past the pole line: 7.1e-14 -> 8.3e-14 off the
# oracle; t = 0.263 and 0.45 came closer, to 6.3e-16 and 2.6e-16), and no
# pairwise value moved
CFRAC_VALUES_DIGEST = "49fec4bc5942aa48db26b4ca05312a504b4173af5789947aeeda6aa77a210677"


class TestCfracGoldenDigest:
    TS = (-20.0, -0.3, 1e-3, 0.25, 0.263, 0.45, 20.0)
    # chunk edges at 2^16 and the scalar depth limit 200 000
    DEPTHS = (1, 2, 3, 64, 65, 65535, 65536, 65537, 131073, 200001)

    def test_golden_digest(self):
        outcome = TestGoldenDigest._outcome
        lines = []
        for q in (0.5, math.exp(-1e-4)):  # q^k underflows to 0 at q = 0.5
            for depth in self.DEPTHS:
                values = [qseries._cfrac_pairwise(t, q, depth) for t in self.TS]
                lines.append(f"pairwise,{q!r},{depth},{values!r}")
        for eps in (0.5, 1e-3, 2e-4):  # at 2e-4 g_cfrac takes the pairwise kernel
            for t in self.TS:
                lines.append(f"g_cfrac,{eps!r},{t!r},{outcome(g_cfrac, t, math.exp(-eps))}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CFRAC_VALUES_DIGEST


class TestCfracOracle:
    """``g_cfrac``, and the scans that call it, against ``oracles.cfrac`` at
    the points of ``TestCfracGoldenDigest`` and on the README ``scaling_fn``
    scan's t grid. The bound is 1e-13 relative, and past the pole line the
    roundoff the double chain was measured to make there, where it exceeds
    that (largest over the dead-level and the cut evaluations, rounded up)."""

    PAST_POLE_ROUNDOFF = {(1e-3, 20.0): 4e-12, (2e-4, 0.45): 2.5e-13, (2e-4, 20.0): 5e-12}

    @staticmethod
    def _assert_close(got, t, q, bound):
        exact = oracles.cfrac(t, q)
        assert abs((got - exact) / exact) < bound, (t, q, got)

    def test_agrees_at_300_bits(self):
        for eps, t in [(1e-3, 0.263), (2e-4, 0.45), (0.5, -20.0)]:
            q = math.exp(-eps)
            assert abs(oracles.cfrac(t, q) / oracles.cfrac(t, q, bits=300) - 1) < 1e-40

    @pytest.mark.parametrize("eps", [0.5, 1e-3, 2e-4])
    def test_golden_points(self, eps):
        q = math.exp(-eps)
        for t in TestCfracGoldenDigest.TS:
            bound = self.PAST_POLE_ROUNDOFF.get((eps, t), 1e-13)
            self._assert_close(g_cfrac(t, q), t, q, bound)

    # the scalar loop's weights t * libm pow(q, k): q^k within 0.51 ulp of
    # the 200-bit power at every level the loop may run, underflow included
    @hypothesis.settings(max_examples=300)
    @hypothesis.given(log_eps=st.floats(math.log(1e-5), math.log(3.0)),
                      k=st.integers(0, qseries._SCALAR_DEPTH_LIMIT - 1))
    def test_scalar_weights_within_half_an_ulp(self, log_eps, k):
        q = math.exp(-math.exp(log_eps))
        with mpmath.workprec(200):
            exact = mpmath.power(mpmath.mpf(q), k)
            error = abs(mpmath.mpf(math.pow(q, k)) - exact) / math.ulp(float(exact))
        assert error <= 0.51, (q, k, float(error))

    # the scalar-path points of TestCfracGoldenDigest in a fresh process with
    # numpy's AVX-512 dispatch off give the bits they give here: the loop's
    # weights come from libm, not from numpy's SIMD power, whose last bits
    # differed with that dispatch on. On a CPU without AVX-512 the variable
    # changes nothing and the test is vacuous
    def test_scalar_bits_free_of_numpy_dispatch(self):
        script = textwrap.dedent(f"""
            import json, math
            from dyckarea.qseries import g_cfrac
            lines = []
            for eps in (0.5, 1e-3):
                for t in {TestCfracGoldenDigest.TS!r}:
                    try:
                        lines.append(repr(g_cfrac(t, math.exp(-eps))))
                    except Exception as err:
                        lines.append(type(err).__name__)
            print(json.dumps(lines))
        """)
        src = str(pathlib.Path(qseries.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
        res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        here = [TestGoldenDigest._outcome(g_cfrac, t, math.exp(-eps))
                for eps in (0.5, 1e-3) for t in TestCfracGoldenDigest.TS]
        assert json.loads(res.stdout) == here

    # at the depth the rule cuts at, the two ends of the tail's enclosure,
    # carried to level 0 at 200 bits, lie within 2^-60 of each other relative
    # to G, past the pole line too, wherever g_cfrac raises no pole error
    @hypothesis.settings(max_examples=30)
    @hypothesis.given(t=st.floats(-20.0, 20.0), log_eps=st.floats(math.log(1e-4), math.log(3.0)))
    @hypothesis.example(t=-3.7, log_eps=math.log(6.4e-4))
    @hypothesis.example(t=-10.8, log_eps=math.log(9e-3))
    def test_cut_closes_the_enclosure(self, t, log_eps):
        q = math.exp(-math.exp(log_eps))
        try:
            g_cfrac(t, q)
        except PoleProximityError:
            return
        depth = qseries._cfrac_depth(t, q, -math.log(q))[0]
        with mpmath.workprec(200):
            x, p = next(itertools.islice(oracles._level_maps(t, q), depth - 1, None))
            lo, hi = oracles._enclosure(t, x, p)
            assert abs(hi - lo) < mpmath.mpf(2) ** -60 * abs(lo), (t, q, depth)

    # for t < 0 the cut is the first level whose 200-bit enclosure is within
    # 2^-60 of G, or the one after (the walk measures the width in doubles)
    @pytest.mark.parametrize("t, eps", [(-3.7, 6.4e-4), (-10.8, 9e-3), (-20.0, 1e-4), (-1e3, 1e-3)])
    def test_negative_t_cut_at_the_first_closed_enclosure(self, t, eps):
        q = math.exp(-eps)
        depth = qseries._cfrac_depth(t, q, eps)[0]
        with mpmath.workprec(200):
            widths = [abs(hi - lo) / abs(lo) for lo, hi in (
                oracles._enclosure(t, x, p) for x, p in itertools.islice(oracles._level_maps(t, q), depth))]
        first = next(k for k, w in enumerate(widths, 1) if w < mpmath.mpf(2) ** -60)
        assert first <= depth <= first + 1, (first, depth)

    # g_cfrac raises, and a g_vs_t scan writes NaN in that row (a scaling_fn
    # scan stops at |s| <= 1e4, far below these t)
    @pytest.mark.parametrize("t", [1e308, -1e308])
    def test_largest_t_is_a_domain_error(self, t):
        for q in (0.5, math.exp(-1e-4)):
            with pytest.raises(DomainError):
                g_cfrac(t, q)
            assert math.isnan(scan_g_vs_t(q, 0.1, t, 2).columns["G_cfrac"][1])

    # the cut walks level by level to the first |t q^m| <= 1/4 (t > 0) or
    # <= 1 (t < 0), about ln(4|t|)/eps or ln|t|/eps levels; past the scalar
    # depth limit that walk is refused before it starts, and a g_vs_t scan
    # writes NaN in that row
    @pytest.mark.parametrize("t, eps, levels", [(-1e200, 1e-3, 460518), (1e10, 1e-4, 244122)])
    def test_long_walk_fails_fast(self, t, eps, levels):
        q = math.exp(-eps)
        start = time.process_time()
        with pytest.raises(ResourceLimitError, match=re.escape(f"walk from t = {t!r} is {levels} levels long, over 200000")):
            g_cfrac(t, q)
        assert time.process_time() - start < 5e-3
        assert math.isnan(scan_g_vs_t(q, 0.1, t, 2).columns["G_cfrac"][1])

    # the README scan: --eps-list 0.5,1e-2 --s-min -3 --s-max 3 --steps 13;
    # its column is g_cfrac at each t, bit for bit
    @pytest.mark.parametrize("eps", [0.5, 1e-2])
    def test_readme_scaling_grid(self, eps):
        q = math.exp(-eps)
        ts = [scaling_t(-3.0 + i * 0.5, q) for i in range(12)] + [scaling_t(3.0, q)]
        values = [g_cfrac(t, q) for t in ts]
        for t, value in zip(ts, values):
            self._assert_close(value, t, q, 1e-13)
        column = scan_scaling_fn([eps], -3.0, 3.0, 13).columns[f"F_from_cfrac_eps{eps:g}"]
        amplitude = (1.0 - q) ** (1.0 / 3.0)
        assert _bits(column) == _bits([(g / 2.0 - 1.0) / amplitude for g in values])


class TestPoleBoundary:
    def test_bracket_value(self):
        root = t_infinity(0.5)
        assert 0.55 < root < 0.65

    def test_sign_change_evidence(self):
        settings = EvalSettings(q=0.5)
        assert h_series(0.55, settings) > 0.0
        assert h_series(0.65, settings) < 0.0

    def test_monotone_decreasing(self):
        assert t_infinity(0.3) > t_infinity(0.6) > t_infinity(0.9)

    def test_towards_catalan_radius(self):
        far = t_infinity(0.9)
        near = t_infinity(0.99)
        assert far > near > 0.25
        assert near - 0.25 < 0.03

    def test_root_is_zero_of_h(self):
        q = 0.7
        root = t_infinity(q)
        settings = EvalSettings(q=q)
        assert h_series(root - 1e-6, settings) > 0.0
        assert h_series(root + 1e-6, settings) < 0.0

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999])
    def test_against_oracle(self, q):
        # the bisection stops at a relative bracket of tol: the first zero of
        # the independent sum lies within 2 tol of the root it returns
        tol = inspect.signature(t_infinity).parameters["tol"].default
        root = t_infinity(q)
        assert oracles.h(root * (1 - 2 * tol), q) > 0 > oracles.h(root * (1 + 2 * tol), q)

    @pytest.mark.parametrize("q, zeros", [(0.9, 2), (0.99, 14)])
    def test_sign_count_against_oracle(self, q, zeros):
        # the chain's negative denominators count the zeros of H below t: on
        # a grid fine against their spacing, the sign changes of the
        # independent sum up to each t; the count never decreases in t
        eps, changes, sign, counts, expected = -math.log(q), 0, 1, [], []
        for t in (0.25 + 0.3 * i / 120 for i in range(1, 121)):
            if (s := mpmath.sign(oracles.h(t, q))) != sign:
                changes, sign = changes + 1, s
            counts.append(qseries._cfrac_scalar(t, q, qseries._cfrac_depth(t, q, eps)[0])[1])
            expected.append(changes)
        assert counts == expected == sorted(counts) and counts[-1] == zeros

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
    def test_tol_validation(self, tol):
        with pytest.raises(DomainError, match="tol must be finite and positive"):
            t_infinity(0.5, tol)

    def test_tol_below_the_double_spacing(self):
        # the bisection also stops where no double lies between its ends
        root = t_infinity(0.5, tol=1e-300)
        assert abs(root - t_infinity(0.5)) <= 1e-12 * root

    def test_long_chain_fails_fast(self):
        # the chain at t = 1 would be ln 4 / 1e-7 levels: refused before any is built
        start = time.process_time()
        with pytest.raises(ResourceLimitError, match="13862944 levels"):
            t_infinity(math.exp(-1e-7))
        assert time.process_time() - start < 0.05


class TestBelowDoubleRange:
    """At q = exp(-4e-4) the sum H(1/4) = 8.2e-372 lies far below 1e-300; the
    series still runs to its settled value, and t_infinity, which reads signs
    from the continued fraction, still lands on a sign change of H."""

    Q = math.exp(-4e-4)

    def test_sum_matches_oracle(self):
        [((total, im), *_)], frac, _, _ = qseries._sum_h(0.25, EvalSettings(q=self.Q))
        reference = oracles.h(0.25, self.Q)
        assert im == 0
        assert abs(mpmath.ldexp(total, -frac) - reference) <= 1e-10 * abs(reference)

    def test_h_series_out_of_range(self):
        with pytest.raises(DomainError, match=r"\|H\(0\.25\)\| = 8\.1521e-372 lies outside"):
            h_series(0.25, EvalSettings(q=self.Q))

    def test_contour_out_of_range(self):
        with pytest.raises(DomainError, match=r"\|H\(0\.25\)\| = exp\(-854\.5\) lies outside"):
            contour_h(0.25, self.Q)

    def test_pole_line_is_a_sign_change(self):
        root = t_infinity(self.Q, tol=1e-8)
        assert oracles.h(root * (1 - 1e-7), self.Q) > 0 > oracles.h(root * (1 + 1e-7), self.Q)


class TestEulerMaclaurin:
    @pytest.mark.parametrize("z", [0.3 + 0.3j, 1j])
    @pytest.mark.parametrize("q", [0.9, 0.99])
    def test_bound_holds(self, z, q):
        rc = euler_maclaurin_check(z, q)
        assert abs(rc.remainder) <= rc.bound
        assert rc.within_bound

    def test_remainder_limit(self):
        # R -> z/(12 (1-z)) as q -> 1
        z = 0.5 + 1.0j
        rc = euler_maclaurin_check(z, 0.999)
        assert rc.remainder == pytest.approx(z / (12.0 * (1.0 - z)), abs=1e-5)

    def test_error_shrinks_with_epsilon(self):
        # the ln-Pochhammer approximation error is eps * R with R -> const
        z = 0.3 + 0.3j
        errs = []
        for q in (0.9, 0.95, 0.975):
            rc = euler_maclaurin_check(z, q)
            errs.append(-math.log(q) * abs(rc.remainder))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.06)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.06)

    def test_real_axis_rejected(self):
        with pytest.raises(DomainError):
            euler_maclaurin_check(0.5 + 0.0j, 0.9)

    def test_grid(self):
        for q in (0.9, 0.99):
            for x in (-0.5, 0.0, 0.3, 0.6, 0.9):
                for y in (-1.0, -0.3, 0.3, 1.0):
                    rc = euler_maclaurin_check(complex(x, y), q)
                    assert abs(rc.remainder) <= rc.bound


class TestContour:
    def test_matches_series(self):
        value = contour_h(0.2, 0.5)
        assert isinstance(value, float)
        assert value == pytest.approx(H_02_05, rel=1e-10)

    @pytest.mark.parametrize("t", [0.1, 0.2])
    @pytest.mark.parametrize("q", [0.3, 0.5])
    def test_grid_agreement(self, t, q):
        hs = h_series(t, EvalSettings(q=q))
        assert abs(contour_h(t, q) - hs) / abs(hs) < 1e-8

    @pytest.mark.parametrize("t, q, angle", [(0.1, 0.3, math.pi / 3.0), (0.1, 0.5, math.pi / 3.0),
                                             (0.2, 0.3, math.pi / 3.0), (0.2, 0.5, math.pi / 3.0)])
    def test_near_double_precision(self, t, q, angle, monkeypatch):
        # the validate grid: at eps >= 0.1 the ray leaves rho = 1/2 at angle pi/3
        directions = []
        ray_sum = qseries._ray_sum

        def recording(log_f, rho, direction, width, h, shift):
            directions.append((rho, direction))
            return ray_sum(log_f, rho, direction, width, h, shift)

        monkeypatch.setattr(qseries, "_ray_sum", recording)
        hs = h_series(t, EvalSettings(q=q))
        assert abs(contour_h(t, q) - hs) / abs(hs) < 1e-14
        assert all(rho == 0.5 and cmath.phase(direction) == pytest.approx(angle) for rho, direction in directions)

    def test_truncation_stability(self, monkeypatch):
        calls = []
        ray_sum = qseries._ray_sum

        def recording(*args):
            calls.append((args, ray_sum(*args)))
            return calls[-1][1]

        monkeypatch.setattr(qseries, "_ray_sum", recording)
        contour_h(0.2, 0.5)
        # rebuild the settled trapezoid sum, then halve its step once more,
        # adding the new midpoints; H is a fixed multiple of its imaginary part
        (log_f, rho, direction, width, _, _), (ray, _) = calls[0]
        for (*_, h, _), (half, _) in calls[1:]:
            ray = 0.5 * (ray + h * half)
        h *= 0.5
        finer = 0.5 * (ray + h * ray_sum(log_f, rho, direction, width, h, 0.5 * h)[0])
        assert abs(finer.imag - ray.imag) < 1e-15 * abs(ray.imag)

    def test_small_value_near_q_one(self):
        # H(0.2) = 4.5e-22 at q = 0.995 and 1.6e-107 at q = 0.999: the
        # integrand is summed relative to its value at the saddle
        for q in (0.995, 0.999):
            hs = h_series(0.2, EvalSettings(q=q))
            assert abs(contour_h(0.2, q) - hs) < 1e-12 * abs(hs)

    @pytest.mark.parametrize("t, q", [(0.05, 0.98), (0.1, 0.99), (0.1, 0.995), (0.2, 0.999)])
    def test_matches_series_near_q_one(self, t, q):
        # the two-ray product quadrature returned -8.86, -4.98e-4 and -5.6e9
        # at the first three points and raised at the last
        hs = h_series(t, EvalSettings(q=q))
        assert abs(contour_h(t, q) - hs) < 1e-12 * abs(hs)

    @hypothesis.settings(max_examples=15)
    @hypothesis.given(t=st.floats(0.05, 0.25), log_eps=st.floats(-3.0, 0.0))
    def test_saddle_region_property(self, t, log_eps):
        q = math.exp(-(10.0**log_eps))
        hs = h_series(t, EvalSettings(q=q))
        assert abs(contour_h(t, q) - hs) < 1e-12 * abs(hs)

    @hypothesis.settings(max_examples=10)
    @hypothesis.given(t=st.floats(0.25, 0.4, exclude_min=True), eps=st.floats(1e-3, 1e-2))
    def test_past_quarter_is_right_or_raises(self, t, eps):
        # the ray no longer descends from a saddle: a value, or a typed failure
        q = math.exp(-eps)
        try:
            value = contour_h(t, q)
        except AccuracyError:
            return
        hs = h_series(t, EvalSettings(q=q))
        assert abs(value - hs) < 1e-10 * abs(hs)

    def test_past_the_pole_line_raises(self):
        with pytest.raises(AccuracyError):
            contour_h(0.4, 0.999)

    def test_accuracy_error_reports_last_difference(self, monkeypatch):
        # a ray sum that grows as the step shrinks never settles, and the
        # error carries the last change
        monkeypatch.setattr(qseries, "_ray_sum",
                            lambda log_f, rho, direction, width, h, shift: ((1.0 + shift) / h**2 * 1j, 1.0))
        with pytest.raises(AccuracyError) as err:
            contour_h(0.2, 0.5)
        assert err.value.last_term > 0.0

    def test_contour_validation(self):
        with pytest.raises(DomainError):
            contour_h(0.2, 1.2)
        with pytest.raises(DomainError):
            contour_h(-0.1, 0.5)


def _pairwise_grid_reference(ts, q, depth):
    """The grid as first written: every level an explicit [[0, 1], [-w, 1]]
    block, multiplied pairwise with np.matmul and scaled by its max |entry|."""
    ts = np.asarray(ts, dtype=float)
    nt = ts.size
    total = np.broadcast_to(np.eye(2), (nt, 2, 2)).copy()
    logq = math.log(q)
    for start in range(0, depth, qseries._CHUNK):
        count = min(qseries._CHUNK, depth - start)
        ks = np.arange(start, start + count)
        w = np.exp(ks * logq)[None, :] * ts[:, None]  # (nt, count)
        mats = np.zeros((nt, count, 2, 2))
        mats[:, :, 0, 1] = 1.0
        mats[:, :, 1, 0] = -w
        mats[:, :, 1, 1] = 1.0
        while mats.shape[1] > 1:
            m = mats.shape[1]
            if m % 2 == 1:
                pad = np.broadcast_to(np.eye(2), (nt, 1, 2, 2))
                mats = np.concatenate([mats, pad], axis=1)
                m += 1
            mats = np.matmul(mats[:, 0::2], mats[:, 1::2])
            scale = np.abs(mats).max(axis=(2, 3), keepdims=True)
            mats /= scale
        total = np.matmul(total, mats[:, 0])
        scale = np.abs(total).max(axis=(1, 2), keepdims=True)
        total /= scale
    num = total[:, 0, 0] + total[:, 0, 1]
    den = total[:, 1, 0] + total[:, 1, 1]
    return num / den


def _untrimmed_scalar_reference(t, q, depth):
    weights = [t * math.pow(q, k) for k in range(depth)]
    g = 1.0
    for w in reversed(weights):
        g = 1.0 / (1.0 - w * g)
    return float(g)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _level_product_reference(t, q, depth):
    """The level product of ``_pairwise_grid_reference`` for one t, before the
    tail value 1 is applied."""
    total = np.eye(2)
    for start in range(0, depth, qseries._CHUNK):
        w = np.exp(np.arange(start, min(start + qseries._CHUNK, depth)) * math.log(q)) * t
        mats = np.zeros((w.size, 2, 2))
        mats[:, 0, 1] = mats[:, 1, 1] = 1.0
        mats[:, 1, 0] = -w
        while len(mats) > 1:
            if len(mats) % 2:
                mats = np.concatenate([mats, np.eye(2)[None]])
            mats = np.matmul(mats[0::2], mats[1::2])
            mats /= np.abs(mats).max(axis=(1, 2), keepdims=True)
        total = np.matmul(total, mats[0])
        total /= np.abs(total).max()
    return total


def _assert_level_products(ts, q, depth):
    """The pairwise kernel's level products equal the reference's entry for
    entry (exact zeros of either sign): the tiny entries of dead levels,
    which the values round away, are checked here."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qseries, "_at_tail_one", lambda m: seen.append(m) or 0.0)
        for t in ts:
            qseries._cfrac_pairwise(t, q, depth)
    assert len(seen) == len(ts)
    for m, t in zip(seen, ts):
        assert np.array_equal(m, _level_product_reference(t, q, depth)), (t, q, depth)


class TestCfracBitwise:
    """The pairwise kernel (closed-form first level, elementwise max-norms)
    and the scalar loop evaluate every level they are given and change no
    bit of the fixed-depth values: each matches the grid as first written or
    the plain loop. And no level past the cut changes a bit of the loop."""

    # depths 1 to 5 and other odd depths, one and two levels into a chunk,
    # two whole chunks and either side, and depths whose tree has an odd
    # number of whole nodes on some level (12: 3 nodes of 4 levels; 80 000:
    # chunk 1 holds 14 464 levels, 113 nodes of 128)
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 12, 65, 131, 65537, 65538,
                                       80000, 131070, 131072, 131074, 131075])
    @pytest.mark.parametrize("q", [0.5, math.exp(-1e-5)])  # weights underflow / stay above 1 past a chunk
    def test_grid_matches_pairwise_matmul(self, depth, q):
        rng = np.random.default_rng(depth)
        tiny = np.concatenate([[0.0, 20.0, -20.0], rng.uniform(-1.0, 1.0, 3) * 1e-9])
        for ts in [rng.uniform(-20.0, 20.0, nt) for nt in (1, 3, 6)] + [tiny]:
            values = [qseries._cfrac_pairwise(t, q, depth) for t in ts.tolist()]
            assert _bits(values) == _bits(_pairwise_grid_reference(ts, q, depth)), ts

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        ts=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3),
        log_eps=st.floats(math.log(1e-5), math.log(3.0)),
        depth=st.integers(1, 5000),
    )
    def test_any_cut_matches_pairwise_matmul(self, ts, log_eps, depth):
        q = math.exp(-math.exp(log_eps))
        values = [qseries._cfrac_pairwise(t, q, depth) for t in ts]
        assert _bits(values) == _bits(_pairwise_grid_reference(ts, q, depth))

    # the live/dead boundary mid-chunk (|t q^k| < 2^-54 from about level
    # (ln|t| + 37.4) / eps on), depths of 2-4 chunks with whole dead chunks,
    # an odd last chunk whose single level is dead (2 * _CHUNK + 1), and the
    # boundary in the second chunk (eps = 3e-4)
    @pytest.mark.parametrize("eps, depth", [
        (1e-3, 2 * qseries._CHUNK + 1), (1e-3, 100_001), (1e-3, 3 * qseries._CHUNK + 2),
        (1e-2, 2 * qseries._CHUNK + 3), (1e-2, 4 * qseries._CHUNK - 1), (3e-4, 3 * qseries._CHUNK - 5)])
    def test_dead_levels_across_chunks(self, eps, depth):
        q = math.exp(-eps)
        for ts in ([0.25], [-20.0, 0.263, 20.0], [1e-300, -3.0]):
            values = [qseries._cfrac_pairwise(t, q, depth) for t in ts]
            assert _bits(values) == _bits(_pairwise_grid_reference(ts, q, depth)), ts
            _assert_level_products(ts, q, depth)

    # a chunk's odd last level is a dead node of its own on some tree level
    # (depth 4097: level 12; 2049 and 4095 lower), and the boundary falls
    # anywhere in or past a chunk of a few thousand levels
    @hypothesis.settings(max_examples=150)
    @hypothesis.given(
        t=st.floats(-20.0, 20.0),
        log_eps=st.floats(math.log(3e-3), math.log(1.0)),
        depth=st.integers(1, 6000) | st.sampled_from([2049, 4095, 4097]),
    )
    def test_dead_nodes_in_the_level_product(self, t, log_eps, depth):
        _assert_level_products([t], math.exp(-math.exp(log_eps)), depth)

    @staticmethod
    def _t_with_weight(power, w):
        """A t > 0 with power * t == w in doubles, searched a few ulps about w / power."""
        t = w / power
        for _ in range(64):
            if power * t == w:
                return t
            t = np.nextafter(t, math.inf if power * t < w else 0.0)
        raise AssertionError(f"no t gives {w!r} from {power!r}")

    # level k of the pairwise kernel (weights exp(k ln q) t) or the scalar
    # loop (t math.pow(q, k)) at 2^-54 exactly and one ulp either side;
    # k = 1000 opens a pair of levels, k = 1001 closes one; at depth 70 001
    # chunk 1 is dead
    @pytest.mark.parametrize("w", [np.nextafter(2.0 ** -54, 0.0), 2.0 ** -54, np.nextafter(2.0 ** -54, 1.0)])
    @pytest.mark.parametrize("k", [1000, 1001])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_weight_at_the_dead_threshold(self, w, k, sign):
        q = math.exp(-1e-2)
        for depth in (k + 500, 70_001):
            t = sign * self._t_with_weight(np.exp(np.arange(depth) * math.log(q))[k], w)
            value = qseries._cfrac_pairwise(t, q, depth)
            assert _bits([value]) == _bits(_pairwise_grid_reference([t], q, depth))
            t = sign * self._t_with_weight(math.pow(q, k), w)
            self._assert_scalar_loop(t, q, depth)

    @staticmethod
    def _t_beside_threshold(power, live):
        """The t > 0 whose weight power * t lies next to 2^-54: the smallest
        above it (live) or the largest below it (dead)."""
        t, dead = 2.0 ** -54 / power, lambda x: power * x < 2.0 ** -54
        while dead(t) != (not live):
            t = np.nextafter(t, math.inf if live else 0.0)
        while dead(nxt := np.nextafter(t, 0.0 if live else math.inf)) == (not live):
            t = nxt
        return float(t)

    # the cut each evaluation stops at: with the weight of some level next to
    # 2^-54 on either side, the loop's value at the depth _cfrac_depth gives
    # keeps its bits one level deeper, at the first dead level (|t q^k| <
    # 2^-54, plus three) that evaluations ran to before the cut, and across
    # the next chunk edge; the cut never passes that dead level. The pairwise
    # product regroups its tree with the depth, so it keeps its values only
    # to roundoff, which TestCfracOracle bounds
    @hypothesis.settings(max_examples=40)
    @hypothesis.given(
        t=st.floats(-20.0, 20.0).filter(lambda t: abs(t) >= 1e-3),
        log_eps=st.floats(math.log(1e-3), math.log(3.0)),
        live=st.booleans(),
    )
    def test_dead_levels_change_no_bit(self, t, log_eps, live):
        q = math.exp(-math.exp(log_eps))
        eps = -math.log(q)
        k = math.floor(math.log(abs(t) * 2.0 ** 54) / eps)  # |t q^k| >= 2^-54 about here
        t_k = math.copysign(self._t_beside_threshold(math.pow(q, k), live), t)
        depth = qseries._cfrac_depth(t_k, q, eps)[0]
        dead = math.ceil(math.log(abs(t_k) / 2.0 ** -54) / eps) + 3
        assert depth <= dead and dead > k + live
        chunk_edge = (depth // qseries._CHUNK + 1) * qseries._CHUNK + 1
        values = [qseries._cfrac_scalar(t_k, q, d)[0] for d in (depth, depth + 1, dead, chunk_edge)]
        assert len(set(_bits(values))) == 1, (t_k, q, depth)

    @hypothesis.settings(max_examples=200)
    @hypothesis.given(
        b=st.floats(-(2.0 ** -54), 2.0 ** -54, exclude_min=True, exclude_max=True),
        d=st.floats(-(2.0 ** -54), 2.0 ** -54, exclude_min=True, exclude_max=True),
    )
    def test_dead_products_are_exact(self, b, d):
        # D(b) D(d) = D(d), D(b) M(d) = D(d), M(d) I = M(d): the lemma behind the one-pass depth
        hypothesis.assume(b != 0.0 and d != 0.0)
        dead = lambda w: np.array([[-w, 1.0], [-w, 1.0]])
        lone = np.array([[0.0, 1.0], [-d, 1.0]])
        assert _bits(np.matmul(dead(b)[None], dead(d)[None])[0]) == _bits(dead(d))
        assert _bits(np.matmul(dead(b)[None], lone[None])[0]) == _bits(dead(d))
        assert _bits(np.matmul(lone[None], np.eye(2)[None])[0]) == _bits(lone)

    @hypothesis.settings(max_examples=12)
    @hypothesis.given(
        ts=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3),
        log_eps=st.floats(math.log(1e-3), math.log(3.0)),
        depth=st.integers(1, 3 * qseries._CHUNK),
    )
    def test_deep_rung_matches_pairwise_matmul(self, ts, log_eps, depth):
        q = math.exp(-math.exp(log_eps))
        values = [qseries._cfrac_pairwise(t, q, depth) for t in ts]
        assert _bits(values) == _bits(_pairwise_grid_reference(ts, q, depth))

    # the path follows the nominal depth 2 max(64, ceil(ln(max(|t|, 1e-12) /
    # 1e-14) / eps) + 8): the scalar loop up to _SCALAR_DEPTH_LIMIT, the
    # pairwise product past it
    @pytest.mark.parametrize("nominal", [qseries._SCALAR_DEPTH_LIMIT, qseries._SCALAR_DEPTH_LIMIT + 2])
    def test_path_across_scalar_limit(self, caplog, nominal):
        for t in (0.263, -3.0):
            eps = math.log(abs(t) / 1e-14) / (nominal // 2 - 8.5)
            q = math.exp(-eps)
            assert 2 * (math.ceil(math.log(abs(t) / 1e-14) / qseries._epsilon(q)) + 8) == nominal
            with caplog.at_level(logging.DEBUG, logger="dyckarea"):
                value, depth = g_cfrac(t, q, full_output=True)
            if nominal <= qseries._SCALAR_DEPTH_LIMIT:
                path, expected = "scalar", _untrimmed_scalar_reference(t, q, depth)
            else:
                path, expected = "pairwise", _pairwise_grid_reference([t], q, depth)[0]
            assert f"depth {depth}, path {path}" in caplog.records[-1].getMessage()
            assert _bits(value) == _bits(expected), t

    @staticmethod
    def _assert_scalar_loop(t, q, depth):
        # the same bits, or the same error where a denominator vanishes (t = 1 at depth 1)
        outcome = TestGoldenDigest._outcome
        got = outcome(lambda: _bits(qseries._cfrac_scalar(t, q, depth)[0]))
        assert got == outcome(lambda: _bits(_untrimmed_scalar_reference(t, q, depth))), (t, q, depth)

    @pytest.mark.parametrize("t", [2.0 ** -54, 2.0 ** -54 * (1 - 2.0 ** -53), 2.0 ** -53, 1e-3, 0.263, 20.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_trimmed_loop_at_the_cut(self, t, sign):
        for q, depth in ((0.5, 200), (0.9, 5000), (math.exp(-1e-3), 200_000)):
            self._assert_scalar_loop(sign * t, q, depth)

    # t past the pole line too, and chains of up to a few thousand live levels
    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(
        t=st.floats(-20.0, 20.0),
        log_eps=st.floats(math.log(1e-5), math.log(3.0)),
        depth=st.integers(1, 6000),
    )
    def test_trimmed_loop_matches_untrimmed(self, t, log_eps, depth):
        self._assert_scalar_loop(t, math.exp(-math.exp(log_eps)), depth)

    def test_zero_denominator_in_the_loop(self):
        # level 1 has w * g = 1.0 * 1.0 exactly, as level 2's weight 2^-60
        # rounds away, with level 0 above it: the loop raises there, as the
        # plain loop does, and g_cfrac turns that into a pole error
        t, q = 2.0 ** 60, 2.0 ** -60
        with pytest.raises(ZeroDivisionError) as expected:
            _untrimmed_scalar_reference(t, q, 40)
        with pytest.raises(ZeroDivisionError) as raised:
            qseries._cfrac_scalar(t, q, 40)
        assert str(raised.value) == str(expected.value)
        with pytest.raises(PoleProximityError):
            g_cfrac(t, q)
