"""q-Pochhammer products, the alternating series, continued fraction,
pole boundary, remainder certification and contour quadrature."""

import cmath
import hashlib
import logging
import math
import re
import sys
import tracemalloc

import hypothesis
import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

from dyckarea import qseries
from dyckarea.errors import (
    AccuracyError,
    DomainError,
    NonConvergenceError,
    PoleProximityError,
    SearchFailureError,
)
from dyckarea.qseries import (
    ContourSpec,
    EvalSettings,
    contour_h,
    euler_maclaurin_check,
    g_cfrac,
    g_cfrac_grid,
    g_ratio,
    h_series,
    log_q_pochhammer_inf,
    q_pochhammer,
    t_infinity,
)

# frozen from 40-digit direct partial sums of the defining series
H_02_05 = 0.6262869831031218
H_01_05 = 0.8066191269521281
G_02_05 = 1.2879385149528385
QP_HALF = 0.2887880950866024

# sha256 of the "q,t_inf" and "eps,t,h_series,g_ratio" lines (repr of each
# value, or the name of the error raised) built by TestGoldenDigest, re-pinned
# after H(qt) moved into the pass of H(t) at the exact product qt; only
# g_ratio values moved, to within 1.5e-15 of the exact-qt sum of
# test_oracle_accuracy (up to 2.9e-10 before, next to a zero of H(qt))
SERIES_GOLDEN_DIGEST = "166922cc908e094f6286e3a63373abbc83249f8b3b6f5013153b781ce6035d80"


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
        # every value on the golden grid is within the stop rule's truncation
        # (tol per series) plus the rounding its reported surviving bits allow
        for eps, t in self._roots_and_grid()[1]:
            q = math.exp(-eps)
            s = EvalSettings(q=q)
            h, hq = _oracle_h(t, q), _oracle_h(_exact_qt(q, t), q)
            for fn, reference, series in ((h_series, h, 1), (g_ratio, hq / h, 2)):
                try:
                    res = fn(t, s, full_output=True)
                except PoleProximityError:
                    continue
                bound = series * s.tol + 2.0 ** (res.bits_lost - res.precision_bits + 4)
                assert abs(res.value - reference) <= bound * abs(reference), (fn.__name__, eps, t)


def _exact_qt(q, t):
    """The product q t without rounding: two doubles multiply exactly in 106 bits."""
    return mpmath.fmul(q, t, prec=2000)


def _oracle_h(t, q, prec=2000):
    """H(t) by direct summation in mpmath, independent of ``qseries``.

    Numerator power, q^(n^2-n) and (q; q)_n are carried separately. Past
    the index where |t| q^(2n) <= (1 - q^(n+1))/2 every term ratio is at most
    1/2, so stopping there at a term below 2^-120 |sum| leaves a tail below
    that. The precision doubles until 200 bits survive the cancellation.
    """
    while True:
        with mpmath.workprec(prec):
            q_mp, neg_t = mpmath.mpf(q), -mpmath.mpmathify(t)
            total = peak = power = q_nn = poch = q_n = mpmath.mpf(1)
            while True:
                q_n *= q_mp
                poch *= 1 - q_n
                power *= neg_t
                term = q_nn * power / poch
                q_nn *= q_n * q_n
                total += term
                peak = max(peak, abs(term))
                if (abs(t) * q_n * q_n <= (1 - q_n * q_mp) / 2
                        and abs(term) <= abs(total) * mpmath.mpf(2) ** -120):
                    break
            if prec - mpmath.log(peak / abs(total), 2) >= 200:
                return total
        prec *= 2


class TestEvalSettings:
    def test_epsilon_recomputed(self):
        s = EvalSettings(q=0.5)
        assert s.epsilon == pytest.approx(math.log(2.0), rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            EvalSettings(q=1.0)
        for tol in (0.0, -1e-12, math.nan, math.inf):
            with pytest.raises(DomainError):
                EvalSettings(q=0.5, tol=tol)
        with pytest.raises(DomainError):
            EvalSettings(q=0.5, precision_bits=32)

    def test_bits_floor(self):
        assert EvalSettings(q=0.5).bits_for(0.2) >= 53
        assert EvalSettings(q=0.5, precision_bits=128).bits_for(0.2) == 128

    def test_bits_scale_with_epsilon(self):
        loose = EvalSettings(q=0.9).bits_for(0.2)
        tight = EvalSettings(q=math.exp(-0.01)).bits_for(0.2)
        assert tight > loose


@pytest.mark.parametrize("route", [h_series, g_ratio, g_cfrac])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_t_is_a_domain_error(route, t):
    with pytest.raises(DomainError):
        route(t, EvalSettings(q=0.5))
    if route is not g_cfrac:
        with pytest.raises(DomainError):
            route(complex(0.1, t), EvalSettings(q=0.5))


class TestQPochhammer:
    def test_empty_product(self):
        assert q_pochhammer(0.3, 0.5, 0) == 1.0

    def test_single_factor(self):
        assert q_pochhammer(0.5, 0.5, 1) == 0.5

    def test_euler_function(self):
        assert q_pochhammer(0.5, 0.5) == pytest.approx(QP_HALF, abs=1e-14)

    def test_complex_argument(self):
        value = q_pochhammer(0.2 + 0.1j, 0.5, 3)
        expected = (1 - (0.2 + 0.1j)) * (1 - (0.2 + 0.1j) * 0.5) * (1 - (0.2 + 0.1j) * 0.25)
        assert value == pytest.approx(expected, rel=1e-14)

    def test_infinite_needs_q_in_unit(self):
        with pytest.raises(DomainError):
            q_pochhammer(0.5, 1.2)

    def test_log_form(self):
        z = 0.3 + 0.4j
        assert log_q_pochhammer_inf(z, 0.6) == pytest.approx(
            cmath.log(q_pochhammer(z, 0.6)), abs=1e-12
        )


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


class TestGRatio:
    def test_at_origin(self):
        assert g_ratio(0.0, EvalSettings(q=0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_value(self):
        assert g_ratio(0.2, EvalSettings(q=0.5)) == pytest.approx(G_02_05, abs=1e-13)

    def test_diagnostics(self):
        res = g_ratio(0.2, EvalSettings(q=0.5), full_output=True)
        assert 0.0 < res.last_term < 1e-10

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


class TestRatioPrecision:
    """g_ratio sums at the saddle-point prediction of the cancellation and
    reruns at the measured loss when fewer than 53 + 96 bits survive."""

    @hypothesis.settings(max_examples=40)
    @hypothesis.given(
        log_eps=st.floats(math.log(1e-3), math.log(0.2)),
        t=st.floats(1e-6, 0.45),
    )
    def test_predicted_matches_envelope(self, log_eps, t):
        q = math.exp(-math.exp(log_eps))
        res = g_ratio(t, EvalSettings(q=q), full_output=True)
        bits = _envelope_bits(t, EvalSettings(q=q))
        reference = g_ratio(t, EvalSettings(q=q, precision_bits=bits), full_output=True)
        assert reference.precision_bits == bits
        assert res.precision_bits <= bits
        assert abs(res.value - reference.value) <= 1e-14 * abs(reference.value)
        if res.precision_bits < bits:  # the prediction, not the envelope, was used
            assert res.precision_bits - res.bits_lost >= 149

    @pytest.mark.parametrize("zero_of", ["H(t)", "H(qt)"])
    def test_rerun_next_to_zero(self, caplog, zero_of):
        q = math.exp(-0.01)
        settings = EvalSettings(q=q)
        t = t_infinity(q, settings) * (1.0 - 1e-7) / (q if zero_of == "H(qt)" else 1.0)
        with caplog.at_level(logging.DEBUG, logger="dyckarea"):
            res = g_ratio(t, settings, full_output=True)
        assert any("rerun" in rec.getMessage() for rec in caplog.records)
        envelope = _envelope_bits(t, settings)
        assert res.precision_bits < envelope  # the rerun went to the loss, not the envelope
        assert res.precision_bits - res.bits_lost >= 149
        assert res.value == g_ratio(t, EvalSettings(q=q, precision_bits=envelope))

    def test_reports_larger_loss(self):
        # H(qt) sits next to its zero and loses 106.8 bits; H(t) loses 91.4
        q = math.exp(-0.01)
        settings = EvalSettings(q=q)
        t = t_infinity(q, settings) * (1.0 - 1e-7) / q
        assert g_ratio(t, settings, full_output=True).bits_lost > 100

    def test_cost_guard(self, caplog):
        # the envelope rule sums this point at 26 554 bits; it loses 141,
        # and the prediction's guard bits cover that in one pass
        with caplog.at_level(logging.DEBUG, logger="dyckarea"):
            res = g_ratio(0.05, EvalSettings(q=math.exp(-1e-3)), full_output=True)
        assert not any("rerun" in rec.getMessage() for rec in caplog.records)
        assert res.precision_bits < 400
        assert res.precision_bits - res.bits_lost >= 149

    @pytest.mark.parametrize("t, q", [(0.2, 0.5), (0.05, math.exp(-1e-3)), (0.2 + 0.01j, 0.9)])
    def test_precision_bits_honoured(self, t, q):
        for fn in (g_ratio, h_series):
            assert fn(t, EvalSettings(q=q, precision_bits=300), full_output=True).precision_bits == 300


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
        t = t_infinity(q, settings) * (1.0 + side * math.exp(log_delta)) / (q if zero_of == "H(qt)" else 1.0)
        for fn, envelope in ((h_series, settings.bits_for(t)), (g_ratio, _envelope_bits(t, settings))):
            res = fn(t, settings, full_output=True)
            assert res.value == fn(t, EvalSettings(q=q, precision_bits=envelope))
            assert res.precision_bits <= envelope
            if res.precision_bits < envelope:
                assert res.precision_bits - res.bits_lost >= 149


class TestAgainstOracle:
    """h_series and g_ratio match a direct high-precision sum wherever
    53 + 96 bits survive the cancellation. tol = 1e-15 keeps the stop rule's
    truncation (up to tol/(1 - term ratio) relative, 2e-13 at t = -1/4 and
    eps = 1.5e-3 with the default tol) out of the comparison."""

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
        settings = EvalSettings(q=q, tol=1e-15)
        h, hq = _oracle_h(t, q), _oracle_h(_exact_qt(q, t), q)
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
        # the stop rule's truncation (tol per series) plus the rounding its
        # reported surviving bits allow
        q = settings.q
        reference = _oracle_h(_exact_qt(q, t), q) / _oracle_h(t, q)
        res = g_ratio(t, settings, full_output=True)
        bound = 2 * settings.tol + 2.0 ** (res.bits_lost - res.precision_bits + 4)
        assert abs(res.value - reference) <= bound * abs(reference)

    @pytest.mark.parametrize("eps, t", [(1.038e-3, 0.148), (1e-3, 0.1), (3e-3, 0.26)])
    def test_ratio_at_exact_qt(self, eps, t):
        # H(qt) at the double nearest qt is off by qt H'(qt)/H(qt) 2^-53
        # relative: 1.8e-14, 6.7e-15 and 1.1e-14 of G at these points
        self._ratio_within_bound(t, EvalSettings(q=math.exp(-eps), tol=1e-16))

    @hypothesis.settings(max_examples=12)
    @hypothesis.given(
        eps=st.floats(3e-3, 0.7),
        t=st.complex_numbers(min_magnitude=0.02, max_magnitude=0.3, allow_nan=False, allow_infinity=False),
    )
    def test_complex_ratio_at_exact_qt(self, eps, t):
        self._ratio_within_bound(t, EvalSettings(q=math.exp(-eps), tol=1e-16))


class TestGCfrac:
    def test_at_origin(self):
        assert g_cfrac(0.0, EvalSettings(q=0.3)) == 1.0

    def test_frozen_value(self):
        value, depth = g_cfrac(0.2, EvalSettings(q=0.5), full_output=True)
        assert value == pytest.approx(G_02_05, abs=1e-12)
        assert depth >= 64

    def test_beyond_pole_line(self):
        # converges past t_inf(0.5) = 0.624 where the series C route fails
        value = g_cfrac(0.35, EvalSettings(q=0.5))
        assert math.isfinite(value)
        assert value == pytest.approx(g_ratio(0.35, EvalSettings(q=0.5)), rel=1e-10)

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_cross_method_grid(self, q):
        settings = EvalSettings(q=q)
        top = 0.9 * t_infinity(q, settings)
        for t in np.arange(0.05, top, 0.05):
            a = g_cfrac(float(t), settings)
            b = g_ratio(float(t), settings)
            assert abs(a - b) / abs(a) < 1e-9

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_functional_equation(self, q):
        settings = EvalSettings(q=q)
        for t in (0.05, 0.15, 0.25):
            G = g_cfrac(t, settings)
            Gq = g_cfrac(q * t, settings)
            assert abs(G - 1.0 - t * G * Gq) < 1e-10

    def test_grid_matches_scalar(self):
        settings = EvalSettings(q=math.exp(-0.01))
        ts = np.array([0.05, 0.1, 0.2, 0.24])
        grid = g_cfrac_grid(ts, settings)
        for t, v in zip(ts, grid):
            assert v == pytest.approx(g_cfrac(float(t), settings), rel=1e-12)

    def test_grid_memory_independent_of_grid_size(self):
        # each t is evaluated on its own, so 40 t peak no higher than 2 do
        settings = EvalSettings(q=math.exp(-3e-4))
        peaks = []
        for nt in (2, 40):
            tracemalloc.start()
            try:
                g_cfrac_grid(np.linspace(0.2, 0.26, nt), settings)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_deep_evaluation_consistency(self):
        # the pairwise matrix path kicks in past the scalar depth limit
        settings = EvalSettings(q=math.exp(-2e-5), tol=1e-10)
        value = g_cfrac(0.2, settings)
        closed = (1.0 - math.sqrt(0.2)) / 0.4
        assert value == pytest.approx(closed, abs=1e-4)
        assert value < closed  # area weight q < 1 suppresses every term

    @pytest.mark.parametrize("eps, path", [(1e-3, "scalar"), (2e-4, "mixed"), (5e-5, "pairwise")])
    def test_each_rung_logged(self, caplog, eps, path):
        settings = EvalSettings(q=math.exp(-eps))
        with caplog.at_level(logging.DEBUG, logger="dyckarea"):
            _, depth = g_cfrac(0.25, settings, full_output=True)
            g_cfrac_grid(np.array([0.1, 0.25]), settings)
        rungs = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("cfrac rung")]
        assert len(rungs) == 2  # the first rung settles both
        assert f"depth {depth}, path {path}," in rungs[0]
        assert f"depth {depth}, path pairwise, 0 levels swept, 0 left to the loop" in rungs[1]
        swept, looped = map(int, re.search(r"(\d+) levels swept, (\d+) left", rungs[0]).groups())
        assert (swept > looped > 0) if path != "pairwise" else (swept == looped == 0)
        # the pairwise depth skips every level from the first with |t q^k| <
        # 2^-54 on (the cut lies above it), the scalar rung none
        skipped = [int(re.search(r"(\d+) pairwise levels skipped as dead", r).group(1)) for r in rungs]
        powers = np.exp(np.arange(depth) * math.log(settings.q))
        dead = {t: int(np.count_nonzero(np.abs(powers * t) < 2.0 ** -54)) for t in (0.1, 0.25)}
        assert 0 < dead[0.25] < dead[0.1] < depth // 2
        assert skipped == [0 if path == "scalar" else dead[0.25], dead[0.1] + dead[0.25]]

    def test_second_rung_takes_its_half_from_the_first(self, monkeypatch):
        # chains shallower than 4000 levels are off by 1e-6, so the first rung
        # (depths 3093 and 6186) does not settle; the second evaluates only
        # its depth and takes depth 6186 from the first
        q, real, depths = math.exp(-1e-2), qseries._cfrac_scalar, []

        def spy(t, q, depth):
            depths.append(depth)
            value, swept, looped = real(t, q, depth)
            return value + (1e-6 if depth < 4000 else 0.0), swept, looped

        monkeypatch.setattr(qseries, "_cfrac_scalar", spy)
        value, depth = g_cfrac(0.25, EvalSettings(q=q), full_output=True)
        assert depths == [3093, 6186, 12372] and depth == 12372
        assert _bits(value) == _bits(_untrimmed_scalar_reference(0.25, q, depth))

    def test_empty_grid(self):
        values = g_cfrac_grid(np.array([]), EvalSettings(q=0.5))
        assert values.dtype == np.float64 and values.shape == (0,)

    def test_non_convergence_reports_last_difference(self, monkeypatch):
        # a fixed-depth value that never settles: the error carries the
        # last difference between successive depths, not zero
        monkeypatch.setattr(qseries, "_cfrac_rung", lambda ts, q, depth, scalar_limit, halves: (
            [float(depth // 2)] * len(ts), [float(depth)] * len(ts)))
        with pytest.raises(NonConvergenceError) as err:
            g_cfrac(0.2, EvalSettings(q=0.5))
        assert err.value.last_term > 0.0


# sha256 of the lines built by TestCfracGoldenDigest (repr of every value and
# depth, or the name of the error raised), pinned before the grid's first
# pairwise level went to closed form and the scalar loop dropped its dead levels
CFRAC_GOLDEN_DIGEST = "9adb5e82ae5a8082fc31dc3d8af5f368e9443f0cc0b963d53a18e663a9b83f2b"


class TestCfracGoldenDigest:
    TS = (-20.0, -0.3, 1e-3, 0.25, 0.263, 0.45, 20.0)
    # chunk edges at 2^16 and the scalar depth limit 200 000
    DEPTHS = (1, 2, 3, 64, 65, 65535, 65536, 65537, 131073, 200001)

    def test_golden_digest(self):
        outcome = TestGoldenDigest._outcome
        lines = []
        for q in (0.5, math.exp(-1e-4)):  # q^k underflows to 0 at q = 0.5
            for depth in self.DEPTHS:
                for ts in [(t,) for t in self.TS] + [self.TS[1:]]:
                    _, values, _ = qseries._cfrac_pairwise(list(ts), q, depth)
                    lines.append(f"grid,{q!r},{depth},{values!r}")
        for eps in (0.5, 1e-3, 2e-4):  # at 2e-4 the doubling goes from the scalar loop to the pairwise kernel
            s = EvalSettings(q=math.exp(-eps))
            for ts in (self.TS[:6], self.TS[6:]):
                values = outcome(lambda: g_cfrac_grid(np.array(ts), s).tolist())
                lines.append(f"g_cfrac_grid,{eps!r},{values}")
            for t in self.TS:
                lines.append(f"g_cfrac,{eps!r},{t!r},{outcome(g_cfrac, t, s, True)}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CFRAC_GOLDEN_DIGEST


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

    def test_mismatched_settings(self):
        with pytest.raises(DomainError):
            t_infinity(0.5, EvalSettings(q=0.6, tol=1e-8))


class TestBelowDoubleRange:
    """At q = exp(-4e-4) the sum H(1/4) = 8.2e-372 lies far below 1e-300; the
    series still runs to its settled value and t_infinity reads exact signs."""

    Q = math.exp(-4e-4)

    def test_sum_matches_oracle(self):
        [(total, *_)], _, _ = qseries._sum_h(0.25, EvalSettings(q=self.Q), 53 + 96)
        reference = _oracle_h(0.25, self.Q)
        assert abs(total - reference) <= 1e-10 * abs(reference)

    def test_h_series_out_of_range(self):
        with pytest.raises(DomainError):
            h_series(0.25, EvalSettings(q=self.Q))

    def test_pole_line_is_a_sign_change(self):
        root = t_infinity(self.Q, EvalSettings(q=self.Q, tol=1e-8))
        assert _oracle_h(root * (1 - 1e-7), self.Q) > 0 > _oracle_h(root * (1 + 1e-7), self.Q)


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
        settings = EvalSettings(q=0.5)
        value = contour_h(0.2, 0.5)
        assert value.real == pytest.approx(H_02_05, rel=1e-10)
        assert abs(value.imag) < 1e-10

    @pytest.mark.parametrize("t", [0.1, 0.2])
    @pytest.mark.parametrize("q", [0.3, 0.5])
    def test_grid_agreement(self, t, q):
        hs = h_series(t, EvalSettings(q=q))
        ch = contour_h(t, q)
        assert abs(ch.real - hs) / abs(hs) < 1e-8

    def test_truncation_stability(self):
        base = contour_h(0.2, 0.5, ContourSpec(lambda_max=60.0))
        extended = contour_h(0.2, 0.5, ContourSpec(lambda_max=120.0))
        assert abs(base - extended) < 1e-10

    def test_asymmetric_angles(self):
        value = contour_h(0.2, 0.5, ContourSpec(phi=math.pi / 3.0, psi=math.pi / 4.0))
        assert value.real == pytest.approx(H_02_05, rel=1e-8)

    def test_accuracy_error_reports_last_difference(self, monkeypatch):
        # the two rays differ by a term that grows with the node count, so
        # the quadrature never settles and the error carries that change
        monkeypatch.setattr(qseries, "_ray_quadrature",
                            lambda t, q, rho, angle, lam_end, order, tol: complex(order) * angle)
        with pytest.raises(AccuracyError) as err:
            contour_h(0.2, 0.5)
        assert err.value.last_term > 0.0

    def test_contour_validation(self):
        with pytest.raises(DomainError):
            ContourSpec(rho=1.5)
        with pytest.raises(DomainError):
            ContourSpec(phi=3.5)
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
    weights = (t * np.power(q, np.arange(depth))).tolist()
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
    """The pairwise kernel's level products at the cut and at the depth equal
    the reference's entry for entry (exact zeros of either sign): the dead
    nodes' tiny entries, which the values round away, are checked here."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qseries, "_at_tail_one", lambda m: seen.append(m) or 0.0)
        qseries._cfrac_pairwise(ts, q, depth)
    for got, d in ((seen[: len(ts)], depth // 2), (seen[len(ts) :], depth)):
        for m, t in zip(got, ts):
            assert np.array_equal(m, _level_product_reference(t, q, d)), (t, q, d)


class TestCfracBitwise:
    """The pairwise kernel (closed-form first level, elementwise max-norms,
    the cut taken from the chunk's own tree) and the scalar loop (skipped dead
    levels, numpy sweeps) change no bit of the fixed-depth values: each rung
    matches the grid as first written and the untrimmed loop at both of its
    depths."""

    # cuts at 0, 1, 2, odd cuts, _CHUNK - 1, _CHUNK, _CHUNK + 1, a cut in a
    # whole chunk while the depth ends one level into the next, and even cuts
    # whose tree has an odd number of whole nodes on some level (6: 3 pairs;
    # 40 000: 625 nodes of 64 levels)
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 12, 65, 131, 65537, 65538,
                                       80000, 131070, 131072, 131074, 131075])
    @pytest.mark.parametrize("q", [0.5, math.exp(-1e-5)])  # weights underflow / stay above 1 past a chunk
    def test_grid_matches_pairwise_matmul(self, depth, q):
        rng = np.random.default_rng(depth)
        tiny = np.concatenate([[0.0, 20.0, -20.0], rng.uniform(-1.0, 1.0, 3) * 1e-9])
        for ts in [rng.uniform(-20.0, 20.0, nt) for nt in (1, 3, 6)] + [tiny]:
            halves, values, _ = qseries._cfrac_pairwise(ts.tolist(), q, depth)
            assert _bits(halves) == _bits(_pairwise_grid_reference(ts, q, depth // 2)), ts
            assert _bits(values) == _bits(_pairwise_grid_reference(ts, q, depth)), ts

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        ts=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3),
        log_eps=st.floats(math.log(1e-5), math.log(3.0)),
        depth=st.integers(1, 5000),
    )
    def test_any_cut_matches_pairwise_matmul(self, ts, log_eps, depth):
        q = math.exp(-math.exp(log_eps))
        halves, values, _ = qseries._cfrac_pairwise(ts, q, depth)
        assert _bits(halves) == _bits(_pairwise_grid_reference(ts, q, depth // 2))
        assert _bits(values) == _bits(_pairwise_grid_reference(ts, q, depth))

    # the live/dead boundary mid-chunk (|t q^k| < 2^-54 from about level
    # (ln|t| + 37.4) / eps on), depths of 2-4 chunks with the cut in the dead
    # region, an odd last chunk whose single level is dead (2 * _CHUNK + 1),
    # the cut and the boundary in one chunk (100 001 at eps = 1e-3), and the
    # boundary in the second chunk (eps = 3e-4)
    @pytest.mark.parametrize("eps, depth", [
        (1e-3, 2 * qseries._CHUNK + 1), (1e-3, 100_001), (1e-3, 3 * qseries._CHUNK + 2),
        (1e-2, 2 * qseries._CHUNK + 3), (1e-2, 4 * qseries._CHUNK - 1), (3e-4, 3 * qseries._CHUNK - 5)])
    def test_dead_levels_across_chunks(self, eps, depth):
        q = math.exp(-eps)
        for ts in ([0.25], [-20.0, 0.263, 20.0], [1e-300, -3.0]):
            halves, values, _ = qseries._cfrac_pairwise(ts, q, depth)
            assert _bits(halves) == _bits(_pairwise_grid_reference(ts, q, depth // 2)), ts
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
    # loop (np.power(q, k) t) at 2^-54 exactly and one ulp either side;
    # k = 1000 opens a pair of levels, k = 1001 closes one; at depth 70 001
    # the cut lies past the boundary and chunk 1 is dead
    @pytest.mark.parametrize("w", [np.nextafter(2.0 ** -54, 0.0), 2.0 ** -54, np.nextafter(2.0 ** -54, 1.0)])
    @pytest.mark.parametrize("k", [1000, 1001])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_weight_at_the_dead_threshold(self, w, k, sign):
        q = math.exp(-1e-2)
        for depth in (k + 500, 70_001):
            t = sign * self._t_with_weight(np.exp(np.arange(depth) * math.log(q))[k], w)
            halves, values, skipped = qseries._cfrac_pairwise([t], q, depth)
            assert _bits(halves) == _bits(_pairwise_grid_reference([t], q, depth // 2))
            assert _bits(values) == _bits(_pairwise_grid_reference([t], q, depth))
            if depth // 2 < k:  # level k is the first dead one or the last live one
                assert skipped == depth - k - (w >= 2.0 ** -54)
            t = sign * self._t_with_weight(np.power(q, np.arange(depth))[k], w)
            self._assert_scalar_rung(t, q, depth)

    # a t dead from level 0 next to a live one: a chunk's np.exp is skipped
    # only where every t is dead (chunk 0 is live for 0.25, chunks 1 and the
    # single-level chunk 2 are dead for both)
    @pytest.mark.parametrize("ts, full_chunks", [([1e-20], 0), ([1e-20, 0.25], 1), ([0.25, -1e-20], 1)])
    def test_chunk_powers_only_where_some_t_lives(self, monkeypatch, ts, full_chunks):
        q, depth = math.exp(-1e-3), 2 * qseries._CHUNK + 1
        expected = [_pairwise_grid_reference(ts, q, d) for d in (depth // 2, depth)]
        real_exp, sizes = np.exp, []

        def spy(x, *args, **kwargs):
            sizes.append(np.size(x))
            return real_exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", spy)
        halves, values, skipped = qseries._cfrac_pairwise(ts, q, depth)
        monkeypatch.undo()
        assert _bits(halves) == _bits(expected[0]) and _bits(values) == _bits(expected[1])
        assert sorted(sizes) == [2] * 3 + [qseries._CHUNK] * full_chunks
        assert skipped > len(ts) * (depth - qseries._CHUNK)

    def test_chunk_edge_powers_match_the_chunk(self):
        # the two edge powers of a dead chunk have the bits np.exp gives them in the whole chunk
        rng = np.random.default_rng(7)
        for _ in range(40):
            logq = -math.exp(rng.uniform(math.log(1e-5), math.log(3.0)))
            start, count = int(rng.integers(0, 64)) * qseries._CHUNK, int(rng.integers(1, qseries._CHUNK + 1))
            chunk = np.exp(np.arange(start, start + count) * logq)
            edges = np.exp(np.array([start, start + count - 1]) * logq)
            assert _bits(edges) == _bits(chunk[[0, -1]])

    @hypothesis.settings(max_examples=200)
    @hypothesis.given(
        b=st.floats(-(2.0 ** -54), 2.0 ** -54, exclude_min=True, exclude_max=True),
        d=st.floats(-(2.0 ** -54), 2.0 ** -54, exclude_min=True, exclude_max=True),
    )
    def test_dead_products_are_exact(self, b, d):
        # D(b) D(d) = D(d), D(b) M(d) = D(d), M(d) I = M(d): the lemma behind the skipped levels
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
        halves, values, _ = qseries._cfrac_pairwise(ts, q, depth)
        assert _bits(halves) == _bits(_pairwise_grid_reference(ts, q, depth // 2))
        assert _bits(values) == _bits(_pairwise_grid_reference(ts, q, depth))

    # scalar at both depths, the mixed rung (scalar half, pairwise depth) and
    # pairwise at both depths
    @pytest.mark.parametrize("offset", [0, 1, qseries._SCALAR_DEPTH_LIMIT, qseries._SCALAR_DEPTH_LIMIT + 2])
    def test_rung_across_scalar_limit(self, offset):
        depth, q, ts = qseries._SCALAR_DEPTH_LIMIT + offset, math.exp(-1e-5), [0.263, -3.0]
        halves, values = qseries._cfrac_rung(ts, q, depth, qseries._SCALAR_DEPTH_LIMIT)
        for got, d in ((halves, depth // 2), (values, depth)):
            if d <= qseries._SCALAR_DEPTH_LIMIT:
                expected = [_untrimmed_scalar_reference(t, q, d) for t in ts]
            else:
                expected = _pairwise_grid_reference(ts, q, d)
            assert _bits(got) == _bits(expected), d

    @staticmethod
    def _assert_scalar_rung(t, q, depth):
        halves, values = qseries._cfrac_rung([t], q, depth, qseries._SCALAR_DEPTH_LIMIT)
        assert _bits(halves) == _bits([_untrimmed_scalar_reference(t, q, depth // 2)]), (t, q, depth)
        assert _bits(values) == _bits([_untrimmed_scalar_reference(t, q, depth)]), (t, q, depth)

    @pytest.mark.parametrize("t", [2.0 ** -54, 2.0 ** -54 * (1 - 2.0 ** -53), 2.0 ** -53, 1e-3, 0.263, 20.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_trimmed_loop_at_the_cut(self, t, sign):
        for q, depth in ((0.5, 200), (0.9, 5000), (math.exp(-1e-3), 200_000)):
            self._assert_scalar_rung(sign * t, q, depth)

    # t past the pole line too; below eps ~ 0.03 a chain of a few thousand
    # levels is live, so the sweeps run on both sides of their 1024-level stop
    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(
        t=st.floats(-20.0, 20.0),
        log_eps=st.floats(math.log(1e-5), math.log(3.0)),
        depth=st.integers(1, 6000),
    )
    def test_trimmed_loop_matches_untrimmed(self, t, log_eps, depth):
        self._assert_scalar_rung(t, math.exp(-math.exp(log_eps)), depth)

    def test_sweeps_settle_most_levels(self):
        # the sweeps do the work at a typical scalar depth, with the loop's bits
        q, depth = math.exp(-1e-3), 61_716
        value, swept, looped = qseries._cfrac_scalar(0.25, q, depth)
        assert swept > 4 * looped > 0
        assert _bits(value) == _bits(_untrimmed_scalar_reference(0.25, q, depth))

    def test_zero_denominator_under_the_sweeps(self):
        # level 1500 has w * g = 1.0 * 1.0 exactly, with 3000 live levels below
        # and 1500 above it: the sweeps leave it open and the loop raises there
        weights = np.array([0.3] * 1500 + [1.0] + [2.0 ** -60] * 3000)
        with pytest.raises(ZeroDivisionError) as expected:
            _untrimmed_row_loop(weights)
        with pytest.raises(ZeroDivisionError) as raised:
            qseries._cfrac_settled(weights)
        assert str(raised.value) == str(expected.value)


def _untrimmed_row_loop(weights):
    g = 1.0
    for w in reversed(weights.tolist()):
        g = 1.0 / (1.0 - w * g)
    return g
