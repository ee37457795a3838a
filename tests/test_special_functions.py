"""Airy pair, zeros, zeta sums, dilogarithm and the scaling function."""

import cmath
import hashlib
import math
import random

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dyckarea import special_functions
from dyckarea.datasets import _grid
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
import oracles

AI0 = 0.3550280538878172
AIP0 = -0.2588194037928068
S1 = -2.338107410459767
S2 = -4.087949444130971
# 3^(5/3) Gamma(2/3)^4 / (4 pi^2)
Z2_CLOSED = 0.5314572319609995
# sha256 of "x,ai,ai_prime,ai == 0.0" lines (repr of each float) over
# AIRY_GOLDEN_GRID, pinned before the Maclaurin and asymptotic evaluators
# were merged so that every tier stays bit-identical; re-pinned when the
# negative-axis phase came to be formed exactly: the 209 points of
# [-12, -7.8) moved, by 1.5e-14 of the envelope at most (x = -7.82); re-pinned
# when the fixed-point series took over [-4.5, 3.5] from the double-precision
# one: 379 points there moved, by 6.7e-13 relative at most (x = 3.48)
AIRY_GOLDEN_GRID = _grid(-12.0, 80.0, 4601) + [-7.8, -4.5, 3.5, 4.5, 7.8, 60.0, 9999.0]
AIRY_GOLDEN_DIGEST = "3d592bd7c93238399c777dc1cb9bb66322b3e0db6f0c4952ee15731632d6b224"


class TestAiry:
    def test_values_at_zero(self):
        pair = airy(0.0)
        assert pair.ai == pytest.approx(AI0, abs=1e-14)
        assert pair.ai_prime == pytest.approx(AIP0, abs=1e-14)
        assert AIRY_AT_ZERO == pytest.approx(AI0, abs=1e-15)
        assert AIRY_PRIME_AT_ZERO == pytest.approx(AIP0, abs=1e-15)

    # the test keeps its name, and with it its ids, from an earlier reference
    @pytest.mark.parametrize("x", _grid(-30.0, 8.0, 77) + [4.5, -4.5, 7.8, -7.8, 3.5])
    def test_against_scipy(self, x):
        mine = airy(x)
        ai, aip = map(float, oracles.airy(x))
        assert mine.ai == pytest.approx(ai, rel=1e-11, abs=1e-14)
        assert mine.ai_prime == pytest.approx(aip, rel=1e-11, abs=1e-14)

    def test_oscillatory_envelope_accuracy(self):
        # relative accuracy near zeros is meaningless; compare against the
        # oscillation envelope instead
        for x in _grid(-400.0, -8.0, 60):
            mine = airy(x)
            ai, aip = map(float, oracles.airy(x))
            assert abs(mine.ai - ai) <= 1e-11 * abs(x) ** -0.25
            assert abs(mine.ai_prime - aip) <= 1e-11 * abs(x) ** 0.25

    # the asymptotic tier on [-1e4, -7.8], within 1e-13 of the envelopes
    # 1/(sqrt(pi) y^(1/4)) of Ai and y^(1/4)/sqrt(pi) of Ai', y = -x: the
    # phase zeta + pi/4 formed in doubles was off by about ulp(zeta), 6.1e-11
    # of the envelope at x = -1e4
    def test_negative_asymptotic_against_mpmath(self):
        rng = random.Random(20141219)
        draw = [-math.exp(rng.uniform(math.log(7.8), math.log(1e4))) for _ in range(40)]
        for x in [-7.8, -10.0, -100.0, -1000.0, -1e4] + draw:
            pair, envelope = airy(x), 1.0 / (math.sqrt(math.pi) * (-x) ** 0.25)
            ai, aip = oracles.airy(x)
            assert abs(pair.ai - ai) <= 1e-13 * envelope, x
            assert abs(pair.ai_prime - aip) <= 1e-13 * envelope * math.sqrt(-x), x

    def test_differential_relation(self):
        # centered second difference of Ai equals x Ai(x)
        h = 1e-4
        for x in _grid(-5.0, 5.0, 41):
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
            lines.append(f"{x!r},{pair.ai!r},{pair.ai_prime!r},{pair.ai == 0.0}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == AIRY_GOLDEN_DIGEST

    def test_underflow_flag(self):
        assert airy(9999.0).ai == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            airy(2e4)

    def test_scaled_positive(self):
        for x in [9.0, 40.0, 61.0, 300.0]:
            pair, log_factor = airy_scaled(x)
            zeta = 2.0 * x**1.5 / 3.0
            assert log_factor == (-zeta if x > 60.0 else 0.0)
            # the pair times exp(zeta), formed in mpmath, stays in range
            with mpmath.workprec(oracles.AIRY_BITS):
                eai, eaip = (float(v * mpmath.exp(2 * mpmath.mpf(x) ** 1.5 / 3)) for v in oracles.airy(x))
            scale = math.exp(log_factor + zeta)
            assert pair.ai * scale == pytest.approx(eai, rel=1e-10)
            assert pair.ai_prime * scale == pytest.approx(eaip, rel=1e-10)
        assert airy_scaled(60.0) == (airy(60.0), 0.0)
        assert airy_scaled(-3.0) == (airy(-3.0), 0.0)
        with pytest.raises(DomainError):
            airy_scaled(2e4)


# the Maclaurin/asymptotic switches of airy at +-7.8 and the scaled switch of
# airy_scaled at 60, each probed within 1e-9 on both sides; +-3.5 and +-4.5,
# where a double-precision series once handed over, stay as ordinary points
_TIER_SWITCHES = [-7.8, -4.5, -3.5, 3.5, 4.5, 7.8, 60.0]
_NEAR = st.floats(min_value=-1e-9, max_value=1e-9)


class TestTierSwitches:
    @settings(max_examples=60)
    @given(st.sampled_from(_TIER_SWITCHES), _NEAR)
    def test_airy_against_mpmath(self, switch, offset):
        x = switch + offset
        pair = airy(x)
        ai, aip = map(float, oracles.airy(x))
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
            assert value == pytest.approx(float(oracles.airy(x)[0]), rel=1e-11)
            values.append(value)
        # Ai'/Ai is -7.8 at x = 60, so the true jump is below 8 (above - below)
        assert abs(values[1] / values[0] - 1.0) <= 8.0 * (above - below) + 1e-11


# the fixed-point Maclaurin tier over the whole of [-7.8, 7.8], with the
# origin approached from both sides and through subnormals, checked in two
# bands split by sign
_MACLAURIN_POINTS = _grid(-7.8, 7.8, 1961) + [0.0, -0.0, 5e-324, 1e-300, -1e-300]
_MACLAURIN_BANDS = {
    "negative": [x for x in _MACLAURIN_POINTS if math.copysign(1.0, x) < 0],
    "positive": [x for x in _MACLAURIN_POINTS if math.copysign(1.0, x) > 0],
}


def _worst_ulps(xs) -> tuple[float, str, float]:
    """Largest distance, in ulps of the reference, of Ai or Ai' from mpmath at 300 bits."""
    worst = []
    for x in xs:
        pair, (ai, aip) = airy(x), oracles.airy(x)
        for name, value, ref in (("Ai", pair.ai, ai), ("Ai'", pair.ai_prime, aip)):
            worst.append((abs(value - float(ref)) / math.ulp(float(ref)), name, x))
    return max(worst)


class TestAiryMiddleTier:
    """The fixed-point Maclaurin tier, which serves all of |x| <= 7.8."""

    @pytest.mark.parametrize("band", sorted(_MACLAURIN_BANDS))
    def test_within_one_ulp_of_mpmath(self, band):
        worst = _worst_ulps(_MACLAURIN_BANDS[band])
        assert worst[0] <= 1.0, worst

    def test_zeros_within_one_ulp_of_mpmath(self):
        # Ai cancels to about 1e-16 at the doubles next to its zeros, and Ai'
        # next to its own, so 1 ulp there needs sums accurate far below the
        # size of their terms
        worst = _worst_ulps(oracles.airy_zero_neighbours() + list(airy_zeros(4)))
        assert worst[0] <= 1.0, worst

    @pytest.mark.parametrize("frac", [72, 97, 110, 126, 143])  # the tier's lowest F, three between, its highest
    def test_origin_constants(self, frac):
        assert special_functions._airy_origin(frac) == oracles.airy_origin(frac)

    def test_origin_constants_every_reached_precision(self, monkeypatch):
        # every F the tier reaches: a first pass grows with |x| on each side,
        # from 72 at 0 to 113 at 7.8 (92 at -7.8), and a rerun with the loss
        # it measured, largest at the doubles next to the zeros
        fracs = []
        origin = special_functions._airy_origin
        monkeypatch.setattr(special_functions, "_airy_origin", lambda frac: fracs.append(frac) or origin(frac))
        for x in [0.0, 7.8, -7.8] + oracles.airy_zero_neighbours():
            airy(x)
        assert fracs[:3] == [72, 113, 92]
        assert max(fracs) == 143
        for frac in range(min(fracs), max(fracs) + 1):
            assert origin(frac) == oracles.airy_origin(frac), frac

    def test_no_mpmath_arithmetic_per_call(self, monkeypatch):
        # the tier reads only integer constants, nothing is cached per
        # precision, and mpmath's gamma, workprec and mpf are never touched
        xs = (5.0, -6.0, 0.5, -1.0, math.nextafter(3.5, math.inf), -7.8)
        expected = [airy(x) for x in xs]

        def forbidden(*args, **kwargs):
            raise AssertionError("mpmath used in the Maclaurin Airy tier")

        for name in ("gamma", "workprec", "mpf"):
            monkeypatch.setattr(mpmath, name, forbidden)
        assert [airy(x) for x in xs] == expected
        assert "mpmath" not in vars(special_functions)


class TestAiryZeros:
    def test_first_two(self):
        zeros = airy_zeros(2)
        assert zeros[0] == pytest.approx(S1, abs=1e-10)
        assert zeros[1] == pytest.approx(S2, abs=1e-10)

    # the test keeps its name, and with it its id, from an earlier reference
    def test_against_scipy(self):
        mine = airy_zeros(50)
        for k in range(1, 51):
            assert abs(mine[k - 1] - float(oracles.airy_zero(k))) <= 1e-9, k

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
        ref = float(oracles.airy_zero(k))
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

    def test_against_riccati_coefficients(self):
        # Z(j) = -c_(j-1) exactly, c_k the Riccati coefficients of F = Ai'/Ai:
        # an oracle for every Z(j) that sums no zero. The bounds are the
        # measured errors with a margin of 2 (1e-15 from j = 7).
        measured = {2: 1.20e-8, 3: 5.49e-10, 4: 1.36e-11, 5: 2.80e-13, 6: 5.56e-15}
        c = oracles.riccati_coefficients(42)
        for j in range(1, 42):
            err = abs(mpmath.fdiv(-airy_zeta(j), c[j - 1], prec=200) - 1)
            assert err <= (2.0 * measured[j] if j in measured else 1e-15), j


class TestRiccatiCoefficients:
    def test_correctly_rounded(self):
        # every c_j that phi can read (j <= 257) is the double nearest the
        # 700-bit recurrence, and c_1 = -c_0^2 rounds to -A0^2 exactly
        exact = oracles.riccati_coefficients(400)
        for j in range(258):
            assert special_functions._riccati_coefficient(j) == oracles.nearest_double(exact[j]), j
        assert -special_functions._riccati_coefficient(1) == A0**2


class TestDilog:
    def test_bernoulli_numbers(self):
        assert special_functions._BERNOULLI == [float(mpmath.bernoulli(n)) for n in range(64)]

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
        ref = complex(oracles.dilog(z))
        value = dilog(z)
        assert value.real == pytest.approx(ref.real, abs=5e-11)
        assert value.imag == pytest.approx(ref.imag, abs=5e-11)

    def test_inversion_identity_ring(self):
        # Li2(z) + Li2(1/z) = -pi^2/6 - log(-z)^2/2 on |z| = 3
        for theta in _grid(0.1, 2.0 * math.pi - 0.1, 24):
            z = 3.0 * cmath.exp(1j * theta)
            lhs = dilog(z) + dilog(1.0 / z)
            rhs = -math.pi**2 / 6.0 - 0.5 * cmath.log(-z) ** 2
            assert abs(lhs - rhs) < 1e-12

    @settings(max_examples=200)
    @given(st.floats(-3.0, 3.0), st.floats(-math.pi, math.pi))
    def test_inversion_identity_drawn(self, log_modulus, angle):
        # Li2(z) + Li2(1/z) = -pi^2/6 - ln(-z)^2/2 for z off [0, inf), with
        # 1e-3 <= |z| <= 1e3, to 1e-14 of max(1, |Li2(z)|, |Li2(1/z)|)
        z = cmath.rect(10.0**log_modulus, angle)
        assume(z.imag != 0.0 or z.real < 0.0)
        value, inverse = dilog(z), dilog(1.0 / z)
        rhs = -math.pi**2 / 6.0 - 0.5 * cmath.log(-z) ** 2
        assert abs(value + inverse - rhs) < 1e-14 * max(1.0, abs(value), abs(inverse))

    def test_branch_cut(self):
        with pytest.raises(BranchCutError):
            dilog(1.5)
        # just off the cut is fine
        assert dilog(1.5 + 1e-9j).imag != 0.0

    @settings(max_examples=60)
    @given(st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
    def test_identities_off_the_cut(self, z):
        # against mpmath, the reflection Li2(z) + Li2(1-z) = pi^2/6 - ln z ln(1-z)
        # and conjugation symmetry, each to 1e-14 of max(1, |Li2(z)|)
        if z.imag == 0.0 and z.real > 1.0:
            return  # on the branch cut, where dilog raises
        value = dilog(z)
        scale = max(1.0, abs(value))
        assert abs(value - complex(mpmath.polylog(2, z))) < 1e-14 * scale
        assert abs(dilog(z.conjugate()) - value.conjugate()) < 1e-14 * scale
        if z.imag != 0.0 or 0.0 < z.real < 1.0:  # 1 - z off the cut, both logs finite
            rhs = math.pi**2 / 6.0 - cmath.log(z) * cmath.log(1.0 - z)
            assert abs(value + dilog(1.0 - z) - rhs) < 1e-14 * scale


class TestScalingFunction:
    def test_amplitude_at_zero(self):
        assert scaling_F(0.0) == pytest.approx(A0, abs=1e-14)
        assert A0 == pytest.approx(-0.7290111329472270, abs=1e-12)

    def test_large_argument_square_root(self):
        assert 0.98 < scaling_F(25.0) / (-5.0) < 1.02

    @pytest.mark.parametrize("k", range(1, 13))
    def test_pole_detection(self, k):
        zero = float(oracles.airy_zero(k))  # S1 at k = 1
        with pytest.raises(PoleProximityError) as err:
            scaling_F(zero + 1e-10)
        assert err.value.nearest == pytest.approx(zero, abs=1e-8)

    @pytest.mark.parametrize("offset", [1e-7, -1e-7, 1e-6, -1e-6])
    @pytest.mark.parametrize("zero", [S1, S2])
    def test_near_the_first_poles(self, zero, offset):
        # Ai is ~1e-7 of its envelope here, so F keeps 14 digits only if Ai does
        s = zero + offset
        ai, aip = oracles.airy(s)
        ref = float(mpmath.fdiv(aip, ai, prec=300))
        assert scaling_F(s) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_series_matches_ratio(self, s):
        assert scaling_F_series(s, 40) == pytest.approx(scaling_F(s), abs=1e-8)

    def test_series_limit_at_zero(self):
        assert scaling_F_series(1e-12, 40) == pytest.approx(-airy_zeta(1), abs=1e-10)

    def test_series_divergence(self):
        with pytest.raises(DivergenceError):
            scaling_F_series(2.4, 40)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_series_needs_finite_s(self, s):
        with pytest.raises(DomainError, match="finite s"):
            scaling_F_series(s)

    def test_series_stops_at_the_last_nonzero_zeta(self):
        # Z(878) is the first Z that rounds to 0, and every later one does:
        # a deeper j_max adds only zero terms and forms no power of s. The
        # bound keeps the share of the tail that the rounding to 0 drops
        assert airy_zeta(877) != 0.0 == airy_zeta(878)
        assert scaling_F_series(1.5, 5000, full_output=True) == scaling_F_series(1.5, 877, full_output=True)
        assert 0.0 < scaling_F_series(1.5, 877, full_output=True)[1] < 1e-160

    def test_series_power_outside_double_range(self):
        # 2.3^853 overflows while Z(854) is still nonzero: the term, 3.5e-7,
        # is formed from frexp parts, and the sum runs to the last nonzero Z
        for s in (2.3, -2.3):
            value, bound = scaling_F_series(s, 900, full_output=True)
            assert (value, bound) == scaling_F_series(s, 877, full_output=True)
            assert bound <= scaling_F_series(s, 800, full_output=True)[1]
            with mpmath.workprec(200):
                exact = -mpmath.fsum(mpmath.mpf(airy_zeta(j)) * mpmath.mpf(s) ** (j - 1) for j in range(1, 878))
            assert abs(value - float(exact)) < 1e-13

    @pytest.mark.parametrize("s", [2.3, -2.3, 2.33, -2.33])
    def test_bound_past_the_last_nonzero_zeta_covers_the_error(self, s):
        # near the radius the terms that Z(j) >= 878 rounding to 0 drops are
        # not small (1.4e-5 at -2.3, 5.9 at -2.33): the bound must cover them
        value, bound = scaling_F_series(s, 900, full_output=True)
        assert abs(value - scaling_F(s)) <= bound

    def test_series_truncation_bound(self):
        value, bound = scaling_F_series(1.5, 30, full_output=True)
        assert abs(value - scaling_F(1.5)) < 10.0 * bound + 1e-12

    @pytest.mark.parametrize("j_max", [10, 40])
    @pytest.mark.parametrize("s", [1.0, -1.0, 2.0, -2.0, 2.3])
    def test_tail_bound_covers_the_tail(self, j_max, s):
        # the dropped tail of the program's own coefficients, summed in mpmath
        # until Z(j) underflows; for s < 0 its terms share one sign, and a
        # bound from the first zero's share alone falls short of it
        _, bound = scaling_F_series(s, j_max, full_output=True)
        with mpmath.workprec(200):
            tail = mpmath.fsum(mpmath.mpf(airy_zeta(j)) * mpmath.mpf(s) ** (j - 1)
                               for j in range(j_max + 1, 1200))
        assert abs(tail) <= bound

    def test_hadamard_product(self):
        # Hadamard factorization of Ai over 1e4 zeros. The bare product
        # prod (1 - s/s_k) diverges (sum 1/|s_k| does), so the convergent
        # genus-one form with e^{s/s_k} factors is tested,
        #   Ai(s) = Ai(0) e^{A0 s} prod_k (1 - s/s_k) e^{s/s_k},
        # with the quadratic zeta tail of the truncated product restored
        # from the integral estimate (the remaining error is the cubic
        # tail, ~1e-5 at |s| = 2 for K = 1e4).
        K = 10_000
        zeros = airy_zeros(K)
        tail2 = (1.5 * math.pi) ** (-4.0 / 3.0) * (K + 0.25) ** (-1.0 / 3.0) * 3.0
        for s in _grid(-2.0, 2.0, 9):
            log_product = math.fsum(math.log1p(-s / z) + s / z for z in zeros)
            model = AIRY_AT_ZERO * math.exp(A0 * s + log_product - 0.5 * s * s * tail2)
            assert model == pytest.approx(airy(s).ai, rel=1e-4)
