"""Evaluation of the q-series machinery behind the generating function.

The bivariate generating function G(t, q) of area-weighted paths is handled
through three routes that must agree wherever they overlap:

* ``h_series`` sums the alternating q-Airy-type series
  H(t) = sum_n T_n, T_n = q^(n^2-n) (-t)^n / (q; q)_n, and ``g_ratio`` forms
  G = H(qt)/H(t), with H(qt) = sum_n T_n q^n summed in the same pass at the
  exact qt. The series cancels catastrophically as q -> 1, so every sum of H
  runs in binary fixed point on Python integers, keeping 53 + 96 bits by one
  rule, ``_sum_h``, and each value is rounded to a double once. Each sum
  stops at the first term where a geometric majorant certifies its dropped
  tail below 2^-54 of the sum; no tolerance is read. Past the peak of its
  terms a pass below the envelope drops the bits that budget no longer
  needs; a pass at the envelope, which is never rerun, keeps them. It is
  the preferred route for eps = -ln q >= ~1e-3.
* ``g_cfrac`` evaluates the classical continued fraction
  1/(1 - t/(1 - tq/(1 - tq^2/...))) bottom-up with tail value 1, once, cut
  at the depth where the true tail's enclosure, carried to level 0, is below
  2^-60 of |G|. All partial numerators are positive for real t, which makes
  this route unconditionally stable in double precision; it is the reference
  evaluator for small eps and continues G analytically beyond the pole line.
  Scans call it once per t; it reads no tolerance. ``t_infinity`` counts its
  negative denominators, H(t q^k)/H(t q^(k+1)), to locate the zeros of H.
* ``contour_h`` validates the contour-integral representation of H by one
  trapezoid sum, in log space, along a ray through a saddle of its integrand.

``log_q_pochhammer`` sums the logs of the large factors of (z; q)_n and
the rest as a geometric series with a stated bound;
``euler_maclaurin_check`` bounds the remainder of the Euler-Maclaurin head
of ln (z; q)_inf, the head the contour integrand uses below eps = 0.1.

Only the pairwise continued-fraction kernel, for chains too deep for the
scalar loop, uses numpy, imported when called: of the commands only ``eval
--method cfrac`` and ``scaling_fn`` scans at eps < 1.7e-4 (t = 1/4) load it.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import logging
import math
import sys
from dataclasses import dataclass

from .errors import (
    AccuracyError,
    BranchCutError,
    DomainError,
    NonConvergenceError,
    PoleProximityError,
    ResourceLimitError,
    SearchFailureError,
)
from .special_functions import _BERNOULLI, dilog

__all__ = [
    "EvalSettings",
    "RemainderCheck",
    "HSeriesResult",
    "log_q_pochhammer",
    "h_series",
    "g_ratio",
    "g_cfrac",
    "t_infinity",
    "euler_maclaurin_check",
    "phase_f",
    "contour_h",
]

_log = logging.getLogger(__name__)
_GUARD_BITS = 96  # bits a value of H keeps beyond double precision after cancellation
_MAX_TERMS = 200_000  # the alternating series gives up after this many terms


def _epsilon(q: float) -> float:
    """eps = -ln q, the one check that the nome q lies in (0, 1)."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q!r}")
    return -math.log(q)


@dataclass(frozen=True)
class EvalSettings:
    """The nome q of the ratio route (``h_series``, ``g_ratio``) and the cap
    ``bits_for`` on the width of its sums. Every sum of H stops on its
    certified tail bound (``_h_series_mp``), and ``_sum_h`` picks its
    precision; the envelope of ``bits_for`` only caps it.
    """

    q: float

    def __post_init__(self):
        _epsilon(self.q)

    def bits_for(self, t: float | complex) -> int:
        """The cap on the working mantissa width of a sum of H at t: the
        envelope 3 (ln^2|t| / 2 + pi^2/6) / (eps ln 2) of its cancellation.
        ``_sum_h`` caps a pass over H(t) and H(qt) at the larger of the two."""
        at = abs(t)
        if at < 1e-12:
            return 53
        envelope = 0.5 * math.log(at) ** 2 + math.pi**2 / 6.0
        return max(53, math.ceil(3.0 * envelope / (_epsilon(self.q) * math.log(2.0))))


def log_q_pochhammer(z: complex, q: float, n: int | None = None) -> complex:
    """log (z; q)_n, the sum of the principal logs of the factors 1 - z q^k,
    k < n; ``n = None`` is the infinite product and needs 0 < q < 1.

    For 0 < q < 1 the factors are logged one at a time while |w| = |z q^k|
    > r = min(1/2, q^4); the m factors left (m = inf for ``n = None``) are the
    geometric series -sum_j w^j S_j / j, S_j = sum_(k<m) q^(jk) = (1 - q^(jm))
    / (1 - q^j). S_j falls as j grows, so each term is at most |w| times the
    one before, and the terms past j sum below |term_j| |w| / (1 - |w|): the
    series stops once that bound is under 1e-17 of its sum, which is at
    least |w| S_1 / 2 for |w| <= 1/2. For other q (finite n only) every
    factor is logged. For Im z != 0 no factor crosses the cut; a zero factor
    (z = q^-k) raises ValueError, as ``cmath.log(0)`` does.
    """
    if not cmath.isfinite(z):
        raise DomainError(f"the q-Pochhammer symbol needs a finite z, got {z!r}")
    if n is None:
        lnq, n = -_epsilon(q), math.inf
    elif n < 0:
        raise DomainError("the q-Pochhammer order must be >= 0 or None")
    else:  # ln q >= 0 (or none, taken as 0): every factor is logged
        lnq = math.log(q) if q > 0.0 else 0.0
    r = min(0.5, q**4) if lnq < 0.0 else 0.0  # small q: a few more logs spare most series terms
    total, qk, k = 0j, 1.0, 0
    while k < n and abs(w := z * qk) > r:
        total += cmath.log(1.0 - w)
        qk *= q
        k += 1
    if k == n or not w:  # no factor left, or only factors equal to 1
        return total
    m, size = n - k, abs(w)
    tail, power, j = 0j, w, 1
    while True:  # S_j = expm1(j m ln q) / expm1(j ln q), accurate as q -> 1
        s_j = (-1.0 if m == math.inf else math.expm1(j * m * lnq)) / math.expm1(j * lnq)
        tail -= (term := power * s_j / j)
        if abs(term) * size < 1e-17 * (1.0 - size) * abs(tail):
            return total + tail
        power, j = power * w, j + 1


def _log_euler_function(eps: float) -> float:
    """log (q; q)_inf at q = exp(-eps) by the Dedekind eta transformation
    (DLMF 23.15): eps/24 - pi^2/(6 eps) + log(2 pi/eps)/2 + log (p; p)_inf
    with p = exp(-4 pi^2/eps). The last term, about -p, is added only where
    p >= 1e-17 (eps >~ 1); it is below 1e-85 for eps <= 0.2.
    """
    value = eps / 24.0 - math.pi**2 / (6.0 * eps) + 0.5 * math.log(2.0 * math.pi / eps)
    p = math.exp(-4.0 * math.pi**2 / eps)
    return value + log_q_pochhammer(p, p).real if p >= 1e-17 else value


@dataclass(frozen=True)
class HSeriesResult:
    """Value of the alternating series, its diagnostics and the precision used.

    ``last_term`` is the last |term| summed, which bounds the dropped tail
    (``_h_series_mp``): at most 2^-54 of the sum, or one fixed-point unit.
    It is ``inf`` where it lies past the double range, as it can in
    ``g_ratio``, whose sums of H need not lie in that range.
    """

    value: float | complex
    terms_used: int
    bits_lost: float
    last_term: float
    precision_bits: int


def _units(n: int, frac: int) -> float:
    """n / 2^frac as a double, ``inf`` past the double range."""
    try:
        return n / (1 << frac)
    except OverflowError:
        return math.inf


def _h_series_mp(t, q: float, scaled: bool, bits: int, narrow: bool = False):
    """H(t) = sum_n T_n, T_n = q^(n^2-n) (-t)^n / (q;q)_n, in binary fixed
    point; with ``scaled`` also H(qt) = sum_n T_n q^n, in the same pass.

    Terms and sums are Python integers in units of 2^-F, F = bits + 8, with
    (re, im) pairs for complex t. T_n is the numerator T_(n-1) (-t) q^(2n-2)
    over 1 - q^n, floored once, and T_n q^n = T_n - T_(n-1) (-t) q^(2n-2)
    subtracts that numerator, floored once, so H(qt) costs a shift and a
    subtraction a term; summed, this is the functional equation
    H(qt) = H(t) + t H(q^2 t) term by term. t and q enter exactly as
    num / 2^k, so qt is exact, and q^n, q^(2n-2) as mantissas over powers of
    two cut to F bits, so short early terms cost linear time even at a large
    F.

    The stop is a certified tail bound. |T_(k+1) / T_k| = r_k = |t| q^(2k) /
    (1 - q^(k+1)) strictly decreases in k, so once r_(n-1) <= 1/2 every
    later ratio is below 1/2 and the terms after T_n sum to less than |T_n|;
    the terms T_k q^k of H(qt) have the ratios r_k q, so the same holds for
    them. The pass stops at the first n where r_(n-1) <= 1/2 and, in each
    series summed, |T_n| <= 2^-54 |partial sum| or each part of T_n is
    within one unit of 0 (a sum at a zero of H is 0): the dropped tail of
    the exact terms is then below 2^-54 of the sum, or below one unit. The
    floor errors of the integers are not in that bound. r_(n-1) is compared
    in doubles, from running products of q^n and q^(2n-2); the bound needs
    only r_n and later, which lie below q^2 r_(n-1), so their rounding has
    a margin of 1 - q^2. ``_MAX_TERMS`` terms without a stop raise
    NonConvergenceError.

    With ``narrow``, once a term falls below half the largest |term| so far
    (past the peak, as ln|T_n| is concave in n), the term, both sums and
    both peaks are shifted right, once, by min(peak bits - F, F - 8), and
    from then on q^n and q^(2n-2) are cut to the term's bit length + 16. Past
    the peak the budget is relative to |H|, and the unit after the shift is
    still 2^-(bits - loss + 8) of |H| for the loss log2(max |term| / |H|),
    so the sums keep the bits ``_sum_h`` asks for and shorter integers.

    Returns the fraction bits (F less the shift) and, per series, the sum as
    (re, im), terms_used, max |term| and last |term| (at least 1), which
    bounds the dropped tail.
    """
    def dyadic(x: float) -> tuple[int, int]:
        num, den = float(x).as_integer_ratio()
        return num, den.bit_length() - 1

    frac, cplx = bits + 8, isinstance(t, complex)
    (a, a_shift), (b, b_shift) = dyadic(-t.real), dyadic(-t.imag)
    t_shift = max(a_shift, b_shift)  # -t = (a + ib) / 2^t_shift
    a, b = a << t_shift - a_shift, b << t_shift - b_shift
    q_num, q_shift = dyadic(q)
    q2_num = q_num * q_num
    stop_shift, unit = 54 << cplx, 1 << cplx  # |term| <= 2^-54 |sum|, or each part within one unit; squares for complex t
    abs_t, q2, qn_f, q2n_f, settled = abs(t), q * q, q, 1.0, False  # doubles q^n, q^(2n-2) until r_(n-1) <= 1/2
    keep, narrowed = frac, False  # bits q^n and q^(2n-2) are cut to; past the peak
    q_n, q_n_exp = 1, 0    # q^n = q_n / 2^q_n_exp, at most keep bits
    q_2n, q_2n_exp = 1, 0  # q^(2n-2), likewise
    re, im = 1 << frac, 0  # T_n
    sum_re, sum_im = s_sum_re, s_sum_im = re, im  # sums of T_n and of T_n q^n
    peak = s_peak = s_mag = re * re if cplx else re  # |term|, squared for complex t
    for n in range(1, _MAX_TERMS + 1):
        if not settled:
            settled = abs_t * q2n_f <= 0.5 * (1.0 - qn_f)
            qn_f, q2n_f = qn_f * q, q2n_f * q2
        q_n, q_n_exp = q_n * q_num, q_n_exp + q_shift
        if (cut := q_n.bit_length() - keep) > 0:
            q_n, q_n_exp = q_n >> cut, q_n_exp - cut
        # T_n = T_(n-1) (a + ib) q^(2n-2) / (2^t_shift (1 - q^n)), floored
        num_shift, den = q_n_exp - t_shift - q_2n_exp, (1 << q_n_exp) - q_n
        if num_shift < 0:
            num_shift, den = 0, den << -num_shift
        if cplx:
            re, im = re * a - im * b, re * b + im * a
            p_re, p_im = re * q_2n, im * q_2n
            re, im = (p_re << num_shift) // den, (p_im << num_shift) // den
        else:
            p_re = re * a * q_2n
            re = (p_re << num_shift) // den
        sum_re, sum_im = sum_re + re, sum_im + im
        mag = re * re + im * im if cplx else abs(re)
        if scaled:  # T_n q^n = T_n - T_(n-1) (-t) q^(2n-2), the numerator floored
            down = t_shift + q_2n_exp
            s_re, s_im = re - (p_re >> down), im - (p_im >> down) if cplx else 0
            s_sum_re, s_sum_im = s_sum_re + s_re, s_sum_im + s_im
            s_mag = s_re * s_re + s_im * s_im if cplx else abs(s_re)
            if s_mag > s_peak:
                s_peak = s_mag
        if settled and (mag <= unit or mag << stop_shift <= (
                sum_re * sum_re + sum_im * sum_im if cplx else abs(sum_re))) and (
                not scaled or s_mag <= unit or s_mag << stop_shift <= (
                    s_sum_re * s_sum_re + s_sum_im * s_sum_im if cplx else abs(s_sum_re))):
            break
        if mag > peak:
            peak = mag
        elif narrow and mag << 1 + cplx < peak:  # past the peak, once
            narrow, narrowed = False, True
            shift = min((math.isqrt(peak) if cplx else peak).bit_length() - frac, frac - 8)
            if shift > 0:
                re, im, sum_re, sum_im = re >> shift, im >> shift, sum_re >> shift, sum_im >> shift
                s_sum_re, s_sum_im, frac = s_sum_re >> shift, s_sum_im >> shift, frac - shift
                shift <<= cplx  # |term| is squared for complex t
                peak, s_peak, mag, s_mag = peak >> shift, s_peak >> shift, mag >> shift, s_mag >> shift
        if narrowed:
            keep = ((mag.bit_length() + cplx) >> cplx) + 16
        q_2n, q_2n_exp = q_2n * q2_num, q_2n_exp + 2 * q_shift
        if (cut := q_2n.bit_length() - keep) > 0:
            q_2n, q_2n_exp = q_2n >> cut, q_2n_exp - cut
    else:
        raise NonConvergenceError(
            f"alternating series did not stabilise within {_MAX_TERMS} terms",
            last_term=_units((math.isqrt(mag) if cplx else mag) or 1, frac),
        )
    if cplx:
        peak, mag, s_peak, s_mag = map(math.isqrt, (peak, mag, s_peak, s_mag))
    return frac, [((sum_re, sum_im), n, peak, mag or 1), ((s_sum_re, s_sum_im), n, s_peak, s_mag or 1)][: 1 + scaled]


def _bits_lost(peak: int, total: tuple[int, int]) -> float:
    """log2(max term / |sum|) of the loop's integers, the sum an (re, im)
    pair; 0.0 when no term exceeds the sum, inf for a zero sum."""
    if not (norm2 := total[0] ** 2 + total[1] ** 2):
        return math.inf
    return max(math.log2(peak) - 0.5 * math.log2(norm2), 0.0)


def _predicted_bits(t: float, q: float) -> int:
    """Bits for H at t: log2(max term / |H|) + 8 slack + 53 + guard bits,
    with |H(t)| ~ (q; q)_inf exp(Re f(z1, t)/eps) at the dominant saddle
    z1 = (1 + sqrt(1 - 4t))/2 (real t in (0, 1/2), eps <= 0.2). ln|term_n|
    is concave in n, so the max-term scan stops at its first decrease.

    The estimate at t also sizes H(qt): below the pole line G >= 1, so
    |H(qt)| >= |H(t)|, and its terms T_n q^n are no larger than T_n.
    """
    eps, peak, n, qn, log_t = -math.log(q), 0.0, 0, q, math.log(t)
    while (step := log_t - 2.0 * n * eps - math.log1p(-qn)) > 0.0:
        peak, n, qn = peak + step, n + 1, qn * q
    z1 = 0.5 + 0.5 * cmath.sqrt(1.0 - 4.0 * t)
    log_h = _log_euler_function(eps) + phase_f(z1, t).real / eps
    return math.ceil(max(peak - log_h, 0.0) / math.log(2.0)) + 8 + 53 + _GUARD_BITS


def _first_stop(t, q: float) -> float:
    """A lower bound on the first n at which ``_h_series_mp`` can stop, the
    first with r_(n-1) = |t| q^(2n-2) / (1 - q^n) <= 1/2 as its doubles
    compute it.

    With y = q^n and a = |t|/q^2 the test is 2a y^2 + y - 1 <= 0, so
    y <= y* = 2 / (1 + sqrt(1 + 8a)) and n >= -ln y*/eps, where -ln y* =
    log1p(4a / (1 + sqrt(1 + 8a))) cancels nothing. The loop forms q^n and
    q^(2n-2) as running products, at most 2 ``_MAX_TERMS`` + 2 roundings,
    below 2^-34 relative; raising a by 2^-30 and lowering -ln y* by 2^-30
    covers them. NaN (t or a at the top of the range) bounds nothing.
    """
    a = abs(t) / q / q * (1.0 + 2.0**-30)
    return (math.log1p(4.0 * a / (1.0 + math.sqrt(1.0 + 8.0 * a))) - 2.0**-30) / _epsilon(q)


def _sum_h(t, settings: EvalSettings, scaled: bool = False):
    """H(t), and H(qt) from the same pass if ``scaled``: predict, check, rerun.

    The one precision rule for every sum of H, with one target: 53 + 96 bits
    kept after cancellation. Start at ``_predicted_bits`` of t where the
    saddle estimate holds (real t in (0, 1/2), eps <= 0.2), else at 53 + 96
    bits; the estimate at t also covers H(qt) below the pole line. If a
    series keeps fewer (past the pole line H(qt) may), rerun at max(2 bits,
    measured loss + 8 + 53 + 96): the loss is measured on every series
    summed. The envelope, the larger ``bits_for`` of t and qt, caps every pass.
    A pass below the envelope is narrowed past the peak of its terms
    (``_h_series_mp``): a loss predicted too low shows in the measured loss
    and reruns the pass as before. A pass at the envelope is returned
    unchecked, so it keeps its full width. Where no pass can stop within
    ``_MAX_TERMS`` terms (``_first_stop``), NonConvergenceError comes before
    any sum. Returns the ``_h_series_mp`` tuples, their F, the final
    precision and the largest loss.
    """
    if not cmath.isfinite(t):
        raise DomainError(f"the series needs a finite t, got {t!r}")
    if (first := _first_stop(t, settings.q)) > _MAX_TERMS:
        raise NonConvergenceError(f"alternating series did not stabilise within {_MAX_TERMS} terms: "
                                  f"its term ratios fall to 1/2 no earlier than term {math.ceil(first)}")
    xs = (t, settings.q * t) if scaled else (t,)  # qt rounded to a double only sizes the envelope
    envelope = max(settings.bits_for(x) for x in xs)
    bits = min(envelope, 53 + _GUARD_BITS)
    if bits < envelope and _epsilon(settings.q) <= 0.2 and not isinstance(t, complex) and 0.0 < t < 0.5:
        bits = min(envelope, _predicted_bits(t, settings.q))
    while True:
        frac, sums = _h_series_mp(t, settings.q, scaled, bits, narrow=bits < envelope)
        lost = max(_bits_lost(peak, total) for total, _, peak, _ in sums)
        _log.debug("H at %r: %d of %d bits, lost %.1f", t, bits, envelope, lost)
        if bits == envelope or bits - lost >= 53 + _GUARD_BITS:
            return sums, frac, bits, lost
        bits = min(envelope, max(2 * bits, math.ceil(min(lost, envelope)) + 8 + 53 + _GUARD_BITS))
        _log.debug("H at %r: rerun at %d bits", t, bits)


def h_series(t: float | complex, settings: EvalSettings, full_output: bool = False):
    """The q-deformed Airy-type series H(t) under scaled working precision.

    The terms grow far beyond the sum before they decay, so ``_sum_h`` keeps
    53 + 96 bits after cancellation; the result and the bits lost are
    reported, the sum rounded to a double once. The sum stops where its
    dropped tail is certified below 2^-54 of it (``_h_series_mp``). An exact
    zero at the working precision raises a pole error, and a sum outside the
    normal double range (|H| < 2.2e-308 once eps falls below about 5e-4 near
    t = 1/4) a domain error.
    """
    [((re, im), n, _, last)], frac, bits, lost = _sum_h(t, settings)
    if not (norm2 := re * re + im * im):
        raise PoleProximityError("series sum vanished at working precision; t is at a zero")
    if not 1 << 2 * frac <= norm2 << 2044 or norm2 > int(sys.float_info.max) ** 2 << 2 * frac:
        log10 = (0.5 * math.log2(norm2) - frac) * math.log10(2.0)
        raise DomainError(f"|H({t!r})| = {10 ** (log10 % 1):.4f}e{math.floor(log10)} lies outside the double range")
    unit = 1 << frac
    value = complex(re / unit, im / unit) if isinstance(t, complex) else re / unit
    if full_output:
        return HSeriesResult(value, n, lost, last / unit, precision_bits=bits)
    return value


def g_ratio(t: float | complex, settings: EvalSettings, full_output: bool = False):
    """G(t, q) as the ratio H(qt)/H(t), summed in one pass at the exact qt.

    ``_sum_h`` keeps 53 + 96 bits in both series, and each stops where its
    dropped tail is certified below 2^-54 of it. With ``full_output``,
    ``terms_used`` counts the terms of both, and ``bits_lost`` and
    ``last_term`` are the larger of the two. If H(t) has lost essentially all
    significant bits the point is next to a zero of H (at or beyond the pole
    line): a pole error.
    """
    [((d_re, d_im), n, max_d, last_d), ((n_re, n_im), _, _, last_n)], frac, bits, lost = _sum_h(
        t, settings, scaled=True)
    if (norm2 := d_re * d_re + d_im * d_im) << 2 * (bits - 16) <= max_d * max_d:
        raise PoleProximityError(f"H(t) at t = {t!r} is below the cancellation floor; "
                                 "t lies at or beyond the pole boundary")
    value = (complex((n_re * d_re + n_im * d_im) / norm2, (n_im * d_re - n_re * d_im) / norm2)
             if isinstance(t, complex) else n_re / d_re)  # complex: numer conj(denom) / |denom|^2
    if full_output:
        return HSeriesResult(value, 2 * n, lost, _units(max(last_d, last_n), frac), precision_bits=bits)
    return value


# --------------------------------------------------------------------------
# Continued fraction
# --------------------------------------------------------------------------

_SCALAR_DEPTH_LIMIT = 200_000
_CHUNK = 1 << 16


def _cut(t: float, q: float, dead: int) -> tuple[int, float]:
    """The depth K to cut the chain of t at, and the bits by which the
    enclosure of the true tail, carried to level 0, lies below |G| there.

    The levels above K compose to P = [[a, b], [c, d]], a map of the tail g
    to (a g + b) / (c g + d) with |det P| = |t|^K q^(K(K-1)/2).

    For t < 0 the tail lies in [0, 1] at every level and P has no negative
    entry, so P takes [0, 1] to an interval of width |G(1) - G(0)| = |det P|
    / (d (c + d)) that holds G. A level multiplies that width by c / (c + d)
    of the new P, free of P's scale: the cut is the first K >= 1 where it is
    at most 2^-60 of the smaller end.

    For t > 0 the tail G(t q^K, q) lies in [1, C(x)] for 0 < x = t q^K <= 1/4,
    C the Catalan generating function, where the level map g -> 1/(1 - x g)
    has slope at most C(x) - 1 = x C(x)^2: from the first such level m the
    width shrinks by that closed form. The levels above amplify it by
    prod |w_k| g_k^2 = |det P| / (c g + d)^2, measured at both ends of m's
    enclosure: a bound where P has no pole between them, and |G| at least
    the smaller |end| where no zero; else m goes to m_first + 1, 3, 7, ...
    The cut is the first K where width times gain is below 2^-60 |G|.

    Neither walks past ``dead``.
    """
    a, b, c, d = 1.0, 0.0, 0.0, 1.0  # P / 2^shift, P = M(x_0) ... M(x_{m-1}), M(x) = [[0, 1], [-x, 1]]
    x, shift, first = t, 0, None
    if t < 0.0:
        width = 1.0  # |G(1) - G(0)| = |det P| / (d (c + d)), det M(x) = x, at every level
        for m in range(1, dead + 1):
            a, b, c, d = -b * x, a + b, -d * x, c + d
            top = c + d  # the largest sum: b <= d and a + b <= c + d
            width *= c / top
            x *= q
            if not top < 2.0 ** 100:  # rescale as below; no entry of P falls
                if not top < math.inf:
                    return dead, -math.inf
                e = math.frexp(top)[1]
                a, b, c, d, top = (math.ldexp(v, -e) for v in (a, b, c, d, top))
            if width <= 2.0 ** -60 and width <= 2.0 ** -60 * (low := min(b / d, (a + b) / top)):
                return m, math.log2(low / width) if width else math.inf
        return dead, -math.inf
    for m in range(dead + 1):
        if first is None and x <= 0.25:
            first = m
        if first is not None and (m - first) & (m - first + 1) == 0:
            ends = (1.0, 2.0 / (1.0 + math.sqrt(1.0 - 4.0 * x)))
            dens = [c * g + d for g in ends]
            values = [(a * g + b) / den if den else 0.0 for g, den in zip(ends, dens)]
            if dens[0] * dens[1] > 0.0 and values[0] * values[1] > 0.0:
                break
        a, b, c, d = -b * x, a + b, -d * x, c + d
        x *= q
        top = abs(b) + abs(d)
        if not 2.0 ** -100 < top < 2.0 ** 100:  # rescale by a power of 2, which rounds nothing
            if not 0.0 < top < math.inf:
                return dead, -math.inf
            e = math.frexp(top)[1]
            a, b, c, d = (math.ldexp(v, -e) for v in (a, b, c, d))
            shift += e
    else:
        return dead, -math.inf
    log2_det = m * math.log2(t) + math.log2(q) * m * (m - 1) / 2 - 2 * shift
    log2_floor = math.log2(min(map(abs, values))) - log2_det + 2 * math.log2(min(map(abs, dens)))
    budget = 2.0 ** min(log2_floor - 60, 0.0)
    if not budget:
        return dead, -math.inf
    depth, width = m, 1.0  # the slopes' product over levels m .. depth - 1
    while width > budget and depth < dead:
        width *= 4.0 * x / (1.0 + math.sqrt(1.0 - 4.0 * x)) ** 2
        x, depth = x * q, depth + 1
    # the last slope, C(x_K) - 1, is the width of the tail's [1, C(x_K)]
    return max(m, depth - 1), log2_floor - math.log2(width) if width else math.inf


def _cfrac_depth(t: float, q: float, eps: float) -> tuple[int, float]:
    """The cut of t and the bits it certifies (``_cut``), at least one level
    and never past the first dead level, |t q^k| < 2^-54, plus three, where
    evaluations stopped before the cut. A walk of ``_cut`` to the first
    |t q^m| <= 1/4 (t > 0) or 1 (t < 0) past ``_SCALAR_DEPTH_LIMIT`` levels
    is a resource error before it starts."""
    if not math.isfinite(t):
        raise DomainError(f"the continued fraction needs a finite t, got {t!r}")
    levels = math.log(abs(t) / 2.0 ** -54) / eps if t else 0.0
    if not math.isfinite(levels):
        raise DomainError(f"no finite continued-fraction depth for t = {t!r}")
    if t and (walk := math.log(4.0 * t if t > 0.0 else -t) / eps) > _SCALAR_DEPTH_LIMIT:
        raise ResourceLimitError(f"the cut's walk from t = {t!r} is {math.ceil(walk)} levels long, over {_SCALAR_DEPTH_LIMIT}")
    depth, bits = _cut(t, q, max(1, math.ceil(levels) + 3)) if t else (1, math.inf)
    return max(1, depth), bits


def _cfrac_scalar(t: float, q: float, depth: int) -> tuple[float, int]:
    """Bottom-up value of every level to ``depth`` with tail value 1 and
    weights t libm pow(q, k), one level at a time, and the number of negative
    denominators; a vanishing denominator raises ``ZeroDivisionError``."""
    value, negatives = 1.0, 0
    for k in range(depth - 1, -1, -1):
        if (den := 1.0 - t * math.pow(q, k) * value) < 0.0:
            negatives += 1
        value = 1.0 / den
    return value, negatives


def _cfrac_pairwise(t: float, q: float, depth: int) -> float:
    """The value at ``depth`` from one pairwise product of level matrices.

    The level maps w -> 1/(1 - t q^k w) are Moebius transforms; composing
    them bottom-up is an ordered matrix product of M(a) = [[0, 1], [-a, 1]]
    blocks, a = t q^k. Per chunk of ``_CHUNK`` levels the product is
    reassociated pairwise (order preserved) so numpy can batch the 2x2
    multiplications, with each matrix divided by its max |entry| to keep the
    entries in range; an odd count is padded with the identity. Matches the
    scalar loop to roundoff. ``g_cfrac`` takes this kernel for deep chains,
    by t and eps alone.

    The first pairwise level is written in closed form,
    M(a) M(b) = [[-b, 1], [-b, 1 - a]], with max |entry| = max(|b|, 1, |1 - a|):
    every product in it is by 0 or 1, so only 1 - a rounds, once, as it does
    in the matrix product. Later levels take the max |entry| from elementwise
    maxima of the four entries. max is exact, so the scales, every division
    and the result are those of the plain pairwise product of the blocks (up
    to the sign of an exact zero entry).

    The tree is built inline, so its arrays stay bound until the next chunk
    replaces them, and glibc's malloc does not fault their pages in anew.

    ``np.matmul`` hands each 2x2 product to BLAS. numpy 2.4's OpenBLAS 0.3.31
    on an x86-64 Xeon computes c_ij = fma(a_i1, b_1j, a_i0 b_0j): it matched
    16 000 of 16 000 entries of random products, the plain sum of products
    12 003. So these bits, and the tests' golden digest, depend on the BLAS
    kernel, and on numpy's SIMD ``exp``: 43 563 of 935 000 weights (eps 3e-5
    to 1e-3) differed from libm with x86-64-v4 dispatch on, none with it off,
    so its bits and the past-pole references hold on AVX-512 CPUs alone.

    The value is the chain's cut at ``depth``; ``_cut`` bounds the tail's share.
    """
    import numpy as np

    total = np.eye(2)
    logq = math.log(q)
    for start in range(0, depth, _CHUNK):
        count = min(_CHUNK, depth - start)
        half = count // 2
        powers = np.exp(np.arange(start, start + count) * logq)
        b, one_minus_a = powers[1::2] * t, 1.0 - powers[0 : 2 * half : 2] * t
        scale = np.maximum(np.maximum(np.abs(b), 1.0), np.abs(one_minus_a))
        mats = np.empty((count - half, 2, 2))
        mats[:half, 0, 0] = mats[:half, 1, 0] = -b / scale
        mats[:half, 0, 1] = 1.0 / scale
        mats[:half, 1, 1] = one_minus_a / scale
        if count % 2:  # M(x) I = M(x), divided by max(|x|, 1) unless alone in its chunk
            x = powers[-1] * t
            lone = max(abs(x), 1.0) if count > 1 else 1.0
            mats[half] = [[0.0, 1.0 / lone], [-x / lone, 1.0 / lone]]
        while len(mats) > 1:
            if len(mats) % 2:
                mats = np.concatenate([mats, np.eye(2)[None]])
            mats = np.matmul(mats[0::2], mats[1::2])
            a = np.abs(mats)
            mats /= np.maximum(np.maximum(a[:, 0, 0], a[:, 0, 1]),
                               np.maximum(a[:, 1, 0], a[:, 1, 1]))[:, None, None]
        total = np.matmul(total, mats[0])
        total /= np.abs(total).max()
    return _at_tail_one(total)


def _at_tail_one(m) -> float:
    """The Moebius map of the level product m at tail value 1."""
    return float((m[0, 0] + m[0, 1]) / (m[1, 0] + m[1, 1]))


def g_cfrac(t: float, q: float, full_output: bool = False):
    """G(t, q) from the continued fraction, the small-eps reference route.

    Evaluated once, bottom-up with tail value 1, cut where the true tail's
    enclosure, carried to level 0, is below 2^-60 of |G| (``_cut``): the cut
    moves the value by less than an ulp, and the roundoff of the levels kept
    is not in that bound. ``full_output`` adds the depth, the number of
    levels evaluated. t and eps alone pick the kernel, the scalar loop or,
    for deep chains, the pairwise product. Valid (and stable) beyond the
    pole line, where the series representations fail; a vanishing
    denominator or a value that is not finite is a pole error. t must be
    real; a complex t is a domain error, and a |t| so large that the cut's
    walk would pass ``_SCALAR_DEPTH_LIMIT`` levels a resource error.
    """
    eps = _epsilon(q)
    try:
        t = float(t)
    except TypeError:
        raise DomainError(f"the continued fraction takes real t, got {t!r}") from None
    if t == 0.0:
        return (1.0, 0) if full_output else 1.0
    depth, bits = _cfrac_depth(t, q, eps)
    # the old depth-doubling path rule at tol = 1e-12 (nominal depth 2 max(64,
    # ceil(levels) + 8) against the scalar limit), kept as stored benchmark
    # references pin each kernel's bits; only the pairwise kernel loads numpy
    if math.log(max(abs(t), 1e-12) / 1e-14) / eps <= _SCALAR_DEPTH_LIMIT // 2 - 8:
        try:
            value = _cfrac_scalar(t, q, depth)[0]
        except ZeroDivisionError:
            raise PoleProximityError(f"a continued-fraction denominator vanishes at t = {t!r}") from None
        path = "scalar"
    else:
        value = _cfrac_pairwise(t, q, depth)
        path = "pairwise"
    _log.debug("cfrac: depth %d, path %s, bound %.1f bits", depth, path, bits)
    if not math.isfinite(value):
        raise PoleProximityError(f"the continued fraction at t = {t!r} is {value!r}")
    return (value, depth) if full_output else value


# --------------------------------------------------------------------------
# Pole boundary
# --------------------------------------------------------------------------

def t_infinity(q: float, tol: float = 1e-12) -> float:
    """Radius of convergence of the length series: first positive zero of H.

    The chain's denominators are H(t q^k)/H(t q^(k+1)), so t lies past the
    zero when one of them, cut as ``g_cfrac`` cuts, is negative or vanishes.
    [1/4, 1] is halved to a relative width of tol, finite and positive. A
    chain at t = 1, about ln 4/eps levels, longer than ``_SCALAR_DEPTH_LIMIT``
    is a resource error.
    """
    eps = _epsilon(q)
    if not (0.0 < tol < math.inf):
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    if (levels := math.log(4.0) / eps) > _SCALAR_DEPTH_LIMIT:
        raise ResourceLimitError(f"the chain at t = 1 is {math.ceil(levels)} levels long, over {_SCALAR_DEPTH_LIMIT}")

    def past(t: float) -> bool:
        try:
            return _cfrac_scalar(t, q, _cfrac_depth(t, q, eps)[0])[1] > 0
        except ZeroDivisionError:
            return True

    lo, hi = 0.25, 1.0
    if not past(hi):
        raise SearchFailureError(f"no sign change of H(t) found in [1/4, 1] for q = {q!r}")
    while lo < (mid := 0.5 * (lo + hi)) < hi and hi - lo > tol * mid:
        lo, hi = (lo, mid) if past(mid) else (mid, hi)
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# Euler-Maclaurin remainder certification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RemainderCheck:
    """Remainder of the Euler-Maclaurin form of ln (z; q)_inf with its bound."""

    z: complex
    remainder: complex
    bound: float

    @property
    def within_bound(self) -> bool:
        return abs(self.remainder) <= self.bound


def _em_head(z: complex, eps: float) -> complex:
    """-Li2(z)/eps + ln(1-z)/2, the Euler-Maclaurin head of ln (z; e^-eps)_inf."""
    return -dilog(z) / eps + 0.5 * cmath.log(1.0 - z)


def euler_maclaurin_check(z: complex, q: float) -> RemainderCheck:
    """Certify ln (z; q)_inf = Li2(z)/ln q + ln(1-z)/2 + ln(q) R(z, q).

    R is the Euler-Maclaurin remainder of the sum of ln(1 - z q^k); it
    tends to z/(12 (1-z)) as q -> 1. The bound is derived from the
    second-order Euler-Maclaurin remainder term,

        |R| <= (|z/(1-z)| + int_0^1 |z| du / |1 - u z|^2) / 12,

    with the integral in closed arctangent form; it holds for every
    q in (0, 1) and every z off the real axis.
    """
    z = complex(z)
    if z.imag == 0.0:
        raise DomainError("the remainder bound needs Im z != 0")
    eps = _epsilon(q)
    remainder = (log_q_pochhammer(z, q) - _em_head(z, eps)) / -eps
    x, ay, az = z.real, abs(z.imag), abs(z)
    integral = az / ay * (math.atan((az * az - x) / ay) + math.atan(x / ay))
    return RemainderCheck(z=z, remainder=remainder, bound=(abs(z / (1.0 - z)) + integral) / 12.0)


# --------------------------------------------------------------------------
# Contour-integral representation of H
# --------------------------------------------------------------------------

@functools.cache
def _em_terms() -> tuple[tuple[float, tuple[float, ...]], ...]:
    """B_2j/(2j)! and the Eulerian numbers A(2j-2, k), j = 1 ... 30, so that
    Li_(2-2j)(z) = z A_(2j-2)(z) / (1-z)^(2j-1)."""
    return tuple((_BERNOULLI[n + 2] / math.factorial(n + 2),
                  tuple(float(sum((-1) ** i * math.comb(n + 1, i) * (k + 1 - i) ** n for i in range(k + 1)))
                        for k in range(max(n, 1)))) for n in range(0, 59, 2))


def _log_pochhammer(z: complex, q: float, eps: float) -> complex:
    """ln (z; q)_inf up to a multiple of 2 pi i: ``log_q_pochhammer`` from
    eps = 0.1 on; below, ``_em_head`` - sum_j B_2j/(2j)! eps^(2j-1) Li_(2-2j)(z)
    until a term falls below 1e-17, or where the terms grow first (z within
    about 6 eps of 1) ln (z; q)_k + ln (z q^k; q)_inf, |z q^k| < e^(-7 eps)."""
    if eps >= 0.1:
        return log_q_pochhammer(z, q)
    total, ratio, last = _em_head(z, eps), eps / (1.0 - z), math.inf
    scale, step = z * ratio, ratio * ratio  # z (eps/(1-z))^(2j-1)
    for b, poly in _em_terms():
        acc = 0j
        for c in poly:
            acc = acc * z + c
        if (size := abs(term := b * scale * acc)) > last:
            break
        total -= term
        if size < 1e-17:
            return total
        last, scale = size, scale * step
    k = max(1, math.ceil(math.log(abs(z)) / eps + 7.0))
    return log_q_pochhammer(z, q, k) + _log_pochhammer(z * q**k, q, eps)


def _ray_sum(log_f, rho: float, direction: complex, width: float, h: float, shift: float):
    """Sum of exp(log_f(z)) dz/du at u = shift + k h, k in Z, on the ray z = rho
    + lambda direction, lambda = width exp(u - e^(-u)), and its largest |term|:
    h times it converges exponentially as h shrinks. Each side of u = shift
    stops once two consecutive terms fall below 1e-17 of the largest."""
    total, peak = 0j, 0.0
    for ks in (itertools.count(0), itertools.count(-1, -1)):
        small = 0
        for k in ks:
            eu = math.exp(-(u := shift + k * h))
            lam = width * math.exp(u - eu)
            if not (w := log_f(rho + lam * direction)).real < 700.0:  # NaN too
                raise AccuracyError(f"the contour integrand leaves the double range at u = {u:g}")
            term = cmath.exp(w) * (lam * (1.0 + eu)) * direction
            total, peak = total + term, max(peak, size := abs(term))
            small = small + 1 if size <= 1e-17 * peak else 0
            if small == 2:
                break
    return total, peak


def phase_f(z: complex, t: float) -> complex:
    """Phase function ln(t) ln(z) + Li2(z) - ln(z)^2 / 2 of the contour integral.

    Analytic off the cuts (-inf, 0] and [1, inf); its z-derivative
    (ln t - ln z - ln(1-z))/z vanishes at the saddle points.
    """
    z = complex(z)
    if z.imag == 0.0 and (z.real <= 0.0 or z.real >= 1.0):
        raise BranchCutError(f"phase argument {z!r} touches a branch cut")
    if t <= 0.0:
        raise DomainError("t must be positive")
    lnz = cmath.log(z)
    return math.log(t) * lnz + dilog(z) - 0.5 * lnz * lnz


def contour_h(t: float, q: float) -> float:
    """H(t) = (q; q)_inf/(2 pi i) int exp(L(z)) dz by quadrature, on a contour in
    from infinity below (0, 1) and out above it; L(z) = ln z/2 - ln (z; q)_inf
    + (ln t ln z - ln^2 z/2)/eps. Summing exp(L - L(rho)) keeps it in range as
    q -> 1; for real t, H = (q; q)_inf exp(L(rho))/pi Im of the upper ray. The
    ray climbs vertically from the saddle rho = (1 + sqrt(1 - 4t))/2, width
    sqrt(eps), where eps < 0.1 and 1 - 4t > 3 eps^(2/3), else from rho = 1/2 at
    angle pi/3, width min(1, eps^(1/3)). Its step halves from 1 until two values
    agree to 1e-12. A result over 2^30 below the largest term (past t = 1/4) is
    an accuracy error, |H| outside the double range a domain error.
    """
    eps = _epsilon(q)
    if not (0.0 < t < 1.0):
        raise DomainError("contour quadrature validated for real t in (0, 1) only")
    log_t, gap = math.log(t), 1.0 - 4.0 * t
    if eps < 0.1 and gap > 3.0 * eps ** (2.0 / 3.0):
        rho, direction, width = 0.5 + 0.5 * math.sqrt(gap), 1j, math.sqrt(eps)
    else:
        rho, direction, width = 0.5, cmath.exp(1j * math.pi / 3.0), min(1.0, eps ** (1.0 / 3.0))

    def log_l(z):
        lnz = cmath.log(z)
        return 0.5 * lnz + (log_t - 0.5 * lnz) * lnz / eps - _log_pochhammer(z, q, eps)

    base, h = log_l(rho).real, 1.0
    log_f = lambda z: log_l(z) - base
    ray, peak = _ray_sum(log_f, rho, direction, width, h, 0.0)
    value = ray.imag
    for _ in range(8):  # the step halves from 1 to at most 2^-8
        half, half_peak = _ray_sum(log_f, rho, direction, width, h, 0.5 * h)
        ray, peak, h = 0.5 * (ray + h * half), max(peak, half_peak), 0.5 * h
        diff, value = abs(ray.imag - value), ray.imag
        if diff <= 1e-12 * abs(value):
            break
    else:
        raise AccuracyError(f"contour quadrature did not settle at step {h}", last_term=diff)
    if not 0.0 < peak <= 2.0**30 * abs(value):
        raise AccuracyError(f"the contour sum at t = {t!r} lies over 2^30 below its largest term")
    log_h = base + math.log(abs(value) / math.pi) + _log_euler_function(eps)
    if not math.log(sys.float_info.min) <= log_h < math.log(sys.float_info.max):
        raise DomainError(f"|H({t!r})| = exp({log_h:.1f}) lies outside the double range")
    return math.copysign(math.exp(log_h), value)
