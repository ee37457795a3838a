"""Evaluation of the q-series machinery behind the generating function.

The bivariate generating function G(t, q) of area-weighted paths is handled
through three routes that must agree wherever they overlap:

* ``h_series`` sums the alternating q-Airy-type series
  H(t) = sum_n T_n, T_n = q^(n^2-n) (-t)^n / (q; q)_n, and ``g_ratio`` forms
  G = H(qt)/H(t), with H(qt) = sum_n T_n q^n summed in the same pass at the
  exact qt. The series cancels catastrophically as q -> 1, so every sum of H
  (also in ``t_infinity``) runs in binary fixed point on Python integers, at
  the precision one rule, ``_sum_h``, picks, and each value is rounded to a
  double once. It is the preferred route for eps = -ln q >= ~1e-3.
* ``g_cfrac`` evaluates the classical continued fraction
  1/(1 - t/(1 - tq/(1 - tq^2/...))) bottom-up with tail value 1, once, cut
  at the depth where the true tail's enclosure, carried to level 0, is below
  2^-60 of |G|. All partial numerators are positive for real t, which makes
  this route unconditionally stable in double precision; it is the reference
  evaluator for small eps and continues G analytically beyond the pole line.
  Scans call it once per t; it reads no tolerance.
* ``contour_h`` validates the contour-integral representation of H by one
  trapezoid sum, in log space, along a ray through a saddle of its integrand.

``log_q_pochhammer`` sums the logs of the factors of (z; q)_n;
``euler_maclaurin_check`` bounds the remainder of the Euler-Maclaurin head
of ln (z; q)_inf, the head the contour integrand uses below eps = 0.1.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyError,
    BranchCutError,
    DomainError,
    NonConvergenceError,
    PoleProximityError,
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


@dataclass(frozen=True)
class EvalSettings:
    """The nome q and the numerical policy shared by the q-series routines.

    ``epsilon`` is always recomputed from q, never stored. ``tol`` stops every
    sum of H (``g_cfrac`` does not read it), and ``_sum_h`` picks its
    precision; the envelope of ``bits_for`` only caps it.
    """

    q: float
    tol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"q must lie in (0, 1), got {self.q!r}")
        if not (0.0 < self.tol < math.inf):
            raise DomainError(f"tol must be finite and positive, got {self.tol!r}")

    @property
    def epsilon(self) -> float:
        return -math.log(self.q)

    def bits_for(self, t: float | complex) -> int:
        """The cap on the working mantissa width of a sum of H at t: the
        envelope 3 (ln^2|t| / 2 + pi^2/6) / (eps ln 2) of its cancellation."""
        at = abs(t)
        if at < 1e-12:
            return 53
        envelope = 0.5 * math.log(at) ** 2 + math.pi**2 / 6.0
        return max(53, math.ceil(3.0 * envelope / (self.epsilon * math.log(2.0))))


def log_q_pochhammer(z: complex, q: float, n: int | None = None) -> complex:
    """log (z; q)_n, the sum of the principal logs of the factors 1 - z q^k,
    k < n. ``n = None`` is the infinite product, truncated where the rest
    differ from 1 by under 1e-17 (|log prod_{k>=N}| <= |z| q^N / (1 - q) to
    first order); it needs 0 < q < 1. For Im z != 0 no factor crosses the
    cut; a zero factor (z = q^-k) raises ValueError, as ``cmath.log(0)`` does.
    """
    if n is None:
        if not (0.0 < q < 1.0):
            raise DomainError("infinite q-Pochhammer products need q in (0, 1)")
        n = max(8, math.ceil(math.log(max(abs(z), 1.0) / (1e-17 * (1.0 - q)))
                             / -math.log(q)) + 2)
    elif n < 0:
        raise DomainError("the q-Pochhammer order must be >= 0 or None")
    # past |z q^k| <= min(1/2, 2 (1 - |q|)) the principal args sum below 2.1 < pi
    # (arcsin x <= 1.05 x for x <= 1/2): one log of the product sums their logs
    small = min(0.5, 2.0 * (1.0 - abs(q)))
    total, qk, k = 0j, 1.0, 0
    while k < n and abs(w := z * qk) > small:
        total += cmath.log(1.0 - w)
        qk *= q
        k += 1
    product = 1.0
    for _ in range(k, n):
        product *= 1.0 - z * qk
        qk *= q
    return total + cmath.log(product)


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
    """Value of the alternating series, its diagnostics and the precision used."""

    value: float | complex
    terms_used: int
    bits_lost: float
    last_term: float
    precision_bits: int


def _h_series_mp(t, q: float, tol: float, scaled: bool, bits: int):
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
    F. Stops after every |term| stays below tol * max(|its partial sum|, 2^-F)
    for three consecutive terms (compared exactly, on squares for complex t),
    and gives up after ``_MAX_TERMS`` terms. Returns F and, per series, the
    sum as (re, im), terms_used, max |term| and last |term| (at least 1).
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
    tol_num, tol_shift = dyadic(tol)
    if cplx:  # compare squares
        tol_num, tol_shift = tol_num * tol_num, 2 * tol_shift
    q_n, q_n_exp = 1, 0    # q^n = q_n / 2^q_n_exp, at most F bits
    q_2n, q_2n_exp = 1, 0  # q^(2n-2), likewise
    re, im = 1 << frac, 0  # T_n
    sum_re, sum_im = s_sum_re, s_sum_im = re, im  # sums of T_n and of T_n q^n
    peak = s_peak = s_mag = re * re if cplx else re  # |term|, squared for complex t
    small_streak = 0
    for n in range(1, _MAX_TERMS + 1):
        q_n, q_n_exp = q_n * q_num, q_n_exp + q_shift
        if (cut := q_n.bit_length() - frac) > 0:
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
        small = mag << tol_shift < tol_num * ((sum_re * sum_re + sum_im * sum_im if cplx else abs(sum_re)) or 1)
        if scaled:  # T_n q^n = T_n - T_(n-1) (-t) q^(2n-2), the numerator floored
            down = t_shift + q_2n_exp
            s_re, s_im = re - (p_re >> down), im - (p_im >> down) if cplx else 0
            s_sum_re, s_sum_im = s_sum_re + s_re, s_sum_im + s_im
            s_mag = s_re * s_re + s_im * s_im if cplx else abs(s_re)
            small = small and s_mag << tol_shift < tol_num * (
                (s_sum_re * s_sum_re + s_sum_im * s_sum_im if cplx else abs(s_sum_re)) or 1)
            if s_mag > s_peak:
                s_peak = s_mag
        if mag > peak:
            peak = mag
        if small:
            small_streak += 1
            if small_streak >= 3:
                break
        else:
            small_streak = 0
        q_2n, q_2n_exp = q_2n * q2_num, q_2n_exp + 2 * q_shift
        if (cut := q_2n.bit_length() - frac) > 0:
            q_2n, q_2n_exp = q_2n >> cut, q_2n_exp - cut
    else:
        raise NonConvergenceError(
            f"alternating series did not stabilise within {_MAX_TERMS} terms",
            last_term=((math.isqrt(mag) if cplx else mag) or 1) / (1 << frac),
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


def _predicted_bits(xs, q: float) -> int:
    """Bits for H at every x in xs: log2(max term / |H|) + 8 slack + 53 + guard bits,
    with |H(x)| ~ (q; q)_inf exp(Re f(z1, x)/eps) at the dominant saddle
    z1 = (1 + sqrt(1 - 4x))/2 (real x in (0, 1/2), eps <= 0.2). ln|term_n|
    is concave in n, so the max-term scan stops at its first decrease.
    """
    eps, loss = -math.log(q), 0.0
    for x in xs:
        peak, n, qn, log_x = 0.0, 0, q, math.log(x)
        while (step := log_x - 2.0 * n * eps - math.log1p(-qn)) > 0.0:
            peak, n, qn = peak + step, n + 1, qn * q
        z1 = 0.5 + 0.5 * cmath.sqrt(1.0 - 4.0 * x)
        log_h = _log_euler_function(eps) + phase_f(z1, x).real / eps
        loss = max(loss, (peak - log_h) / math.log(2.0))
    return math.ceil(loss) + 8 + 53 + _GUARD_BITS


def _sum_h(t, settings: EvalSettings, keep: int, scaled: bool = False):
    """H(t), and H(qt) from the same pass if ``scaled``: predict, check, rerun.

    The one precision rule for every sum of H. Start at ``_predicted_bits``
    where the saddle estimate holds (real t in (0, 1/2), eps <= 0.2), else at
    53 + 96 bits. If a series keeps fewer than ``keep`` bits, rerun at
    max(2 bits, measured loss + 8 + keep). The envelope, the larger
    ``bits_for`` of t and qt, caps every pass. Returns the ``_h_series_mp``
    tuples, their F, the final precision and the largest loss.
    """
    if not cmath.isfinite(t):
        raise DomainError(f"the series needs a finite t, got {t!r}")
    xs = (t, settings.q * t) if scaled else (t,)  # qt rounded to a double only sizes the precision
    envelope = max(settings.bits_for(x) for x in xs)
    bits = min(envelope, 53 + _GUARD_BITS)
    if bits < envelope and settings.epsilon <= 0.2 and not isinstance(t, complex) and 0.0 < t < 0.5:
        bits = min(envelope, _predicted_bits(xs, settings.q))
    while True:
        frac, sums = _h_series_mp(t, settings.q, settings.tol, scaled, bits)
        lost = max(_bits_lost(peak, total) for total, _, peak, _ in sums)
        _log.debug("H at %r: %d of %d bits, lost %.1f", t, bits, envelope, lost)
        if bits == envelope or bits - lost >= keep:
            return sums, frac, bits, lost
        bits = min(envelope, max(2 * bits, math.ceil(min(lost, envelope)) + 8 + keep))
        _log.debug("H at %r: rerun at %d bits", t, bits)


def h_series(t: float | complex, settings: EvalSettings, full_output: bool = False):
    """The q-deformed Airy-type series H(t) under scaled working precision.

    The terms grow far beyond the sum before they decay, so ``_sum_h`` keeps
    53 + 96 bits after cancellation; the result and the bits lost are
    reported, the sum rounded to a double once. An exact zero at the working
    precision raises a pole error, and a sum outside the normal double range
    (|H| < 2.2e-308 once eps falls below about 5e-4 near t = 1/4) a domain error.
    """
    [((re, im), n, _, last)], frac, bits, lost = _sum_h(t, settings, 53 + _GUARD_BITS)
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

    ``_sum_h`` keeps 53 + 96 bits in both series. With ``full_output``,
    ``terms_used`` counts the terms of both, and ``bits_lost`` and
    ``last_term`` are the larger of the two. If H(t) has lost essentially all
    significant bits the point is next to a zero of H (at or beyond the pole
    line): a pole error.
    """
    [((d_re, d_im), n, max_d, last_d), ((n_re, n_im), _, _, last_n)], frac, bits, lost = _sum_h(
        t, settings, 53 + _GUARD_BITS, scaled=True)
    if (norm2 := d_re * d_re + d_im * d_im) << 2 * (bits - 16) <= max_d * max_d:
        raise PoleProximityError(f"H(t) at t = {t!r} is below the cancellation floor; "
                                 "t lies at or beyond the pole boundary")
    value = (complex((n_re * d_re + n_im * d_im) / norm2, (n_im * d_re - n_re * d_im) / norm2)
             if isinstance(t, complex) else n_re / d_re)  # complex: numer conj(denom) / |denom|^2
    if full_output:
        return HSeriesResult(value, 2 * n, lost, max(last_d, last_n) / (1 << frac), precision_bits=bits)
    return value


# --------------------------------------------------------------------------
# Continued fraction
# --------------------------------------------------------------------------

_SCALAR_DEPTH_LIMIT = 200_000
_CHUNK = 1 << 16


def _cut(t: float, q: float, dead: int) -> tuple[int, float]:
    """The depth K to cut the chain of t at, and the bits by which the
    enclosure of the true tail, carried to level 0, lies below |G| there.

    The tail G(t q^K, q) lies in [1, C(x)] for 0 < x = t q^K <= 1/4, C the
    Catalan generating function, and in [0, 1] for x <= 0, where the level
    map g -> 1/(1 - x g) has slope at most C(x) - 1 = x C(x)^2, or |x|: from
    the first such level m the width shrinks by that closed form. The levels
    above amplify it by prod |w_k| g_k^2 = |det P| / (c g + d)^2, P = [[a, b],
    [c, d]] their composed map, measured at both ends of m's enclosure: a
    bound where P has no pole between them, and |G| at least the smaller
    |end| where no zero; else m goes to m_first + 1, 3, 7, ... The cut is the
    first K where width times gain is below 2^-60 |G|, never past ``dead``.
    """
    a, b, c, d = 1.0, 0.0, 0.0, 1.0  # P / 2^shift, P = M(x_0) ... M(x_{m-1}), M(x) = [[0, 1], [-x, 1]]
    x, shift, first = t, 0, None
    for m in range(dead + 1):
        if first is None and (x <= 0.25 if t > 0 else x >= -1.0):
            first = m
        if first is not None and (m - first) & (m - first + 1) == 0:
            ends = (1.0, 2.0 / (1.0 + math.sqrt(1.0 - 4.0 * x))) if t > 0 else (0.0, 1.0)
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
    log2_det = m * math.log2(abs(t)) + math.log2(q) * m * (m - 1) / 2 - 2 * shift
    log2_floor = math.log2(min(map(abs, values))) - log2_det + 2 * math.log2(min(map(abs, dens)))
    budget = 2.0 ** min(log2_floor - 60, 0.0)
    if not budget:
        return dead, -math.inf
    depth, width = m, 1.0  # the slopes' product over levels m .. depth - 1
    while width > budget and depth < dead:
        width *= 4.0 * x / (1.0 + math.sqrt(1.0 - 4.0 * x)) ** 2 if x > 0.0 else -x
        x, depth = x * q, depth + 1
    # for t > 0 the last slope, C(x_K) - 1, is the width of the tail's [1, C(x_K)]
    return max(m, depth - (t > 0)), log2_floor - math.log2(width) if width else math.inf


def _cfrac_depth(t: float, q: float, eps: float) -> tuple[int, float]:
    """The cut of t and the bits it certifies (``_cut``), at least one level
    and never past the first dead level, |t q^k| < 2^-54, plus three, where
    evaluations stopped before the cut."""
    if not math.isfinite(t):
        raise DomainError(f"the continued fraction needs a finite t, got {t!r}")
    levels = math.log(abs(t) / 2.0 ** -54) / eps if t else 0.0
    if not math.isfinite(levels):
        raise DomainError(f"no finite continued-fraction depth for t = {t!r}")
    depth, bits = _cut(t, q, max(1, math.ceil(levels) + 3)) if t else (1, math.inf)
    return max(1, depth), bits


def _cfrac_scalar(t: float, q: float, depth: int) -> float:
    """Bottom-up value of every level to ``depth`` with tail value 1, one
    level at a time; a vanishing denominator raises ``ZeroDivisionError``."""
    value = 1.0
    for w in reversed((t * np.power(q, np.arange(depth))).tolist()):
        value = 1.0 / (1.0 - w * value)
    return value


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
    kernel.

    The value is the chain's cut at ``depth``; ``_cut`` bounds the tail's share.
    """
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


def _at_tail_one(m: np.ndarray) -> float:
    """The Moebius map of the level product m at tail value 1."""
    return float((m[0, 0] + m[0, 1]) / (m[1, 0] + m[1, 1]))


def g_cfrac(t: float, settings: EvalSettings, full_output: bool = False):
    """G(t, q) from the continued fraction, the small-eps reference route.

    Evaluated once, bottom-up with tail value 1, cut where the true tail's
    enclosure, carried to level 0, is below 2^-60 of |G| (``_cut``): the cut
    moves the value by less than an ulp, and the roundoff of the levels kept
    is not in that bound. ``full_output`` adds the depth, the number of
    levels evaluated. ``settings.tol`` is not read: t and eps alone pick the
    kernel, the scalar loop or, for deep chains, the pairwise product. Valid
    (and stable) beyond the pole line, where the series representations
    fail; a vanishing denominator or a value that is not finite is a pole
    error.
    """
    t = float(t)
    if t == 0.0:
        return (1.0, 0) if full_output else 1.0
    q, eps = settings.q, settings.epsilon
    depth, bits = _cfrac_depth(t, q, eps)
    # the old depth-doubling path rule at tol = 1e-12 (nominal depth 2 max(64,
    # ceil(levels) + 8) against the scalar limit); it stays because the stored
    # benchmark references pin each kernel's bits until one kernel replaces both
    if math.log(max(abs(t), 1e-12) / 1e-14) / eps <= _SCALAR_DEPTH_LIMIT // 2 - 8:
        try:
            value = _cfrac_scalar(t, q, depth)
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

    Scans outward from t = 1/4 for a sign change of H(t), then halves the
    bracket to tol, reading each sign from the sum itself, which may lie far below the
    double range. The boundary decreases from 1 (q -> 0) towards 1/4 (q -> 1).
    """
    settings = EvalSettings(q=q, tol=tol)
    h = lambda t: _sum_h(t, settings, 24)[0][0][0][0]  # the exact sign: ~2000 terms round by < 2^11 ulps
    hi = 0.25
    if h(hi) <= 0.0:
        raise SearchFailureError("H(1/4) <= 0; no bracket below the boundary")
    # step smaller as q -> 1 since the root approaches 1/4
    step = min(0.02, max(1e-4, 0.05 * settings.epsilon ** (2.0 / 3.0) * 2.4))
    while hi < 1.0:
        lo = hi
        hi = min(1.0, hi + step)
        f_hi = h(hi)
        if f_hi < 0.0:
            break
        step *= 1.6
    else:
        raise SearchFailureError(f"no sign change of H(t) found in [1/4, 1] for q = {q!r}")
    if f_hi == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= settings.tol * mid:
            break
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
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
    if not (0.0 < q < 1.0):
        raise DomainError("q must lie in (0, 1)")
    lnq = math.log(q)
    remainder = (log_q_pochhammer(z, q) - _em_head(z, -lnq)) / lnq
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
    if not (0.0 < q < 1.0):
        raise DomainError("contour_h needs q in (0, 1)")
    if not (0.0 < t < 1.0):
        raise DomainError("contour quadrature validated for real t in (0, 1) only")
    eps, log_t, gap = -math.log(q), math.log(t), 1.0 - 4.0 * t
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
