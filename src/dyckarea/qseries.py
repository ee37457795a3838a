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
  1/(1 - t/(1 - tq/(1 - tq^2/...))) bottom-up with tail value 1, once,
  through its first dead level: from the first |t q^k| < 2^-54 on no level
  changes a bit, so the value is the whole chain's. All partial numerators
  are positive for real t, which makes this route unconditionally stable in
  double precision; it is the reference evaluator for small eps and
  continues G analytically beyond the pole line t_inf(q).
* ``contour_h`` validates the contour-integral representation of H by
  direct quadrature along two rays.

``euler_maclaurin_check`` certifies the Euler-Maclaurin approximation of
ln (z; q)_inf against a rigorous remainder bound.
"""

from __future__ import annotations

import cmath
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
from .special_functions import dilog

__all__ = [
    "EvalSettings",
    "ContourSpec",
    "RemainderCheck",
    "HSeriesResult",
    "q_pochhammer",
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

    ``epsilon`` is always recomputed from q, never stored. ``_sum_h`` picks
    the precision of every sum of H; the envelope of ``bits_for`` only caps it.
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


def _pochhammer_count(scale: float, q: float, tol: float) -> int:
    """Factors of (z; q)_inf with |z| <= scale to keep for tolerance tol.

    |log prod_{k>N}| <= |z| q^(N+1) / (1 - q) up to second order.
    """
    return max(8, math.ceil(math.log(max(scale, 1.0) / (tol * (1.0 - q))) / -math.log(q)) + 2)


def q_pochhammer(z: complex, q: float, n: int | None = None) -> complex | float:
    """q-Pochhammer symbol (z; q)_n = prod_{k<n} (1 - z q^k).

    ``n = None`` means the infinite product, truncated once the remaining
    factors differ from 1 by less than 1e-17; that requires 0 < q < 1.
    Real inputs give a float; an array z with a given n, an array.
    """
    if n is None:
        if not (0.0 < q < 1.0):
            raise DomainError("infinite q-Pochhammer products need q in (0, 1)")
        n = _pochhammer_count(abs(z), q, 1e-17)
    elif n < 0:
        raise DomainError("q_pochhammer order must be >= 0 or None")
    result = 1.0 + 0.0j if isinstance(z, complex) else 1.0
    qk = 1.0
    for _ in range(n):
        result *= 1.0 - z * qk
        qk *= q
    return result


def log_q_pochhammer_inf(z: complex, q: float) -> complex:
    """log (z; q)_inf as the sum of principal logarithms of the factors,
    truncated as ``q_pochhammer`` truncates the product.

    Safe for any z off the ray [1, inf) scaled by q^-k; factors never cross
    the negative real axis when Im z != 0.
    """
    if not (0.0 < q < 1.0):
        raise DomainError("log_q_pochhammer_inf needs q in (0, 1)")
    total = 0.0 + 0.0j
    qk = 1.0
    for _ in range(_pochhammer_count(abs(z), q, 1e-17)):
        total += cmath.log(1.0 - z * qk)
        qk *= q
    return total


def _log_euler_function(eps: float) -> float:
    """log (q; q)_inf at q = exp(-eps) by the Dedekind eta transformation
    (DLMF 23.15): eps/24 - pi^2/(6 eps) + log(2 pi/eps)/2 + log (p; p)_inf
    with p = exp(-4 pi^2/eps). The last term, about -p, is below 1e-85 for
    eps <= 0.2 and is dropped.
    """
    return eps / 24.0 - math.pi**2 / (6.0 * eps) + 0.5 * math.log(2.0 * math.pi / eps)


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
_SWEEP_MIN_OPEN = 1024  # fewer open levels than this go straight to the Python loop
_DEAD = 2.0 ** -54  # a level with |w| below this is dead: 1 - w rounds to 1


def _cfrac_depth(ts: list[float], eps: float) -> int:
    """Levels through the first dead one for every t in ts.

    |t q^k| < 2^-54 once k > ln(|t| 2^54) / eps; three levels more cover the
    rounding of both power rules, ``np.power`` and ``np.exp(k ln q)``.
    """
    for t in ts:
        if not math.isfinite(t):
            raise DomainError(f"the continued fraction needs a finite t, got {t!r}")
    top = max(abs(t) for t in ts)
    levels = math.log(top / _DEAD) / eps if top else 0.0
    if not math.isfinite(levels):
        raise DomainError(f"no finite continued-fraction depth for t up to {top!r}")
    return max(1, math.ceil(levels) + 3)


def _cfrac_settled(weights: np.ndarray) -> tuple[float, int]:
    """Bottom-up value of the levels ``weights`` with tail value 1, and the
    number of levels numpy sweeps settled before the Python loop ran.

    Sweeps g_k <- 1/(1 - w_k g_{k+1}) start from the guess 1/(1 - w_k). A
    level is settled once it and every level below it kept its value through a
    sweep and is finite: each was then computed from a settled level with the
    loop's IEEE operations, so it holds the loop's bits. Sweeps run while at
    least ``_SWEEP_MIN_OPEN`` levels are open and each settles at least 1/8 of
    them; the loop finishes from the lowest settled level, so a zero
    denominator still raises its ``ZeroDivisionError``.
    """
    n = open_ = weights.size
    g = np.ones(n + 1)
    if n >= _SWEEP_MIN_OPEN:
        # the sweeps write into buffers: with fresh arrays per sweep, t = 1/4
        # at eps = 2e-4 (154 258 live levels) took 968 page faults and 6.6 ms
        # a call against none and 3.5 ms (2-core x86-64 VM)
        new, moved = np.empty(n), np.empty(n, dtype=bool)
        with np.errstate(all="ignore"):
            np.divide(1.0, np.subtract(1.0, weights, out=g[:n]), out=g[:n])
            while open_ >= _SWEEP_MIN_OPEN:
                before, sweep, unsettled = open_, new[:open_], moved[:open_]
                np.multiply(weights[:open_], g[1 : open_ + 1], out=sweep)
                np.divide(1.0, np.subtract(1.0, sweep, out=sweep), out=sweep)
                np.not_equal(sweep, g[:open_], out=unsettled)  # NaN counts as moved
                unsettled |= np.isinf(sweep)
                g[:open_] = sweep
                top = int(np.argmax(unsettled[::-1]))  # levels above the last unsettled one
                open_ = before - top if unsettled[before - 1 - top] else 0
                if 8 * (before - open_) < before:
                    break
    value = float(g[open_])
    for w in reversed(weights[:open_].tolist()):
        value = 1.0 / (1.0 - w * value)
    return value, n - open_


def _cfrac_scalar(t: float, q: float, depth: int) -> tuple[float, int, int]:
    """Bottom-up value of every level to ``depth`` with tail value 1, the
    levels the sweeps settled and the levels left to the Python loop."""
    value, swept = _cfrac_settled(t * np.power(q, np.arange(depth)))
    return value, swept, depth - swept


def _lone_level(a: float, scaled: bool) -> list[list[float]]:
    """M(a) I = M(a) for an odd last level, divided by max(|a|, 1) unless it
    is the only level of its chunk."""
    scale = np.maximum(np.abs(a), 1.0) if scaled else 1.0
    return [[0.0, 1.0 / scale], [-a / scale, 1.0 / scale]]


def _cfrac_pairwise(ts: list[float], q: float, depth: int) -> list[float]:
    """Values of every t at ``depth`` from one pairwise product of level
    matrices.

    The level maps w -> 1/(1 - t q^k w) are Moebius transforms; composing
    them bottom-up is an ordered matrix product of M(a) = [[0, 1], [-a, 1]]
    blocks, a = t q^k. Per chunk of ``_CHUNK`` levels the product is
    reassociated pairwise (order preserved) so numpy can batch the 2x2
    multiplications, with each matrix divided by its max |entry| to keep the
    entries in range; an odd count is padded with the identity. Matches the
    scalar loop to roundoff. The chunks run in the outer loop, so the powers
    q^k of a chunk are computed once for every t.

    The first pairwise level is written in closed form,
    M(a) M(b) = [[-b, 1], [-b, 1 - a]], with max |entry| = max(|b|, 1, |1 - a|):
    every product in it is by 0 or 1, so only 1 - a rounds, once, as it does
    in the matrix product. Later levels take the max |entry| from elementwise
    maxima of the four entries. max is exact, so the scales, every division
    and the result are those of the plain pairwise product of the blocks (up
    to the sign of an exact zero entry).

    The tree is built inline, so its arrays stay bound until the next t or
    chunk replaces them. Freed at once, as on return from a helper, glibc's
    malloc gave their pages back and faulted them in again: for six t at
    depth 480 000, 81 216 page faults and 0.25 s of CPU against 2 880 and
    0.16 s (2-core x86-64 VM).

    ``np.matmul`` hands each 2x2 product to BLAS. numpy 2.4's OpenBLAS 0.3.31
    on an x86-64 Xeon computes c_ij = fma(a_i1, b_1j, a_i0 b_0j): it matched
    16 000 of 16 000 entries of random products, the plain sum of products
    12 003. So these bits, and the tests' golden digest, depend on the BLAS
    kernel.

    No level past the first dead one, 0 < |w| < 2^-54, moves the value, so
    the chain is evaluated once, through that level. A pair of dead levels
    is D(b) = [[-b, 1], [-b, 1]] in the closed form, with scale 1, and under
    any rounding order, fma or not, D(b) D(d) = D(d), as |b d| < ulp(d) / 2,
    and D(b) M(a) = D(a), as 1 - b rounds to 1. A product P D(w) holds P's
    row sums, rounded once, in its second column whatever w is, and about w
    times them in its first, below half an ulp of the second; so the tail
    value 1, which adds the columns, rounds w away. The tests check the
    value at the depth ``_cfrac_depth`` gives against one level and one or
    two chunks more.
    """
    totals = [np.eye(2) for _ in ts]
    logq = math.log(q)
    for start in range(0, depth, _CHUNK):
        count = min(_CHUNK, depth - start)
        half = count // 2
        powers = np.exp(np.arange(start, start + count) * logq)
        for i, t in enumerate(ts):
            b, one_minus_a = powers[1::2] * t, 1.0 - powers[0 : 2 * half : 2] * t
            scale = np.maximum(np.maximum(np.abs(b), 1.0), np.abs(one_minus_a))
            mats = np.empty((count - half, 2, 2))
            mats[:half, 0, 0] = mats[:half, 1, 0] = -b / scale
            mats[:half, 0, 1] = 1.0 / scale
            mats[:half, 1, 1] = one_minus_a / scale
            if count % 2:
                mats[half] = _lone_level(powers[-1] * t, count > 1)
            while len(mats) > 1:
                if len(mats) % 2:
                    mats = np.concatenate([mats, np.eye(2)[None]])
                mats = np.matmul(mats[0::2], mats[1::2])
                a = np.abs(mats)
                mats /= np.maximum(np.maximum(a[:, 0, 0], a[:, 0, 1]),
                                   np.maximum(a[:, 1, 0], a[:, 1, 1]))[:, None, None]
            total = np.matmul(totals[i], mats[0])
            total /= np.abs(total).max()
            totals[i] = total
    return [_at_tail_one(m) for m in totals]


def _at_tail_one(m: np.ndarray) -> float:
    """The Moebius map of the level product m at tail value 1."""
    return float((m[0, 0] + m[0, 1]) / (m[1, 0] + m[1, 1]))


def g_cfrac(t: float, settings: EvalSettings, full_output: bool = False):
    """G(t, q) from the continued fraction, the small-eps reference route.

    Evaluated once, bottom-up with tail value 1, through the first level with
    |t q^k| < 2^-54; no deeper level changes a bit (``_cfrac_pairwise``), so
    the value is the whole chain's. Both paths evaluate every level to that
    depth, and ``full_output`` adds it. The tolerance only picks the path, by
    the nominal depth 2 max(64, ceil(ln(max(|t|, tol) / (tol / 100)) / eps) + 8),
    infinite where tol / 100 underflows: the scalar loop up to
    ``_SCALAR_DEPTH_LIMIT``, the pairwise product past it, the paths the
    pinned values were made on. Valid (and stable) beyond the pole line,
    where the series representations fail; a vanishing denominator or a value
    that is not finite is a pole error.
    """
    t = float(t)
    if t == 0.0:
        return (1.0, 0) if full_output else 1.0
    q, tol, eps = settings.q, settings.tol, settings.epsilon
    depth = _cfrac_depth([t], eps)
    floor = tol * 1e-2
    levels = math.log(max(abs(t), tol) / floor) / eps if floor else math.inf
    if levels <= _SCALAR_DEPTH_LIMIT // 2 - 8:  # 2 max(64, ceil(levels) + 8) <= the limit
        try:
            value, swept, looped = _cfrac_scalar(t, q, depth)
        except ZeroDivisionError:
            raise PoleProximityError(f"a continued-fraction denominator vanishes at t = {t!r}") from None
        path = f"scalar, {swept} levels swept, {looped} left to the loop"
    else:
        [value] = _cfrac_pairwise([t], q, depth)
        path = "pairwise"
    _log.debug("cfrac: depth %d, path %s", depth, path)
    if not math.isfinite(value):
        raise PoleProximityError(f"the continued fraction at t = {t!r} is {value!r}")
    return (value, depth) if full_output else value


def g_cfrac_grid(ts: np.ndarray, settings: EvalSettings) -> np.ndarray:
    """Continued-fraction values on a grid of t, every level evaluated
    through the first dead level of the largest |t|, by the pairwise product
    at every depth, so they can differ from ``g_cfrac`` in the last bits."""
    ts = np.asarray(ts, dtype=float).tolist()
    if not ts:
        return np.array([], dtype=float)
    depth = _cfrac_depth(ts, settings.epsilon)
    values = _cfrac_pairwise(ts, settings.q, depth)
    _log.debug("cfrac grid of %d t: depth %d, path pairwise", len(ts), depth)
    return np.array(values)


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
    lhs = log_q_pochhammer_inf(z, q)
    remainder = (lhs - dilog(z) / lnq - 0.5 * cmath.log(1.0 - z)) / lnq
    x, y = z.real, z.imag
    ay = abs(y)
    az = abs(z)
    integral = az / ay * (math.atan((az * az - x) / ay) + math.atan(x / ay))
    bound = (abs(z / (1.0 - z)) + integral) / 12.0
    return RemainderCheck(z=z, remainder=remainder, bound=bound)


# --------------------------------------------------------------------------
# Contour-integral representation of H
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ContourSpec:
    """Two-ray contour through rho with upper angle phi and lower angle psi.

    ``lambda_max`` is the ray truncation length (None: chosen from the
    integrand decay).
    """

    rho: float = 0.5
    phi: float = math.pi / 3.0
    psi: float = math.pi / 3.0
    lambda_max: float | None = None

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise DomainError("rho must lie in (0, 1)")
        if not (0.0 < self.phi < math.pi and 0.0 < self.psi < math.pi):
            raise DomainError("ray angles must lie in (0, pi)")


_CONTOUR_NODES = 24  # starting Gauss-Legendre panel order, doubled until the quadrature settles


def _contour_integrand(zs: np.ndarray, t: float, q: float, tol: float) -> np.ndarray:
    """z^((1 + log_q z)/2 - log_q t) / (z; q)_inf on an array of points."""
    lnq = math.log(q)
    lnz = np.log(zs)  # principal branch
    exponent = (0.5 * (1.0 + lnz / lnq) - math.log(t) / lnq) * lnz
    numer = np.exp(exponent)
    return numer / q_pochhammer(zs, q, _pochhammer_count(float(np.max(np.abs(zs))), q, tol))


def _ray_quadrature(t: float, q: float, rho: float, angle: float, lam: float,
                    order: int, tol: float) -> complex:
    """Gauss-Legendre integral along rho + lambda e^{i angle}, lambda in (0, lam]."""
    direction = cmath.exp(1j * angle)
    edges = [0.0, 1.0]
    while edges[-1] < lam:
        edges.append(min(lam, edges[-1] * 2.0 if edges[-1] >= 1.0 else 1.0))
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = 0.0 + 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        lam_nodes = mid + half * nodes
        zs = rho + lam_nodes * complex(direction)
        vals = _contour_integrand(zs, t, q, tol)
        total += half * np.sum(weights * vals)
    return complex(total * direction)


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


def contour_h(t: float, q: float, contour: ContourSpec | None = None) -> complex:
    """H(t) by quadrature of its contour-integral representation.

    The contour runs in from infinity along the lower ray, through rho,
    and back out along the upper ray; the result is (q; q)_inf/(2 pi i)
    times the line integral. For real t the two rays are conjugate and the
    value is real up to the quadrature tolerance. This is a numerical
    validation of the representation, so it recomputes everything directly
    and shares no code with the series evaluator. Rays and panels are
    refined to the tolerance 1e-12.
    """
    if not (0.0 < q < 1.0):
        raise DomainError("contour_h needs q in (0, 1)")
    if not (0.0 < t < 1.0):
        raise DomainError("contour quadrature validated for real t in (0, 1) only")
    geometry = contour or ContourSpec()
    tol = 1e-12
    eps = -math.log(q)
    lam = geometry.lambda_max or max(2.0, math.exp(math.sqrt(eps * (-math.log(tol) + 12.0))))
    prefactor = q_pochhammer(q, q) / (2.0j * math.pi)

    def evaluate(order: int, lam_end: float) -> complex:
        upper = _ray_quadrature(t, q, geometry.rho, geometry.phi, lam_end, order, tol)
        lower = _ray_quadrature(t, q, geometry.rho, -geometry.psi, lam_end, order, tol)
        return complex(prefactor * (upper - lower))

    # ray-end magnitude must be negligible, else extend the truncation
    for _ in range(8):
        end_points = np.array([geometry.rho + lam * cmath.exp(1j * geometry.phi),
                               geometry.rho + lam * cmath.exp(-1j * geometry.psi)])
        end_mag = float(np.max(np.abs(_contour_integrand(end_points, t, q, tol))))
        if end_mag * lam < tol:
            break
        lam *= 2.0
    else:
        raise AccuracyError(
            f"integrand magnitude {end_mag:.2e} still not negligible at ray ends"
        )

    order = _CONTOUR_NODES
    value = evaluate(order, lam)
    for _ in range(6):
        order *= 2
        nxt = evaluate(order, lam)
        diff = abs(nxt - value)
        if diff <= tol * max(1.0, abs(nxt)):
            return nxt
        value = nxt
    raise AccuracyError(
        f"contour quadrature did not stabilise at {order} nodes per panel",
        last_term=diff,
    )
