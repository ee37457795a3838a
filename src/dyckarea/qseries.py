"""Evaluation of the q-series machinery behind the generating function.

The bivariate generating function G(t, q) of area-weighted paths is handled
through three routes that must agree wherever they overlap:

* ``h_series`` sums the alternating q-Airy-type series
  H(t) = sum_n q^(n^2-n) (-t)^n / (q; q)_n, and ``g_ratio`` forms
  G = H(qt)/H(t). The series cancels catastrophically as q -> 1, so every
  sum of H (also in ``t_infinity``) runs in binary fixed point on Python
  integers, at the precision one rule, ``_sum_h``, picks; the sums come back
  as mpmath numbers. It is the preferred route for eps = -ln q >= ~1e-3.
* ``g_cfrac`` evaluates the classical continued fraction
  1/(1 - t/(1 - tq/(1 - tq^2/...))) bottom-up with tail value 1. All
  partial numerators are positive for real t, which makes this route
  unconditionally stable in double precision; it is the reference
  evaluator for small eps and continues G analytically beyond the pole
  line t_inf(q).
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

import mpmath
import numpy as np

from .errors import (
    AccuracyError,
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
    "contour_h",
]

_log = logging.getLogger(__name__)
_GUARD_BITS = 96  # bits a value of H keeps beyond double precision after cancellation
_MAX_TERMS = 200_000  # the alternating series gives up after this many terms


@dataclass(frozen=True)
class EvalSettings:
    """The nome q and the numerical policy shared by the q-series routines.

    ``epsilon`` is always recomputed from q, never stored. ``precision_bits``
    fixes the precision of every sum of H; unset, ``_sum_h`` sizes it from
    the saddle-point estimate of the cancellation and reruns at the measured
    loss, capped by the envelope exp((ln^2 t / 2 + pi^2/6) / eps) of ``bits_for``.
    """

    q: float
    tol: float = 1e-12
    precision_bits: int | None = None

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"q must lie in (0, 1), got {self.q!r}")
        if not (0.0 < self.tol < math.inf):
            raise DomainError(f"tol must be finite and positive, got {self.tol!r}")
        if self.precision_bits is not None and self.precision_bits < 53:
            raise DomainError("precision_bits must be >= 53")

    @property
    def epsilon(self) -> float:
        return -math.log(self.q)

    def bits_for(self, t: float | complex) -> int:
        """Working mantissa width for the alternating series at argument t."""
        if self.precision_bits is not None:
            return self.precision_bits
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


def q_pochhammer(z: complex, q: float, n: int | None = None,
                 settings: EvalSettings | None = None) -> complex | float:
    """q-Pochhammer symbol (z; q)_n = prod_{k<n} (1 - z q^k).

    ``n = None`` means the infinite product, truncated once the remaining
    factors differ from 1 by less than the tolerance; that requires
    0 < q < 1. Real inputs give a float.
    """
    if n is None:
        if not (0.0 < q < 1.0):
            raise DomainError("infinite q-Pochhammer products need q in (0, 1)")
        n = _pochhammer_count(abs(z), q, settings.tol if settings is not None else 1e-17)
    elif n < 0:
        raise DomainError("q_pochhammer order must be >= 0 or None")
    result = 1.0 + 0.0j if isinstance(z, complex) else 1.0
    qk = 1.0
    for _ in range(n):
        result *= 1.0 - z * qk
        qk *= q
    return result


def log_q_pochhammer_inf(z: complex, q: float, tol: float = 1e-17) -> complex:
    """log (z; q)_inf as the sum of principal logarithms of the factors.

    Safe for any z off the ray [1, inf) scaled by q^-k; factors never cross
    the negative real axis when Im z != 0.
    """
    if not (0.0 < q < 1.0):
        raise DomainError("log_q_pochhammer_inf needs q in (0, 1)")
    total = 0.0 + 0.0j
    qk = 1.0
    for _ in range(_pochhammer_count(abs(z), q, tol)):
        total += cmath.log(1.0 - z * qk)
        qk *= q
    return total


@dataclass(frozen=True)
class HSeriesResult:
    """Value of the alternating series, its diagnostics and the precision used."""

    value: float | complex
    terms_used: int
    bits_lost: float
    last_term: float
    precision_bits: int


def _h_series_mp(t, q: float, tol: float):
    """Sum of q^(n^2-n) (-t)^n / (q;q)_n in binary fixed point.

    Terms and sums are Python integers in units of 2^-F, F = the current
    mpmath precision + 8, with (re, im) pairs for complex t. Term n is term
    n-1 times -t q^(2n-2) / (1 - q^n), floored once. t and q enter exactly
    as num / 2^k, and q^n, q^(2n-2) as mantissas over powers of two cut to F
    bits, so short early terms cost linear time even at a large F. Stops
    after |term| stays below tol * max(|partial sum|, 2^-F) for three
    consecutive terms (compared exactly, on squares for complex t), and
    gives up after ``_MAX_TERMS`` terms. Returns (sum, terms_used,
    max_term_magnitude, last_term_magnitude) as mpmath numbers; a last term
    below the unit reports the unit.
    """
    frac = mpmath.mp.prec + 8

    def unit(k: int):  # k 2^-F rounded to the working precision (trailing zeros cut here in linear time)
        zeros = max((k & -k).bit_length() - 1, 0)
        return mpmath.mpf((k >> zeros, zeros - frac))

    def dyadic(x: float) -> tuple[int, int]:
        num, den = float(x).as_integer_ratio()
        return num, den.bit_length() - 1

    cplx = isinstance(t, complex)
    (a, a_shift), (b, b_shift) = dyadic(-t.real), dyadic(-t.imag)
    t_shift = max(a_shift, b_shift)  # -t = (a + ib) / 2^t_shift
    a, b = a << t_shift - a_shift, b << t_shift - b_shift
    q_num, q_shift = dyadic(q)
    q2_num = q_num * q_num
    tol_num, tol_shift = dyadic(tol)
    q_n, q_n_exp = 1, 0    # q^n = q_n / 2^q_n_exp, at most F bits
    q_2n, q_2n_exp = 1, 0  # q^(2n-2), likewise
    re, im = 1 << frac, 0  # the term
    sum_re, sum_im = re, im
    peak = re * re if cplx else re  # |term|, squared for complex t
    small_streak = 0
    for n in range(1, _MAX_TERMS + 1):
        q_n, q_n_exp = q_n * q_num, q_n_exp + q_shift
        if (cut := q_n.bit_length() - frac) > 0:
            q_n, q_n_exp = q_n >> cut, q_n_exp - cut
        # term -> term (a + ib) q^(2n-2) / (2^t_shift (1 - q^n)), floored
        shift = q_n_exp - t_shift - q_2n_exp
        num_shift, den = max(shift, 0), ((1 << q_n_exp) - q_n) << max(-shift, 0)
        if cplx:
            re, im = re * a - im * b, re * b + im * a
            re, im = (re * q_2n << num_shift) // den, (im * q_2n << num_shift) // den
            sum_re += re
            sum_im += im
            mag = re * re + im * im
            small = mag << 2 * tol_shift < tol_num * tol_num * max(sum_re * sum_re + sum_im * sum_im, 1)
        else:
            re = (re * a * q_2n << num_shift) // den
            sum_re += re
            mag = abs(re)
            small = mag << tol_shift < tol_num * max(abs(sum_re), 1)
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
            last_term=float(unit(max(math.isqrt(mag) if cplx else mag, 1))),
        )
    if cplx:
        peak, mag = math.isqrt(peak), math.isqrt(mag)
    total = mpmath.mpc(unit(sum_re), unit(sum_im)) if cplx else unit(sum_re)
    return total, n, unit(peak), unit(max(mag, 1))


def _bits_lost(max_mag, total) -> float:
    """log2(max term / |sum|), taken at 64 bits (a full-precision log costs seconds)."""
    with mpmath.workprec(64):
        ratio = max_mag / abs(total) if total else mpmath.inf
        return float(mpmath.log(ratio, 2)) if max_mag > abs(total) else 0.0


def _predicted_bits(xs, q: float) -> int:
    """Bits for H at every x in xs: log2(max term / |H|) + 8 slack + 53 + guard bits,
    with |H(x)| ~ (q; q)_inf exp(Re f(z1, x)/eps) at the dominant saddle
    z1 = (1 + sqrt(1 - 4x))/2 (real x in (0, 1/2), eps <= 0.2). ln|term_n|
    is concave in n, so the max-term scan stops at its first decrease.
    """
    from .asymptotics import _log_euler_function, phase_f

    eps, loss = -math.log(q), 0.0
    for x in xs:
        peak, n, qn = 0.0, 0, q
        while (step := math.log(x) - 2.0 * n * eps - math.log1p(-qn)) > 0.0:
            peak, n, qn = peak + step, n + 1, qn * q
        z1 = 0.5 + 0.5 * cmath.sqrt(1.0 - 4.0 * x)
        log_h = _log_euler_function(eps) + phase_f(z1, x).real / eps
        loss = max(loss, (peak - log_h) / math.log(2.0))
    return math.ceil(loss) + 8 + 53 + _GUARD_BITS


def _sum_h(xs, settings: EvalSettings, keep: int):
    """H at every x in xs at one shared precision: predict, check, rerun.

    Precision: ``precision_bits`` if set, else ``_predicted_bits`` capped at
    the envelope max ``bits_for(x)`` where the saddle estimate holds (real x
    in (0, 1/2), eps <= 0.2, envelope > 53 + 96), else the envelope. If a
    series keeps fewer than ``keep`` bits, all rerun at the measured loss +
    8 + keep bits (at most the envelope). Returns the ``_h_series_mp``
    tuples, the final precision and the largest loss.
    """
    if not all(cmath.isfinite(x) for x in xs):
        raise DomainError(f"the series needs a finite t, got {xs[0]!r}")
    bits = envelope = max(settings.bits_for(x) for x in xs)
    if (settings.precision_bits is None and envelope > 53 + _GUARD_BITS and settings.epsilon <= 0.2
            and all(not isinstance(x, complex) and 0.0 < x < 0.5 for x in xs)):
        bits = min(envelope, _predicted_bits(xs, settings.q))
    while True:
        with mpmath.workprec(bits):
            sums = [_h_series_mp(x, settings.q, settings.tol) for x in xs]
        lost = max(_bits_lost(peak, total) for total, _, peak, _ in sums)
        _log.debug("H at %r: %d of %d bits, lost %.1f", xs, bits, envelope, lost)
        if bits == envelope or bits - lost >= keep:
            return sums, bits, lost
        bits = min(envelope, math.ceil(min(lost, envelope)) + 8 + keep)
        _log.debug("H at %r: rerun at %d bits", xs, bits)


def h_series(t: float | complex, settings: EvalSettings, full_output: bool = False):
    """The q-deformed Airy-type series H(t) under scaled working precision.

    The terms grow far beyond the sum before they decay, so ``_sum_h`` keeps
    53 + 96 bits after cancellation; the result and the bits lost are
    reported. An exact zero at the working precision raises a pole error, and
    a sum outside the normal double range (|H| < 2.2e-308 once eps falls
    below about 5e-4 near t = 1/4) a domain error.
    """
    [(total, n, _, last)], bits, lost = _sum_h((t,), settings, 53 + _GUARD_BITS)
    if not total:
        raise PoleProximityError("series sum vanished at working precision; t is at a zero")
    if not sys.float_info.min <= abs(total) <= sys.float_info.max:
        raise DomainError(f"H({t!r}) = {mpmath.nstr(total, 5)} lies outside the double range")
    value = complex(total) if isinstance(t, complex) else float(total)
    if full_output:
        return HSeriesResult(value, n, lost, float(last), precision_bits=bits)
    return value


def g_ratio(t: float | complex, settings: EvalSettings, full_output: bool = False):
    """G(t, q) as the ratio H(qt)/H(t) of two alternating series.

    ``_sum_h`` keeps 53 + 96 bits in both at one shared precision. With
    ``full_output``, ``bits_lost`` and ``last_term`` are the larger of the
    two series. If H(t) has lost essentially all significant bits the point
    is next to a zero of H (at or beyond the pole line): a pole error.
    """
    sums, bits, lost = _sum_h((t, settings.q * t), settings, 53 + _GUARD_BITS)
    (denom, n_d, max_d, last_d), (numer, n_n, _, last_n) = sums
    if abs(denom) <= max_d * mpmath.mpf(2) ** (-(bits - 16)):
        raise PoleProximityError(
            f"H(t) at t = {t!r} is below the cancellation floor; "
            f"t lies at or beyond the pole boundary"
        )
    ratio = mpmath.fdiv(numer, denom, prec=bits)
    value = complex(ratio) if isinstance(t, complex) else float(ratio)
    if full_output:
        return HSeriesResult(value, n_d + n_n, lost, float(max(last_d, last_n)), precision_bits=bits)
    return value


# --------------------------------------------------------------------------
# Continued fraction
# --------------------------------------------------------------------------

_SCALAR_DEPTH_LIMIT = 200_000
_CHUNK = 1 << 16


def _cfrac_fixed_depth(t: float, q: float, depth: int) -> float:
    """Bottom-up evaluation at a fixed depth with tail value 1."""
    if depth <= _SCALAR_DEPTH_LIMIT:
        weights = t * np.power(q, np.arange(depth))
        # with g = 1.0 coming in, a level with |w| < 2^-54 gives 1/(1 - w) =
        # 1.0 exactly, so the levels below the last live one are skipped
        live = np.flatnonzero(np.abs(weights) >= 2.0 ** -54)
        g = 1.0
        for w in reversed(weights[: live[-1] + 1 if live.size else 0].tolist()):
            g = 1.0 / (1.0 - w * g)
        return float(g)
    return _cfrac_pairwise(t, q, depth)


def _cfrac_pairwise(t: float, q: float, depth: int) -> float:
    """Fixed-depth evaluation as a pairwise product of level matrices.

    The level maps w -> 1/(1 - t q^k w) are Moebius transforms; composing
    them bottom-up is an ordered matrix product of M(a) = [[0, 1], [-a, 1]]
    blocks, a = t q^k. Per chunk of ``_CHUNK`` levels the product is
    reassociated pairwise (order preserved) so numpy can batch the 2x2
    multiplications, with each matrix divided by its max |entry| to keep the
    entries in range; an odd count is padded with the identity. Matches the
    scalar loop to roundoff.

    The first pairwise level is written in closed form,
    M(a) M(b) = [[-b, 1], [-b, 1 - a]], with max |entry| = max(|b|, 1, |1 - a|):
    every product in it is by 0 or 1, so only 1 - a rounds, once, as it does
    in the matrix product. Later levels take the max |entry| from elementwise
    maxima of the four entries. max is exact, so the scales, every division
    and the result are those of the plain pairwise product of the blocks (up
    to the sign of an exact zero entry).
    """
    total = np.eye(2)
    logq = math.log(q)
    for start in range(0, depth, _CHUNK):
        count = min(_CHUNK, depth - start)
        w = np.exp(np.arange(start, start + count) * logq) * t
        half = count // 2
        b, one_minus_a = w[1::2], 1.0 - w[0 : 2 * half : 2]
        scale = np.maximum(np.maximum(np.abs(b), 1.0), np.abs(one_minus_a))
        mats = np.empty((count - half, 2, 2))
        mats[:half, 0, 0] = mats[:half, 1, 0] = -b / scale
        mats[:half, 0, 1] = 1.0 / scale
        mats[:half, 1, 1] = one_minus_a / scale
        if count % 2:  # M(a) I = M(a) for the odd last level; a one-level chunk is not scaled
            scale = np.maximum(np.abs(w[-1]), 1.0) if count > 1 else 1.0
            mats[half] = [[0.0, 1.0 / scale], [-w[-1] / scale, 1.0 / scale]]
        while len(mats) > 1:
            if len(mats) % 2:
                mats = np.concatenate([mats, np.eye(2)[None]])
            mats = np.matmul(mats[0::2], mats[1::2])
            a = np.abs(mats)
            mats /= np.maximum(np.maximum(a[:, 0, 0], a[:, 0, 1]),
                               np.maximum(a[:, 1, 0], a[:, 1, 1]))[:, None, None]
        total = np.matmul(total, mats[0])
        total /= np.abs(total).max()
    return float((total[0, 0] + total[0, 1]) / (total[1, 0] + total[1, 1]))


def _cfrac_doubling(ts: list[float], settings: EvalSettings, fixed_depth) -> tuple[list[float], int]:
    """Values of every t in ts at one shared depth, and that depth.

    The depth starts at ln(max(|t|, tol) / (tol / 100)) / eps + 8 levels (at
    least 64) for the largest |t| and doubles until no value moves by more
    than tol * max(1, |value|). ``fixed_depth(t, q, depth)`` evaluates one t.
    """
    for t in ts:
        if not math.isfinite(t):
            raise DomainError(f"the continued fraction needs a finite t, got {t!r}")
    q, tol = settings.q, settings.tol
    levels = math.log(max(max(abs(t) for t in ts), tol) / (tol * 1e-2)) / settings.epsilon
    if not math.isfinite(levels):
        raise DomainError(f"no finite continued-fraction depth for t up to {max(ts, key=abs)!r}")
    depth = max(64, math.ceil(levels) + 8)
    values = [fixed_depth(t, q, depth) for t in ts]
    for _ in range(24):
        depth *= 2
        nxt = [fixed_depth(t, q, depth) for t in ts]
        diffs = [abs(b - a) for a, b in zip(values, nxt)]
        if all(d <= tol * max(1.0, abs(b)) for d, b in zip(diffs, nxt)):
            return nxt, depth
        values = nxt
    raise NonConvergenceError(
        f"continued fraction failed to stabilise by depth {depth}",
        last_term=max(diffs),
    )


def g_cfrac(t: float, settings: EvalSettings, full_output: bool = False):
    """G(t, q) from the continued fraction, the small-eps reference route.

    Evaluated bottom-up from depth K with tail value 1, doubling K until two
    successive evaluations agree within the tolerance. Valid (and stable)
    beyond the pole line, where the series representations fail.
    """
    t = float(t)
    if t == 0.0:
        return (1.0, 0) if full_output else 1.0
    [value], depth = _cfrac_doubling([t], settings, _cfrac_fixed_depth)
    return (value, depth) if full_output else value


def g_cfrac_grid(ts: np.ndarray, settings: EvalSettings) -> np.ndarray:
    """Continued-fraction values on a grid of t at one shared depth.

    Every depth, shallow ones too, goes through the pairwise product, so the
    values can differ from ``g_cfrac`` in the last bits.
    """
    values, _ = _cfrac_doubling(np.asarray(ts, dtype=float).tolist(), settings, _cfrac_pairwise)
    return np.array(values)


# --------------------------------------------------------------------------
# Pole boundary
# --------------------------------------------------------------------------

def t_infinity(q: float, settings: EvalSettings | None = None) -> float:
    """Radius of convergence of the length series: first positive zero of H.

    Scans outward from t = 1/4 for a sign change of H(t), then bisects,
    reading each sign from the sum itself, which may lie far below the
    double range. The boundary decreases from 1 (q -> 0) towards 1/4 (q -> 1).
    """
    if settings is None:
        settings = EvalSettings(q=q)
    elif settings.q != q:
        raise DomainError(f"t_infinity got q = {q!r} but settings for q = {settings.q!r}")
    h = lambda t: _sum_h((t,), settings, 24)[0][0][0]  # the exact sign: ~2000 terms round by < 2^11 ulps
    lo = 0.25
    f_lo = h(lo)
    if f_lo <= 0.0:
        raise SearchFailureError("H(1/4) <= 0; no bracket below the boundary")
    eps = settings.epsilon
    # step smaller as q -> 1 since the root approaches 1/4
    step = min(0.02, max(1e-4, 0.05 * eps ** (2.0 / 3.0) * 2.4))
    hi = lo
    f_hi = f_lo
    while hi < 1.0:
        lo, f_lo = hi, f_hi
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
        f_mid = h(mid)
        if f_mid > 0.0:
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
    integrand decay), ``nodes`` the starting Gauss-Legendre panel order
    (doubled until the quadrature stabilises).
    """

    rho: float = 0.5
    phi: float = math.pi / 3.0
    psi: float = math.pi / 3.0
    lambda_max: float | None = None
    nodes: int = 24

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise DomainError("rho must lie in (0, 1)")
        if not (0.0 < self.phi < math.pi and 0.0 < self.psi < math.pi):
            raise DomainError("ray angles must lie in (0, pi)")


def _contour_integrand(zs: np.ndarray, t: float, q: float, tol: float) -> np.ndarray:
    """z^((1 + log_q z)/2 - log_q t) / (z; q)_inf on an array of points."""
    lnq = math.log(q)
    lnz = np.log(zs)  # principal branch
    exponent = (0.5 * (1.0 + lnz / lnq) - math.log(t) / lnq) * lnz
    numer = np.exp(exponent)
    poch = np.ones_like(zs)
    qk = 1.0
    for _ in range(_pochhammer_count(float(np.max(np.abs(zs))), q, tol)):
        poch *= 1.0 - zs * qk
        qk *= q
    return numer / poch


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


def contour_h(t: float, q: float, contour: ContourSpec | None = None,
              settings: EvalSettings | None = None) -> complex:
    """H(t) by quadrature of its contour-integral representation.

    The contour runs in from infinity along the lower ray, through rho,
    and back out along the upper ray; the result is (q; q)_inf/(2 pi i)
    times the line integral. For real t the two rays are conjugate and the
    value is real up to the quadrature tolerance. This is a numerical
    validation of the representation, so it recomputes everything directly
    and shares no code with the series evaluator.
    """
    if settings is None:
        settings = EvalSettings(q=q)
    if not (0.0 < q < 1.0):
        raise DomainError("contour_h needs q in (0, 1)")
    if not (0.0 < t < 1.0):
        raise DomainError("contour quadrature validated for real t in (0, 1) only")
    geometry = contour or ContourSpec()
    tol = settings.tol
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

    order = geometry.nodes
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
