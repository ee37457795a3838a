"""Evaluation of the q-series machinery behind the generating function.

The bivariate generating function G(t, q) of area-weighted paths is handled
through three routes that must agree wherever they overlap:

* ``h_series`` sums the alternating q-Airy-type series
  H(t) = sum_n T_n, T_n = q^(n^2-n) (-t)^n / (q; q)_n, and ``g_ratio`` forms
  G = H(qt)/H(t), with H(qt) = sum_n T_n q^n summed in the same pass at the
  exact qt. The series cancels catastrophically as q -> 1, so every sum of H
  (also in ``t_infinity``) runs in binary fixed point on Python integers, at
  the precision one rule, ``_sum_h``, picks; the sums come back as mpmath
  numbers. It is the preferred route for eps = -ln q >= ~1e-3.
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

import bisect
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
    0 < q < 1. Real inputs give a float; an array z with a given n, an array.
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


def _h_series_mp(t, q: float, tol: float, scaled: bool):
    """H(t) = sum_n T_n, T_n = q^(n^2-n) (-t)^n / (q;q)_n, in binary fixed
    point; with ``scaled`` also H(qt) = sum_n T_n q^n, in the same pass.

    Terms and sums are Python integers in units of 2^-F, F = the current
    mpmath precision + 8, with (re, im) pairs for complex t. T_n is T_(n-1)
    times -t q^(2n-2) / (1 - q^n), and T_n q^n is T_n times q^n, each floored
    once. t and q enter exactly as num / 2^k, so qt is exact, and q^n,
    q^(2n-2) as mantissas over powers of two cut to F bits, so short early
    terms cost linear time even at a large F. Stops after every |term| stays
    below tol * max(|its partial sum|, 2^-F) for three consecutive terms
    (compared exactly, on squares for complex t), and gives up after
    ``_MAX_TERMS`` terms. Per series, returns (sum, terms_used, max |term|,
    last |term|, at least the unit) as mpmath numbers.
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
            re, im = (re * q_2n << num_shift) // den, (im * q_2n << num_shift) // den
        else:
            re = (re * a * q_2n << num_shift) // den
        sum_re, sum_im = sum_re + re, sum_im + im
        mag = re * re + im * im if cplx else abs(re)
        small = mag << tol_shift < tol_num * ((sum_re * sum_re + sum_im * sum_im if cplx else abs(sum_re)) or 1)
        if scaled:  # T_n q^n, floored
            s_re, s_im = re * q_n >> q_n_exp, im * q_n >> q_n_exp
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
            last_term=float(unit((math.isqrt(mag) if cplx else mag) or 1)),
        )
    if cplx:
        peak, mag, s_peak, s_mag = map(math.isqrt, (peak, mag, s_peak, s_mag))
    series = [(sum_re, sum_im, peak, mag), (s_sum_re, s_sum_im, s_peak, s_mag)][: 1 + scaled]
    return [(mpmath.mpc(unit(x), unit(y)) if cplx else unit(x), n, unit(top), unit(last or 1))
            for x, y, top, last in series]


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


def _sum_h(t, settings: EvalSettings, keep: int, scaled: bool = False):
    """H(t), and H(qt) from the same pass if ``scaled``: predict, check, rerun.

    Precision: ``precision_bits`` if set, else ``_predicted_bits`` capped at
    the envelope, the larger ``bits_for`` of t and qt, where the saddle
    estimate holds (real t in (0, 1/2), eps <= 0.2, envelope > 53 + 96), else
    the envelope. If a series keeps fewer than ``keep`` bits, the pass reruns
    at the measured loss + 8 + keep bits (at most the envelope). Returns the
    ``_h_series_mp`` tuples, the final precision and the largest loss.
    """
    if not cmath.isfinite(t):
        raise DomainError(f"the series needs a finite t, got {t!r}")
    xs = (t, settings.q * t) if scaled else (t,)  # qt rounded to a double only sizes the precision
    bits = envelope = max(settings.bits_for(x) for x in xs)
    if (settings.precision_bits is None and envelope > 53 + _GUARD_BITS and settings.epsilon <= 0.2
            and not isinstance(t, complex) and 0.0 < t < 0.5):
        bits = min(envelope, _predicted_bits(xs, settings.q))
    while True:
        with mpmath.workprec(bits):
            sums = _h_series_mp(t, settings.q, settings.tol, scaled)
        lost = max(_bits_lost(peak, total) for total, _, peak, _ in sums)
        _log.debug("H at %r: %d of %d bits, lost %.1f", t, bits, envelope, lost)
        if bits == envelope or bits - lost >= keep:
            return sums, bits, lost
        bits = min(envelope, math.ceil(min(lost, envelope)) + 8 + keep)
        _log.debug("H at %r: rerun at %d bits", t, bits)


def h_series(t: float | complex, settings: EvalSettings, full_output: bool = False):
    """The q-deformed Airy-type series H(t) under scaled working precision.

    The terms grow far beyond the sum before they decay, so ``_sum_h`` keeps
    53 + 96 bits after cancellation; the result and the bits lost are
    reported. An exact zero at the working precision raises a pole error, and
    a sum outside the normal double range (|H| < 2.2e-308 once eps falls
    below about 5e-4 near t = 1/4) a domain error.
    """
    [(total, n, _, last)], bits, lost = _sum_h(t, settings, 53 + _GUARD_BITS)
    if not total:
        raise PoleProximityError("series sum vanished at working precision; t is at a zero")
    if not sys.float_info.min <= abs(total) <= sys.float_info.max:
        raise DomainError(f"H({t!r}) = {mpmath.nstr(total, 5)} lies outside the double range")
    value = complex(total) if isinstance(t, complex) else float(total)
    if full_output:
        return HSeriesResult(value, n, lost, float(last), precision_bits=bits)
    return value


def g_ratio(t: float | complex, settings: EvalSettings, full_output: bool = False):
    """G(t, q) as the ratio H(qt)/H(t), summed in one pass at the exact qt.

    ``_sum_h`` keeps 53 + 96 bits in both series. With ``full_output``,
    ``terms_used`` counts the terms of both, and ``bits_lost`` and
    ``last_term`` are the larger of the two. If H(t) has lost essentially all
    significant bits the point is next to a zero of H (at or beyond the pole
    line): a pole error.
    """
    [(denom, n, max_d, last_d), (numer, _, _, last_n)], bits, lost = _sum_h(
        t, settings, 53 + _GUARD_BITS, scaled=True)
    if abs(denom) <= max_d * mpmath.mpf(2) ** (-(bits - 16)):
        raise PoleProximityError(f"H(t) at t = {t!r} is below the cancellation floor; "
                                 "t lies at or beyond the pole boundary")
    ratio = mpmath.fdiv(numer, denom, prec=bits)
    value = complex(ratio) if isinstance(t, complex) else float(ratio)
    if full_output:
        return HSeriesResult(value, 2 * n, lost, float(max(last_d, last_n)), precision_bits=bits)
    return value


# --------------------------------------------------------------------------
# Continued fraction
# --------------------------------------------------------------------------

_SCALAR_DEPTH_LIMIT = 200_000
_CHUNK = 1 << 16
_SWEEP_MIN_OPEN = 1024  # fewer open levels than this go straight to the Python loop
_DEAD = 2.0 ** -54  # a level with |w| below this is dead: 1 - w rounds to 1


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
    """Bottom-up value at a fixed depth with tail value 1, the levels the
    sweeps settled and the levels left to the Python loop."""
    # with g = 1.0 coming in, a level with |w| < 2^-54 gives 1/(1 - w) =
    # 1.0 exactly, so the levels from the first dead one on are skipped
    # (|w_k| falls with k); the weights are built to just past the estimated
    # first dead level, or to the full depth if that one is still live
    reach = (math.log(abs(t)) + 54.0 * math.log(2.0)) / -math.log(q) if t else 0.0
    built = min(depth, max(math.ceil(reach), 0) + 2)
    weights = t * np.power(q, np.arange(built))
    if built < depth and abs(weights[-1]) >= _DEAD:
        weights = t * np.power(q, np.arange(depth))
    weights = weights[: _live_levels(weights, 1.0)]
    value, swept = _cfrac_settled(weights)
    return value, swept, weights.size - swept


def _live_levels(powers: np.ndarray, t: float) -> int:
    """Levels before the first dead one, 0 < |t q^k| < 2^-54, in a run of
    powers q^k; all of them if the last weight is 0, whose exact zero entries
    the matmul may give either sign. It bisects on Python floats, 3-8 us a
    call where numpy scalars took 12-24 us (2-core x86-64 VM)."""
    if powers.size and powers[-1] * t == 0.0:
        return powers.size
    return bisect.bisect_left(range(len(powers)), True, key=lambda k: abs(powers.item(k) * t) < _DEAD)


def _dead_node(w: float, lone: bool) -> list[list[float]]:
    """The product of a run of dead levels that ends in weight w: D(w) =
    [[-w, 1], [-w, 1]], or M(w) when the run is a chunk's odd last level."""
    return _lone_level(w, False) if lone else [[-w, 1.0], [-w, 1.0]]


def _lone_level(a: float, scaled: bool) -> list[list[float]]:
    """M(a) I = M(a) for an odd last level, divided by max(|a|, 1) unless it
    is the only level of its chunk."""
    scale = np.maximum(np.abs(a), 1.0) if scaled else 1.0
    return [[0.0, 1.0 / scale], [-a / scale, 1.0 / scale]]


def _cfrac_pairwise(ts: list[float], q: float, depth: int) -> tuple[list[float], list[float], int]:
    """Values of every t at ``depth // 2`` and at ``depth`` from one pairwise
    product of level matrices, and the number of levels skipped as dead.

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

    The running product is kept at the cut ``depth // 2`` too. The chunk
    that holds the cut gets its part from the tree its first n levels alone
    would build: that tree shares the complete aligned subtrees of the
    chunk's own, and only its right spine, one node per level, is multiplied
    anew with the same identity pad, ``np.matmul`` and max-norm steps. So
    both values are those of separate evaluations at the two depths, bit for
    bit.

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

    Dead levels are not multiplied. A level is dead if 0 < |w| < 2^-54, and
    |w| = |t| q^k falls with k (consecutive powers differ by far more than
    the error of ``np.exp``), so the dead levels of a chunk are a suffix. A
    pair of dead levels is exactly D(b) = [[-b, 1], [-b, 1]] in the closed
    form: 1 - a rounds to 1 and the scale is 1. Then, under any rounding
    order, fma or not, D(b) D(d) = D(d), because |b d| < ulp(d) / 2, and
    D(b) M(a) = D(a), because 1 - b rounds to 1; M I = M, and each max-norm
    is 1. So on every tree level the dead nodes are a suffix, and a dead
    node is D(w), with w the weight of its last level, or M(w) for a chunk's
    odd last level alone. Each tree level is built from its live nodes and
    its first dead one, the only dead node a live one meets. A chunk that
    holds no cut and is dead from its first level is one product with its
    root, D(w_last); where that holds for every t, only its two edge powers
    are computed (``np.exp`` gives them the bits of the full array). A chunk
    whose last weight is 0 is built whole, as products of zeros give exact
    zeros of either sign.
    """
    cut = depth // 2
    totals = [np.eye(2) for _ in ts]
    at_cut = list(totals)
    logq = math.log(q)
    skipped = 0
    for start in range(0, depth, _CHUNK):
        count = min(_CHUNK, depth - start)
        half, n = count // 2, cut - start  # the chunk's first n levels lie above the cut
        holds_cut = 0 < n < count
        edges = np.exp(np.array([start, start + count - 1]) * logq)
        dead = [not holds_cut and _live_levels(edges, t) == 0 for t in ts]
        powers = None if all(dead) else np.exp(np.arange(start, start + count) * logq)
        for i, t in enumerate(ts):
            # the levels built: the live ones and those above the cut
            live = 0 if dead[i] else max(_live_levels(powers, t), n if holds_cut else 0)
            skipped += count - live
            if live == 0:
                root = _dead_node(edges[1] * t, count == 1)
            else:
                # every tree level holds its live nodes and its first dead one
                width, built = count - half, (live + 1) // 2
                pairs = min(built + 1, width, half)
                b, one_minus_a = powers[1 : 2 * pairs : 2] * t, 1.0 - powers[0 : 2 * pairs : 2] * t
                scale = np.maximum(np.maximum(np.abs(b), 1.0), np.abs(one_minus_a))
                mats = np.empty((min(built + 1, width), 2, 2))
                mats[:pairs, 0, 0] = mats[:pairs, 1, 0] = -b / scale
                mats[:pairs, 0, 1] = 1.0 / scale
                mats[:pairs, 1, 1] = one_minus_a / scale
                if len(mats) > half:
                    mats[half] = _lone_level(powers[-1] * t, count > 1)
                # nodes of the tree of the first n levels at this level, and
                # its last node while that is not one of the chunk tree's
                nodes = (n + 1) // 2 if holds_cut else 0
                spine = np.array([_lone_level(powers[n - 1] * t, n > 1)]) if nodes and n % 2 else None
                span = 2  # levels per node
                while True:
                    if nodes == 1:
                        at_cut[i] = np.matmul(totals[i], mats[0] if spine is None else spine[0])
                        at_cut[i] /= np.abs(at_cut[i]).max()
                    elif nodes % 2:
                        spine = np.matmul(mats[nodes - 1 : nodes] if spine is None else spine, np.eye(2)[None])
                        spine /= np.abs(spine).max()
                    elif nodes and spine is not None:
                        spine = np.matmul(mats[nodes - 2 : nodes - 1], spine)
                        spine /= np.abs(spine).max()
                    nodes = (nodes + 1) // 2 if nodes > 1 else 0
                    if width == 1:
                        break
                    width, built, span = (width + 1) // 2, (built + 1) // 2, 2 * span
                    if len(mats) < 2 * built:
                        mats = np.concatenate([mats, np.eye(2)[None]])
                    mats = np.matmul(mats[0 : 2 * built : 2], mats[1 : 2 * built : 2])
                    if built < width:
                        first, last = built * span, min(built * span + span, count) - 1
                        mats = np.concatenate([mats, [_dead_node(powers[last] * t, first == last)]])
                    a = np.abs(mats)
                    mats /= np.maximum(np.maximum(a[:, 0, 0], a[:, 0, 1]),
                                       np.maximum(a[:, 1, 0], a[:, 1, 1]))[:, None, None]
                root = mats[0]
            if n == 0:
                at_cut[i] = totals[i]
            total = np.matmul(totals[i], root)
            total /= np.abs(total).max()
            totals[i] = total
    return [_at_tail_one(m) for m in at_cut], [_at_tail_one(m) for m in totals], skipped


def _at_tail_one(m: np.ndarray) -> float:
    """The Moebius map of the level product m at tail value 1."""
    return float((m[0, 0] + m[0, 1]) / (m[1, 0] + m[1, 1]))


def _cfrac_rung(ts: list[float], q: float, depth: int, scalar_limit: int,
                halves: list[float] | None = None) -> tuple[list[float], list[float]]:
    """Values of every t at ``depth // 2`` and at ``depth``: a depth up to
    ``scalar_limit`` runs ``_cfrac_scalar``, a deeper one the pairwise
    product, which yields both depths in one pass. ``halves``, the values at
    ``depth // 2`` when the caller already has them, are not evaluated again."""
    cut = depth // 2
    scalar_depths = [d for d in (cut, depth) if d <= scalar_limit]
    known, skipped, swept, looped = halves is not None, 0, 0, 0
    if len(scalar_depths) < 2:
        pairwise_halves, values, skipped = _cfrac_pairwise(ts, q, depth)
        halves = halves if known else pairwise_halves
    for d in scalar_depths:
        if d == cut and known:
            continue
        runs = [_cfrac_scalar(t, q, d) for t in ts]
        swept += sum(r[1] for r in runs)
        looped += sum(r[2] for r in runs)
        if d == cut:
            halves = [r[0] for r in runs]
        else:
            values = [r[0] for r in runs]
    _log.debug("cfrac rung: depth %d, path %s, %d levels swept, %d left to the loop, "
               "%d pairwise levels skipped as dead",
               depth, ("pairwise", "mixed", "scalar")[len(scalar_depths)], swept, looped, skipped)
    return halves, values


def _cfrac_doubling(ts: list[float], settings: EvalSettings, scalar_limit: int) -> tuple[list[float], int]:
    """Values of every t in ts at one shared depth, and that depth.

    The depth starts at ln(max(|t|, tol) / (tol / 100)) / eps + 8 levels (at
    least 64) for the largest |t| and doubles until no value moves by more
    than tol * max(1, |value|). Each rung evaluates the depth and its half in
    one pass of ``_cfrac_rung``, scalar up to ``scalar_limit`` levels, and
    logs its depth, path, sweep counts and dead levels skipped at debug level.
    A later rung takes its half from the rung before: depth D runs the same
    path (scalar iff D <= ``scalar_limit``) as the half of 2D and as a depth.
    """
    for t in ts:
        if not math.isfinite(t):
            raise DomainError(f"the continued fraction needs a finite t, got {t!r}")
    q, tol = settings.q, settings.tol
    levels = math.log(max(max(abs(t) for t in ts), tol) / (tol * 1e-2)) / settings.epsilon
    if not math.isfinite(levels):
        raise DomainError(f"no finite continued-fraction depth for t up to {max(ts, key=abs)!r}")
    depth, nxt = max(64, math.ceil(levels) + 8), None
    for _ in range(24):
        depth *= 2
        values, nxt = _cfrac_rung(ts, q, depth, scalar_limit, nxt)
        diffs = [abs(b - a) for a, b in zip(values, nxt)]
        if all(d <= tol * max(1.0, abs(b)) for d, b in zip(diffs, nxt)):
            return nxt, depth
    raise NonConvergenceError(
        f"continued fraction failed to stabilise by depth {depth}",
        last_term=max(diffs),
    )


def g_cfrac(t: float, settings: EvalSettings, full_output: bool = False):
    """G(t, q) from the continued fraction, the small-eps reference route.

    Evaluated bottom-up from depth K with tail value 1, doubling K until two
    successive evaluations agree within the tolerance. Each rung is one pass
    that yields the values at K/2 and K, bit-identical to separate
    evaluations at the two depths. Valid (and stable) beyond the pole line,
    where the series representations fail.
    """
    t = float(t)
    if t == 0.0:
        return (1.0, 0) if full_output else 1.0
    [value], depth = _cfrac_doubling([t], settings, _SCALAR_DEPTH_LIMIT)
    return (value, depth) if full_output else value


def g_cfrac_grid(ts: np.ndarray, settings: EvalSettings) -> np.ndarray:
    """Continued-fraction values on a grid of t at one shared depth.

    Every depth, shallow ones too, goes through the pairwise product, so the
    values can differ from ``g_cfrac`` in the last bits. Each rung is one
    pass over the chunks for all t that yields the values at K/2 and K,
    bit-identical to separate evaluations at the two depths.
    """
    ts = np.asarray(ts, dtype=float).tolist()
    if not ts:
        return np.array([], dtype=float)
    values, _ = _cfrac_doubling(ts, settings, 0)
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
    h = lambda t: _sum_h(t, settings, 24)[0][0][0]  # the exact sign: ~2000 terms round by < 2^11 ulps
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
