"""Airy functions, their zeros and zeta sums, the complex dilogarithm, and
the Airy-ratio scaling function F(s) = Ai'(s)/Ai(s).

Everything here is built from series and asymptotic expansions directly, so
the rest of the library carries no dependence on external special-function
packages. Accuracy target is 12 significant digits (absolute with respect to
the oscillatory envelope on the negative Airy axis).

Evaluation strategy for Ai/Ai':

* ``-4.5 <= x <= 3.5``   Maclaurin series in double precision (exactly
  summed term lists; worst cancellation here costs ~3 digits).
* ``3.5 < x <= 7.8`` and ``-7.8 <= x < -4.5``   the same Maclaurin
  recurrence in binary fixed point on Python integers, with the precision
  raised by the cancellation depth exp(2|x|^{3/2}/3); Ai(0) and Ai'(0) are
  read from 256-bit integer constants. Ai and Ai' are within 1 ulp of
  300-bit mpmath values across both bands. A plain
  asymptotic expansion switched on at 4.5 bottoms out near 3e-6 (optimal
  truncation error exp(-4|x|^{3/2}/3)), far short of 12 digits, which is
  why this guarded middle tier exists.
* ``|x| > 7.8``   Poincare asymptotic expansions, truncated at the smallest
  term; the error floor is below 3e-13 there.

``airy_scaled`` owns the switch to the exp(zeta)-scaled pair for x > 60,
where the bare values head for underflow; callers that need only ratios
or logarithms of Airy combinations use it and never decide that themselves.

Each zero of Ai is computed once and cached by its index, so
``airy_zeros(k)`` is a prefix of any longer call; each ``airy_zeta(j)`` sum
is cached too, and is the one source of Z(j) for every series here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    BranchCutError,
    DivergenceError,
    DomainError,
    NonConvergenceError,
    PoleProximityError,
)

__all__ = [
    "AiryPair",
    "airy",
    "airy_scaled",
    "airy_zeros",
    "airy_zeta",
    "dilog",
    "scaling_F",
    "scaling_F_series",
    "AIRY_AT_ZERO",
    "AIRY_PRIME_AT_ZERO",
    "A0",
]

# Closed forms 3^(-2/3)/Gamma(2/3) and -3^(-1/3)/Gamma(1/3); for the guarded
# Maclaurin tier also times 2^256, as nearest integers.
AIRY_AT_ZERO = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
AIRY_PRIME_AT_ZERO = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
_AI0_256 = 41109440097528836801426857147003022046736271027248145578114601627402032088151
_AIP0_256 = -29969239500325658570643940434295903604949246557401152125927594781886720463969
# Amplitude of the tricritical scaling law, Ai'(0)/Ai(0) = -0.7290...
A0 = AIRY_PRIME_AT_ZERO / AIRY_AT_ZERO

_SERIES_RADIUS = 4.5
# The growing solution dominates the Maclaurin sums for x > 0, so the
# double-precision series loses exp(2 zeta) there instead of exp(zeta);
# the elevated-precision tier starts earlier on that side.
_SERIES_RADIUS_POS = 3.5
_ASYMPTOTIC_RADIUS = 7.8
_MAX_ARGUMENT = 1.0e4
# Above this argument ``airy_scaled`` returns the exp(zeta)-scaled pair.
_SCALED_FROM = 60.0


@dataclass(frozen=True)
class AiryPair:
    """Values of Ai and Ai' at one point.

    ``underflow`` is set when Ai(x) decayed below the smallest positive
    double and the stored value collapsed to 0.0.
    """

    ai: float
    ai_prime: float
    underflow: bool = False


def _maclaurin_terms(x: float):
    """Term lists, in doubles, of the four Maclaurin series f, g, f', g' at x.

    Ai(x)  = Ai(0) f(x) + Ai'(0) g(x)
    Ai'(x) = Ai(0) f'(x) + Ai'(0) g'(x)

    The recurrence stops once the terms of f, g and g' drop below 1e-22.
    """
    x3 = x * x * x
    a, ap, b, bp = 1.0, x * x / 2, x, 1.0
    f_terms, fp_terms, g_terms, gp_terms = [a], [0.0, ap], [b], [bp]
    k = 0
    while True:
        a *= x3 / ((3 * k + 2) * (3 * k + 3))
        b *= x3 / ((3 * k + 3) * (3 * k + 4))
        bp *= x3 / ((3 * k + 1) * (3 * k + 3))
        f_terms.append(a)
        g_terms.append(b)
        gp_terms.append(bp)
        if k >= 1:
            ap *= x3 * (k + 1) / (k * (3 * k + 2) * (3 * k + 3))
            fp_terms.append(ap)
        k += 1
        if k > 6 and abs(a) < 1e-22 and abs(b) < 1e-22 and abs(bp) < 1e-22:
            return f_terms, g_terms, fp_terms, gp_terms


def _airy_origin(frac: int) -> tuple[int, int]:
    """Ai(0) and Ai'(0) times 2^frac, frac < 256, as nearest integers (halves up)."""
    return tuple((c >> 255 - frac) + 1 >> 1 for c in (_AI0_256, _AIP0_256))


def _airy_maclaurin(x: float, guarded: bool) -> AiryPair:
    """Ai and Ai' from the Maclaurin sums: in doubles, or when ``guarded``
    in binary fixed point with the precision raised by the cancellation depth.

    The guarded sums are Python integers in units of 2^-F, F = prec + 8 bits
    of floor slack. x = m / 2^e is exact, so each term is the previous one
    times m^3, floor-divided by a small integer shifted up by 3e bits; the
    recurrence stops once the terms of f, g and g' drop below 2^-prec. Ai and
    Ai' are each one integer true division, which rounds correctly.
    """
    if not guarded:
        f, g, fp, gp = map(math.fsum, _maclaurin_terms(x))
        return AiryPair(
            ai=AIRY_AT_ZERO * f + AIRY_PRIME_AT_ZERO * g,
            ai_prime=AIRY_AT_ZERO * fp + AIRY_PRIME_AT_ZERO * gp,
        )
    # prec = 53 + cancellation depth + 24 guard bits, where the depth is
    # exp(zeta) for x < 0 and exp(2 zeta) for x > 0, zeta = 2|x|^{3/2}/3
    zeta = 2.0 * abs(x) ** 1.5 / 3.0
    frac = 53 + int(2.0 * zeta / math.log(2.0)) + 24 + 8
    m, den = x.as_integer_ratio()
    m3, e3 = m * m * m, 3 * (den.bit_length() - 1)
    a = bp = f = gp = 1 << frac
    ap = fp = (m * m << frac) // (2 * den * den)
    b = g = (m << frac) // den
    k = 0
    while k <= 6 or max(abs(a), abs(b), abs(bp)) >= 1 << 8:  # 2^-prec in units of 2^-F
        a = a * m3 // ((3 * k + 2) * (3 * k + 3) << e3)
        b = b * m3 // ((3 * k + 3) * (3 * k + 4) << e3)
        bp = bp * m3 // ((3 * k + 1) * (3 * k + 3) << e3)
        f, g, gp = f + a, g + b, gp + bp
        if k >= 1:
            ap = ap * m3 * (k + 1) // (k * (3 * k + 2) * (3 * k + 3) << e3)
            fp += ap
        k += 1
    c1, c2 = _airy_origin(frac)
    unit = 1 << 2 * frac
    return AiryPair(ai=(c1 * f + c2 * g) / unit, ai_prime=(c1 * fp + c2 * gp) / unit)


def _asymptotic_coefficients(n_max: int):
    """Coefficients u_k and v_k = -u_k (6k+1)/(6k-1) of the large-x expansions."""
    u = [1.0]
    for k in range(n_max):
        ratio = ((3 * k + 2.5) * (3 * k + 1.5) * (3 * k + 0.5)) / (54.0 * (k + 1) * (k + 0.5))
        u.append(u[-1] * ratio)
    v = [1.0] + [-(6 * k + 1) / (6 * k - 1) * u[k] for k in range(1, len(u))]
    return u, v


_U_COEF, _V_COEF = _asymptotic_coefficients(40)


def _truncated_alternating(coefs, inv_zeta: float) -> float:
    """Sum (-1)^k c_k zeta^{-k}, stopping at the smallest term."""
    total = 0.0
    power = 1.0
    last = math.inf
    for k, c in enumerate(coefs):
        term = c * power
        if abs(term) > last:
            break
        total += (-term if (k & 1) else term)
        last = abs(term)
        power *= inv_zeta
        if abs(term) < 1e-19:
            break
    return total


def _airy_asymptotic_positive(x: float, scaled: bool) -> AiryPair:
    """Poincare expansions of Ai and Ai' for x > 7.8; with ``scaled`` the
    pair is multiplied by exp(zeta), zeta = 2 x^{3/2}/3, and stays O(1)."""
    zeta = 2.0 * x**1.5 / 3.0
    inv = 1.0 / zeta
    s_ai = _truncated_alternating(_U_COEF, inv)
    s_aip = _truncated_alternating(_V_COEF, inv)
    root4 = x**0.25
    pref = (1.0 if scaled else math.exp(-zeta)) / (2.0 * math.sqrt(math.pi))
    ai = pref * s_ai / root4
    return AiryPair(ai=ai, ai_prime=-pref * root4 * s_aip, underflow=ai == 0.0)


def _even_odd_sums(coefs, inv_zeta: float):
    """Even/odd split sums needed on the oscillatory side."""
    inv2 = inv_zeta * inv_zeta
    even = 0.0
    odd = 0.0
    power = 1.0  # zeta^{-2k}
    last = math.inf
    for k in range(0, len(coefs) // 2):
        e_term = coefs[2 * k] * power
        o_term = coefs[2 * k + 1] * power * inv_zeta
        if max(abs(e_term), abs(o_term)) > last:
            break
        even += -e_term if (k & 1) else e_term
        odd += -o_term if (k & 1) else o_term
        last = max(abs(e_term), abs(o_term))
        power *= inv2
        if last < 1e-19:
            break
    return even, odd


def _airy_asymptotic_negative(x: float) -> AiryPair:
    y = -x
    zeta = 2.0 * y**1.5 / 3.0
    inv = 1.0 / zeta
    u_even, u_odd = _even_odd_sums(_U_COEF, inv)
    v_even, v_odd = _even_odd_sums(_V_COEF, inv)
    arg = zeta + math.pi / 4.0
    s, c = math.sin(arg), math.cos(arg)
    root4 = y**0.25
    pref = 1.0 / (math.sqrt(math.pi) * root4)
    ai = pref * (s * u_even - c * u_odd)
    aip = -(root4 / math.sqrt(math.pi)) * (c * v_even + s * v_odd)
    return AiryPair(ai=ai, ai_prime=aip)


def airy(x: float) -> AiryPair:
    """Ai(x) and Ai'(x) for real x, |x| <= 1e4.

    Uses the Maclaurin series near the origin and Poincare expansions for
    large argument, with an elevated-precision series tier bridging the
    region where neither double-precision method reaches 12 digits.
    """
    x = float(x)
    if math.isnan(x) or abs(x) > _MAX_ARGUMENT:
        raise DomainError(f"airy argument {x!r} outside |x| <= {_MAX_ARGUMENT:g}")
    if abs(x) <= _ASYMPTOTIC_RADIUS:
        fast_radius = _SERIES_RADIUS_POS if x > 0 else _SERIES_RADIUS
        return _airy_maclaurin(x, guarded=abs(x) > fast_radius)
    if x > 0:
        return _airy_asymptotic_positive(x, scaled=False)
    return _airy_asymptotic_negative(x)


def airy_scaled(x: float) -> tuple[AiryPair, float]:
    """Ai and Ai' with an exponential factor split off: (pair, log_factor).

    The true values are pair * exp(log_factor). Up to x = 60 this is
    (airy(x), 0.0); above it the pair is exp(zeta) Ai, exp(zeta) Ai' and
    log_factor = -zeta, zeta = 2 x^{3/2}/3, so the pair stays O(1) where
    the bare values underflow. The domain is that of ``airy``.
    """
    x = float(x)
    if _SCALED_FROM < x <= _MAX_ARGUMENT:
        return _airy_asymptotic_positive(x, scaled=True), -2.0 * x**1.5 / 3.0
    return airy(x), 0.0


# --------------------------------------------------------------------------
# Zeros of Ai and the Airy zeta function
# --------------------------------------------------------------------------

def _zero_seed(k: int) -> float:
    """Asymptotic location of the k-th zero, -T(3 pi (4k-1)/8)."""
    z = 3.0 * math.pi * (4 * k - 1) / 8.0
    zi2 = 1.0 / (z * z)
    t = 1.0 + zi2 * (5.0 / 48.0 + zi2 * (-5.0 / 36.0 + zi2 * (77125.0 / 82944.0 - zi2 * 108056875.0 / 6967296.0)))
    return -(z ** (2.0 / 3.0)) * t


@lru_cache(maxsize=None)
def _airy_zero(k: int) -> float:
    s = _zero_seed(k)
    for _ in range(60):
        pair = airy(s)
        step = pair.ai / pair.ai_prime
        s -= step
        if abs(step) < 1e-14 * max(1.0, abs(s)):
            break
    else:
        raise NonConvergenceError(f"Newton iteration for Airy zero {k} did not converge")
    h = 1e-7
    if airy(s - h).ai * airy(s + h).ai > 0.0:
        raise NonConvergenceError(f"no sign change around candidate Airy zero {k} at {s!r}")
    return s


def airy_zeros(count: int) -> tuple[float, ...]:
    """First ``count`` zeros of Ai on the negative axis, in decreasing order.

    Each zero is seeded from its asymptotic location, polished by Newton
    iteration and verified by a sign change. Zeros are cached one index at
    a time, so ``airy_zeros(k)`` is always the first k of any longer call.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    return tuple(_airy_zero(k) for k in range(1, count + 1))


@lru_cache(maxsize=None)
def airy_zeta(j: int, count: int = 400) -> float:
    """Sums of reciprocal powers of the Airy zeros, Z(j) = sum_k s_k^{-j}.

    For j >= 2 the sum over ``count`` zeros is completed by a midpoint
    integral estimate of the tail based on s_k ~ -(3 pi (4k-1)/8)^{2/3};
    the same estimate bounds the truncation error scale. The j = 1 sum
    diverges as a raw series and is exposed only through its regularised
    value -Ai'(0)/Ai(0).
    """
    if j < 1:
        raise DomainError("airy_zeta requires j >= 1")
    if j == 1:
        return -A0
    zeros = airy_zeros(count)
    head = math.fsum(s ** (-j) for s in zeros) if j % 2 == 0 else -math.fsum(abs(s) ** (-j) for s in zeros)
    a = 1.5 * math.pi
    p = 2.0 * j / 3.0
    tail_mag = a ** (-p) * (count + 0.25) ** (1.0 - p) / (p - 1.0)
    tail = tail_mag if j % 2 == 0 else -tail_mag
    return head + tail


# --------------------------------------------------------------------------
# Dilogarithm
# --------------------------------------------------------------------------

def _bernoulli_numbers(count: int) -> list[float]:
    """B_0 .. B_(count-1), count even: B_1 = -1/2, the odd B_n > 1 are 0, and B_2n =
    (-1)^(n-1) 2n T_n / (4^n (4^n - 1)), T_n the tangent numbers (Knuth and Buckholtz)."""
    half = count // 2 - 1
    tan = [math.factorial(k - 1) if k else 0 for k in range(half + 1)]  # T_k after the sweeps
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            tan[j] = (j - k) * tan[j - 1] + (j - k + 2) * tan[j]
    even = [(-1) ** (n - 1) * 2 * n * tan[n] / (4**n * (4**n - 1)) for n in range(1, half + 1)]
    return [1.0, -0.5] + [b for b2n in even for b in (b2n, 0.0)]


_BERNOULLI = _bernoulli_numbers(64)


def _dilog_w_series(z: complex) -> complex:
    """Li2 via the integral substitution w = -log(1-z).

    Li2(z) = int_0^w u/(e^u - 1) du = sum_n B_n w^{n+1} / ((n+1) n!),
    convergent for |w| < 2 pi; the callers reduce z so that |w| < ~4.1.
    """
    w = -cmath.log(1.0 - z)
    w2 = w * w
    total = w - 0.25 * w2  # B_0 and B_1 contributions
    wpow = w * w2  # w^{n+1} at n = 2
    fact = 2.0  # n! at n = 2
    n = 2
    while n < len(_BERNOULLI):
        contrib = _BERNOULLI[n] * wpow / ((n + 1) * fact)
        total += contrib
        if abs(contrib) < 1e-19 * max(1.0, abs(total)):
            return total
        wpow *= w2
        fact *= (n + 1) * (n + 2)
        n += 2
    raise NonConvergenceError("dilog Bernoulli series did not converge")


def dilog(z: complex) -> complex:
    """Principal-branch Euler dilogarithm Li2(z) = -int_0^z log(1-s)/s ds.

    The cut runs along [1, inf); real arguments greater than 1 raise a
    branch error. Arguments are mapped into the fast-convergence region by
    the inversion and reflection identities before summation.
    """
    z = complex(z)
    if z.imag == 0.0:
        x = z.real
        if x > 1.0:
            raise BranchCutError(f"dilog argument {x!r} lies on the branch cut [1, inf)")
        if x == 1.0:
            return complex(math.pi * math.pi / 6.0, 0.0)
        if x == 0.0:
            return 0.0 + 0.0j
    if abs(z) > 1.4:
        # Inversion: Li2(z) = -pi^2/6 - log(-z)^2/2 - Li2(1/z)
        lg = cmath.log(-z)
        return -math.pi * math.pi / 6.0 - 0.5 * lg * lg - dilog(1.0 / z)
    if z.real > 0.5:
        # Reflection: Li2(z) = pi^2/6 - log(z) log(1-z) - Li2(1-z)
        return math.pi * math.pi / 6.0 - cmath.log(z) * cmath.log(1.0 - z) - dilog(1.0 - z)
    return _dilog_w_series(z)


# --------------------------------------------------------------------------
# Scaling function and its zeta-coefficient series
# --------------------------------------------------------------------------

def scaling_F(s: float) -> float:
    """Airy logarithmic derivative F(s) = Ai'(s)/Ai(s).

    Poles sit at the Airy zeros; evaluation within 1e-8 of one raises a
    pole error carrying the offending zero. The zero nearest s < 0 has index
    k = round(2|s|^(3/2)/(3 pi) + 1/4), the inverse of the asymptotic
    location -(3 pi (4k - 1)/8)^(2/3); only the zeros k - 1, k and k + 1 are
    checked. The domain is that of ``airy``.
    """
    s = float(s)
    if not abs(s) <= _MAX_ARGUMENT:
        raise DomainError(f"scaling_F argument {s!r} outside |s| <= {_MAX_ARGUMENT:g}")
    if s < 0.0:
        k = round(2.0 * abs(s) ** 1.5 / (3.0 * math.pi) + 0.25)
        nearest = min((_airy_zero(j) for j in range(max(1, k - 1), k + 2)), key=lambda r: abs(r - s))
        if abs(nearest - s) < 1e-8:
            raise PoleProximityError(
                f"scaling_F argument {s!r} within 1e-8 of Airy zero {nearest!r}", nearest=nearest
            )
    # the exponential factor cancels in the ratio
    pair, _ = airy_scaled(s)
    return pair.ai_prime / pair.ai


def scaling_F_series(s: float, j_max: int = 40, full_output: bool = False):
    """F(s) from its zeta-coefficient series -(1/s) sum_{j>=1} Z(j) s^j.

    Plain truncation at j_max; the radius of convergence is |s_1| = 2.3381,
    set by the first Airy zero. Returns the value, or (value, tail_bound)
    with ``full_output`` where tail_bound is a geometric estimate of the
    dropped tail, tail_bound = sum_{j>j_max} |s_1|^{-j} |s|^{j-1}: the first
    zero's share of the dropped terms. The true tail matches it up to a
    relative (s_1/s_2)^{j_max+1}, about 1e-10 at j_max = 40. The
    coefficients come from ``airy_zeta(count=400)`` and carry about 1e-8
    absolute error on top of the tail (6.4e-9 |s|, from Z(2)).
    """
    s = float(s)
    if j_max < 1:
        raise DomainError(f"j_max must be >= 1, got {j_max!r}")
    radius = abs(airy_zeros(1)[0])
    if abs(s) >= radius:
        raise DivergenceError(
            f"scaling_F_series diverges for |s| >= {radius:.4f} (got {s!r})"
        )
    total = 0.0
    for j in range(1, j_max + 1):
        total -= airy_zeta(j) * s ** (j - 1)
    ratio = abs(s) / radius
    tail_bound = radius ** (-(j_max + 1)) * abs(s) ** j_max / max(1e-300, 1.0 - ratio)
    if full_output:
        return total, tail_bound
    return total
