"""Airy functions, their zeros and zeta sums, the complex dilogarithm, and
the Airy-ratio scaling function F(s) = Ai'(s)/Ai(s).

Everything here is built from series and asymptotic expansions directly, so
the rest of the library carries no dependence on external special-function
packages. Accuracy target is 12 significant digits (absolute with respect to
the oscillatory envelope on the negative Airy axis).

Evaluation strategy for Ai/Ai':

* ``|x| <= 7.8``   the Maclaurin sums in binary fixed point on Python
  integers, from 256-bit integer values of Ai(0) and Ai'(0), as wide as
  the cancellation met needs: within 1 ulp of 300-bit mpmath throughout,
  next to the zeros of Ai and Ai' too. An asymptotic expansion switched
  on at 4.5 bottoms out near 3e-6 (optimal truncation error
  exp(-4|x|^{3/2}/3)), which is why the series reaches out to 7.8.
* ``|x| > 7.8``   Poincare asymptotic expansions, truncated at the smallest
  term; the error floor is below 3e-13 there. On x < -7.8 the phase
  zeta + pi/4 is formed exactly in 256-bit fixed point and reduced mod
  2 pi before it is rounded: Ai and Ai' are within 1.2e-14 of their
  envelopes on [-1e4, -7.8], and 8e-16 from x = -10 on, against 300-bit
  mpmath.

``airy_scaled`` owns the switch to the exp(zeta)-scaled pair for x > 60,
where the bare values head for underflow; callers that need only ratios
or logarithms of Airy combinations use it and never decide that themselves.

Each zero of Ai is computed once and cached by its index, so
``airy_zeros(k)`` is a prefix of any longer call, and the tuple of each
count is cached too; each ``airy_zeta(j)`` sum is cached as well, for
``scaling_F_series``. The finite-size form reads Z(k+1) = -c_k, F's Taylor
coefficients, from ``_riccati_coefficient``, which sums no zero.
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

# Closed forms 3^(-2/3)/Gamma(2/3) and -3^(-1/3)/Gamma(1/3); for the
# fixed-point Maclaurin tier also times 2^256, as nearest integers.
AIRY_AT_ZERO = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
AIRY_PRIME_AT_ZERO = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
_AI0_256 = 41109440097528836801426857147003022046736271027248145578114601627402032088151
_AIP0_256 = -29969239500325658570643940434295903604949246557401152125927594781886720463969
# pi times 2^256, the nearest integer: the oscillatory phase is reduced mod 2 pi against it
_PI_256 = 363771576891766324280234942777729862653393377328392429958772151117938894466185
# Amplitude of the tricritical scaling law, Ai'(0)/Ai(0) = -0.7290...
A0 = AIRY_PRIME_AT_ZERO / AIRY_AT_ZERO

_ASYMPTOTIC_RADIUS = 7.8
_MAX_ARGUMENT = 1.0e4
# Above this argument ``airy_scaled`` returns the exp(zeta)-scaled pair.
_SCALED_FROM = 60.0
# c_k (``_riccati_coefficient``) times 2^420: |c_k| falls like 2.338^-k, so 420 bits keep 100 of c_257
_RICCATI_BITS = 420
_RICCATI_FIXED = {0: ((_AIP0_256 << _RICCATI_BITS + 1) + _AI0_256) // (2 * _AI0_256)}


@dataclass(frozen=True)
class AiryPair:
    """Values of Ai and Ai' at one point; ``ai`` is 0.0 where Ai(x) decays
    below the smallest positive double."""

    ai: float
    ai_prime: float


def _airy_origin(frac: int) -> tuple[int, int]:
    """Ai(0) and Ai'(0) times 2^frac, frac < 256, as nearest integers (halves up)."""
    return (_AI0_256 >> 255 - frac) + 1 >> 1, (_AIP0_256 >> 255 - frac) + 1 >> 1


def _airy_maclaurin(x: float) -> AiryPair:
    """Ai and Ai' for |x| <= 7.8 from the Maclaurin sums in binary fixed point.

    With y = x^3, a_j = y^j / prod_{i<=j} (3i - 1) 3i, b_j = y^j / prod_{i<=j}
    3i (3i + 1) and p_j = a_j / (3j + 2),

        Ai(x)  = Ai(0) sum (3j + 2) p_j + Ai'(0) x sum b_j,
        Ai'(x) = Ai(0) x^2 sum p_j + Ai'(0) sum (3j + 1) b_j.

    p and b are integers in units of 2^-F; x = m / 2^e is exact, so each term
    is the previous one times m^3, floor-divided by a small integer and
    shifted down 3e bits, until both floor to 0. x and x^2 enter last, in
    units of 2^-2F, and Ai and Ai' are each rounded once, from an integer.

    The floors cost a few units, times exp(zeta), zeta = 2|x|^{3/2}/3, on
    x < 0, where the terms reach exp(zeta) times the sums. The two products
    forming Ai or Ai' cancel by about 2 zeta / ln 2 bits on x > 0 (the sums
    grow as Ai decays) and by about 53 next to a zero. F must exceed the two
    losses together by 64 bits: a pass starts 8 above, reruns if it loses more.
    """
    depth = 2.0 * abs(x) ** 1.5 / (3.0 * math.log(2.0))
    amp = 0 if x > 0.0 else int(depth)
    frac = 72 + int(2.0 * depth if x > 0.0 else depth)
    m, den = x.as_integer_ratio()
    e = den.bit_length() - 1
    y, e3 = m * m * m, 3 * e
    while True:
        p = fp = 1 << frac - 1
        b = f = g = gp = 1 << frac
        k = 0
        while p or b:
            k += 3
            p = p * y // (k * (k + 2)) >> e3
            b = b * y // (k * (k + 1)) >> e3
            f += (k + 2) * p
            fp += p
            g += b
            gp += (k + 1) * b
        c1, c2 = _airy_origin(frac)
        u, v, s, w = c1 * f, c2 * g * m >> e, c1 * fp * m * m >> 2 * e, c2 * gp
        lost = max(max(u.bit_length(), v.bit_length()) - (u + v).bit_length(),
                   max(s.bit_length(), w.bit_length()) - (s + w).bit_length())
        if lost <= frac - 64 - amp:
            return AiryPair(ai=math.ldexp(u + v, -2 * frac), ai_prime=math.ldexp(s + w, -2 * frac))
        frac = 72 + amp + lost


def _asymptotic_coefficients(n_max: int):
    """Coefficients u_k and v_k = -u_k (6k+1)/(6k-1) of the large-x expansions."""
    u = [1.0]
    for k in range(n_max):
        ratio = ((3 * k + 2.5) * (3 * k + 1.5) * (3 * k + 0.5)) / (54.0 * (k + 1) * (k + 0.5))
        u.append(u[-1] * ratio)
    v = [1.0] + [-(6 * k + 1) / (6 * k - 1) * u[k] for k in range(1, len(u))]
    return u, v


_U_COEF, _V_COEF = _asymptotic_coefficients(40)


def _truncated_alternating(coefs, inv_zeta: float | complex) -> float | complex:
    """Sum (-1)^k c_k inv_zeta^k, stopping at the smallest term."""
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
    return AiryPair(ai=ai, ai_prime=-pref * root4 * s_aip)


def _airy_asymptotic_negative(x: float) -> AiryPair:
    """Poincare expansions of Ai and Ai' for x < -7.8. With y = -x, zeta =
    2 y^{3/2}/3 and theta = zeta + pi/4,

        Ai(-y) = Im(e^(i theta) U) / (sqrt(pi) y^{1/4}),
        Ai'(-y) = -y^{1/4} Re(e^(i theta) V) / sqrt(pi),

    U and V the sums of u_k and v_k times (-i/zeta)^k, each truncated at its
    smallest term. theta is formed exactly before it is rounded: y = m/2^e,
    so 2^256 zeta is 2 isqrt(m^3 2^(512 - 3e)) / 3, reduced mod 2 pi
    against ``_PI_256``. (zeta + pi/4 in doubles would carry an absolute
    error near ulp(zeta), 6e-11 of the envelope at x = -1e4.)
    """
    y = -x
    m, den = y.as_integer_ratio()  # den = 2^e, e <= 50 as y >= 7.8
    theta = (2 * math.isqrt(m**3 << 512 - 3 * (den.bit_length() - 1)) // 3 + (_PI_256 >> 2)) % (2 * _PI_256)
    phase = cmath.exp(1j * (theta / (1 << 256)))
    inv = 1j / (2.0 * y**1.5 / 3.0)
    root4 = y**0.25
    return AiryPair(ai=(phase * _truncated_alternating(_U_COEF, inv)).imag / (math.sqrt(math.pi) * root4),
                    ai_prime=-root4 * (phase * _truncated_alternating(_V_COEF, inv)).real / math.sqrt(math.pi))


def airy(x: float) -> AiryPair:
    """Ai(x) and Ai'(x) for real x, |x| <= 1e4.

    Three tiers: the fixed-point Maclaurin sums on |x| <= 7.8 and the Poincare
    expansions on either side; ``airy_scaled`` switches to a scaled pair above 60.
    """
    x = float(x)
    if math.isnan(x) or abs(x) > _MAX_ARGUMENT:
        raise DomainError(f"airy argument {x!r} outside |x| <= {_MAX_ARGUMENT:g}")
    if abs(x) <= _ASYMPTOTIC_RADIUS:
        return _airy_maclaurin(x)
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


@lru_cache(maxsize=None)
def airy_zeros(count: int) -> tuple[float, ...]:
    """First ``count`` zeros of Ai on the negative axis, in decreasing order.

    Each zero is seeded from its asymptotic location, polished by Newton
    iteration and verified by a sign change. Zeros are cached one index at
    a time, so ``airy_zeros(k)`` is always the first k of any longer call;
    the tuple of each count is cached too.
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


@lru_cache(maxsize=None)
def _riccati_coefficient(k: int) -> float:
    """c_k of F = Ai'/Ai = sum_k c_k s^k, so Z(k+1) = -c_k: F' = s - F^2 gives c_0 = Ai'(0)/Ai(0)
    and (k+1) c_(k+1) = [k = 1] - sum_(i<=k) c_i c_(k-i), each pair of products (of one sign)
    formed once in units of 2^-420 and each c_k rounded once; built only as far as a call reads.
    Entries are keyed by k, so threads that race to extend them write equal values."""
    fixed = _RICCATI_FIXED
    for n in range(len(fixed) - 1, k):
        square = 2 * sum(fixed[i] * fixed[n - i] for i in range((n + 1) // 2)) + (n % 2 == 0) * fixed[n // 2] ** 2
        den = (n + 1) << _RICCATI_BITS
        fixed[n + 1] = ((int(n == 1) << 2 * _RICCATI_BITS) - square + den // 2) // den
    return math.ldexp(fixed[k], -_RICCATI_BITS)


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


_LEAST_NORMAL = 2.0 ** -1022
_LEAST_DOUBLE = 2.0 ** -1074  # the spacing of the subnormals


def _times_power(z: float, x: float, n: int) -> float:
    """z x^n: ``z * x ** n`` while x ** n is a double, else the product of the
    ``math.frexp`` mantissas of z and x^n scaled by ``math.ldexp``."""
    try:
        return z * x ** n
    except OverflowError:
        (mz, ez), (mx, ex) = math.frexp(z), math.frexp(x)
        return math.ldexp(mz * mx ** n, ez + ex * n)


def scaling_F_series(s: float, j_max: int = 40, full_output: bool = False):
    """F(s) from its zeta-coefficient series -(1/s) sum_{j>=1} Z(j) s^j.

    Plain truncation at j_max; the radius of convergence is |s_1| = 2.3381,
    set by the first Airy zero. Returns the value, or (value, tail_bound)
    with ``full_output``. As |s_k| >= |s_1| for every zero, |Z(j+1)| <=
    |Z(j)|/|s_1| (j >= 2), so tail_bound = |Z(j_max+1)| |s|^j_max /
    (1 - |s|/|s_1|) bounds the dropped tail of the coefficients as computed;
    for s < 0, where the dropped terms share one sign, the tail nears it.
    The coefficients come from ``airy_zeta(count=400)`` and carry about 1e-8
    absolute error on top of the tail (6.4e-9 |s|, from Z(2)). Past j = 834
    Z(j) ~ |s_1|^-j is subnormal, off by up to half its spacing 2^-1074, and
    from j = 878 it rounds to 0: the sum stops at that first 0, and
    tail_bound adds 2^-1075 |s|^(j-1) for each subnormal term it keeps and
    takes |Z(878)| <= 2^-1075 for the tail it drops, so a larger j_max
    changes nothing. That share matters only near the radius (2.6e-5 at
    |s| = 2.3, about 11 at 2.33). Where a power of s leaves the double range
    (|s| > 2.25 near j = 877), the term is formed from the ``math.frexp``
    parts of Z(j) and s, scaled back by an exact power of two
    (``_times_power``); every term, |Z(j) s^(j-1)| < |Z(2)| |s_1|, is itself
    in range. A non-finite s is a domain error.
    """
    s = float(s)
    if not math.isfinite(s):
        raise DomainError(f"scaling_F_series needs a finite s, got {s!r}")
    if j_max < 1:
        raise DomainError(f"j_max must be >= 1, got {j_max!r}")
    radius = abs(airy_zeros(1)[0])
    if abs(s) >= radius:
        raise DivergenceError(
            f"scaling_F_series diverges for |s| >= {radius:.4f} (got {s!r})"
        )
    total, tail_bound = 0.0, 0.0
    for j in range(1, j_max + 2):
        zeta = airy_zeta(j)
        # a subnormal Z(j), 0 included, is within half its spacing of |s_1|^-j
        error = 0.5 * _times_power(_LEAST_DOUBLE, abs(s), j - 1) if abs(zeta) < _LEAST_NORMAL else 0.0
        if j <= j_max and zeta != 0.0:
            total -= _times_power(zeta, s, j - 1)
            tail_bound += error
        else:
            tail_bound += (_times_power(abs(zeta), abs(s), j - 1) + error) / (1.0 - abs(s) / radius)
            break
    if full_output:
        return total, tail_bound
    return total
