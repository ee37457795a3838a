"""Saddle-point data and the uniform Airy asymptotics of the generating
function near the coalescence point t = 1/4, q -> 1.

The phase of the contour representation of H(t) is

    f(z, t) = ln(t) ln(z) + Li2(z) - ln(z)^2 / 2,

with saddles z1,2 = (1 +- sqrt(1-4t))/2 that coalesce at t = 1/4. The
cubic normal form f = u^3/3 - a(t) u + b(t) fixes

    a(t) = (3/4 (f(z2) - f(z1)))^(2/3),
    b(t) = (f(z1) + f(z2))/2 = ln(t)^2/4 + pi^2/12,

and the two-term uniform expansion of H reads

    H(t) ~ (q; q)_inf exp(b/eps) (p0 eps^(1/3) Ai(x) - q0 eps^(2/3) Ai'(x)),

with x = a eps^(-2/3) and the leading coefficients

    p0 = (a/d)^(1/4) (z1^p + z2^p),  q0 = (a d)^(-1/4) (z1^p - z2^p),

where d = 1 - 4t and p = 3/2 for H(t), p = 1/2 for H(qt). On all of
(0, 1/2) the saddles are z1,2 = sqrt(t) e^(+-theta) with tanh(theta) =
sqrt(d), so

    p0 = 2 t^(p/2) (a/d)^(1/4) cosh(p theta),
    q0 = 2 t^(p/2) (a/d)^(-1/4) sinh(p theta) / sqrt(d).

Both are even in sqrt(d), hence real on both sides of t = 1/4: past it
a < 0, a/d > 0 and theta = i atan(sqrt(-d)), which turns cosh(p theta)
into cos and sinh(p theta)/sqrt(d) into sin(p atan(sqrt(-d)))/sqrt(-d).

Ratios of the two variants give the uniform approximation of G and, in
the tricritical scaling limit s = (1-4t)(1-q)^(-2/3) fixed, the scaling
law G ~ 2 (1 + (1-q)^(1/3) F(s)) with F = Ai'/Ai. The fixed-area series
coefficients inherit the finite-size law Q_m(t) ~ m^(-4/3) phi(s) at
s = (1-4t) m^(2/3), phi's series cut where its tail is certified below 2^-54.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .errors import (
    AccuracyError,
    DomainError,
    InconsistentBranchError,
    NonConvergenceError,
    PoleProximityError,
)
from .qseries import _epsilon, _log_euler_function, phase_f
from .special_functions import _riccati_coefficient, airy_scaled, airy_zeros, scaling_F

__all__ = [
    "SaddleData",
    "ScaledValue",
    "phase_f",
    "saddle_data",
    "h_uniform",
    "g_uniform",
    "scaling_s",
    "scaling_t",
    "g_scaling",
    "finite_size_phi",
    "q_m_asymptotic",
    "PHI_AMPLITUDE",
]


@dataclass(frozen=True)
class SaddleData:
    """Saddle points and uniform-expansion coefficients at one t.

    ``alpha`` is real on (0, 1/2) with sign(alpha) = sign(1 - 4t); ``beta``
    equals (f(z1) + f(z2))/2 = ln(t)^2/4 + pi^2/12. The p0/q0 pairs are the
    real leading coefficients for the H(t) and H(qt) expansions, in the theta
    form of the module docstring, which holds on both sides of t = 1/4.
    """

    t: float
    z1: complex
    z2: complex
    d: float
    f1: complex
    f2: complex
    alpha: float
    beta: float
    p0_h: float
    q0_h: float
    p0_hqt: float
    q0_hqt: float


_MATCH = 1.0 / math.sqrt(2.0)
_T_SMALLEST = 6.93889390390723e-17  # below it z1 = (1 + sqrt(1 - 4t))/2 rounds to 1, a branch point


def saddle_data(t: float) -> SaddleData:
    """Saddle points, cubic-normal-form parameters and leading coefficients.

    Valid for t in [6.93889390390723e-17, 1/2): below that t z1 rounds to 1,
    a branch point of the phase; the asymptotic formulas are untested outside.
    f(z2) - f(z1) is of size |d|^(3/2), so where |d| < 1e-5 alpha comes from
    its series: with z = (1 + sqrt(d) v)/2, f' integrates between the saddles
    to f(z2) - f(z1) = sqrt(d) sum_N c_N d^N, c_N = sum_(n<=N) (2/n)(1/(2(N-n)+1)
    - 1/(2N+1)) = 4/3, 16/15, 92/105, ..., so alpha = d (3/4 sum_N c_N
    d^(N-1))^(2/3); five terms leave below 1e-20.

    Matching the cubic normal form at the saddles gives
    p0 +- sqrt(a) q0 = g(z_i) sqrt(+-2 sqrt(a)/f''(z_i)), which closes to
    p0 = (a/d)^(1/4) (z1^p + z2^p)/sqrt(2) and the analogous q0. The
    1/sqrt(2) is essential: without it the uniform expansion of H tends to
    sqrt(2) times the true series value (verified against the exact sum).
    The theta form of the module docstring gives them for every t; below 1/4,
    theta = log1p(sqrt(d)) - ln(4t)/2 is exact in 4t, so nothing cancels.
    """
    t = float(t)
    if not (_T_SMALLEST <= t < 0.5):
        raise DomainError(f"saddle_data requires t in [{_T_SMALLEST!r}, 1/2), got {t!r}")
    d = 1.0 - 4.0 * t
    root = cmath.sqrt(complex(d))
    z1, z2 = 0.5 * (1.0 + root), 0.5 * (1.0 - root)
    f1, f2 = phase_f(z1, t), phase_f(z2, t)
    beta = 0.5 * (f1 + f2).real
    if abs(d) < 1e-5:  # alpha / d from the c_N series
        ratio = (1.0 + d * (4 / 5 + d * (23 / 35 + d * (176 / 315 + d * 563 / 1155)))) ** (2.0 / 3.0)
        alpha = ratio * d
    else:
        diff = f2 - f1
        if d > 0.0:
            if diff.real <= 0.0:
                raise InconsistentBranchError(f"f(z2)-f(z1) = {diff!r} not positive for t = {t!r} < 1/4")
            alpha = (0.75 * diff.real) ** (2.0 / 3.0)
        else:
            alpha = -((0.75 * abs(diff)) ** (2.0 / 3.0))
        ratio = alpha / d  # positive on both sides of the coalescence
    quarter, root = ratio**0.25, math.sqrt(abs(d))
    theta = math.log1p(root) - 0.5 * math.log(4.0 * t) if d > 0.0 else math.atan(root)
    even, odd = (math.cosh, math.sinh) if d > 0.0 else (math.cos, math.sin)
    # p0 and q0 for H, then for H(qt); sinh(p theta)/sqrt(d) tends to p at d = 0
    coefficients = (2.0 * t ** (p / 2.0) * _MATCH * value for p in (1.5, 0.5)
                    for value in (quarter * even(p * theta), (odd(p * theta) / root if root else p) / quarter))
    return SaddleData(t, z1, z2, d, f1, f2, alpha, beta, *coefficients)


class ScaledValue(NamedTuple):
    """Number represented as mantissa * exp(exponent) to dodge overflow."""

    mantissa: float
    exponent: float

    @property
    def log_abs(self) -> float:
        return math.log(abs(self.mantissa)) + self.exponent if self.mantissa else -math.inf

    def to_float(self) -> float:
        total = self.log_abs
        if total > 700.0:
            raise OverflowError(f"scaled value exp({total:.1f}) exceeds float range")
        return math.copysign(math.exp(total), self.mantissa)


def _airy_point(t: float, q: float):
    """eps = -ln q for 0 < q < 1, the saddle data at t and the exp-scaled
    Airy pair at x = alpha eps^(-2/3) with its log factor."""
    eps = _epsilon(q)
    sd = saddle_data(t)
    pair, log_factor = airy_scaled(sd.alpha * eps ** (-2.0 / 3.0))
    return eps, sd, pair, log_factor


def h_uniform(t: float, q: float, variant: Literal["H", "H_qt"] = "H") -> ScaledValue:
    """Leading uniform Airy approximation of H(t) or H(qt).

    Returns a (mantissa, exponent) pair since the exp(beta/eps) factor
    overflows doubles below eps ~ 4e-3. Accuracy improves as eps -> 0+;
    above eps = 0.2 the estimate is loose. A t outside ``saddle_data``'s
    [6.93889390390723e-17, 1/2) or any other variant is a domain error.
    """
    if variant not in ("H", "H_qt"):
        raise DomainError(f"variant must be 'H' or 'H_qt', got {variant!r}")
    eps, sd, pair, log_factor = _airy_point(t, q)
    if eps > 0.2:
        raise DomainError(f"h_uniform calibrated for eps in (0, 0.2], got eps = {eps:.4g}")
    p0, q0 = (sd.p0_h, sd.q0_h) if variant == "H" else (sd.p0_hqt, sd.q0_hqt)
    # the Airy decay goes into the exponent so the bracket never underflows
    exponent = _log_euler_function(eps) + sd.beta / eps + log_factor
    bracket = p0 * eps ** (1.0 / 3.0) * pair.ai - q0 * eps ** (2.0 / 3.0) * pair.ai_prime
    if bracket == 0.0:
        return ScaledValue(mantissa=0.0, exponent=exponent)
    shift = math.floor(math.log(abs(bracket)))
    return ScaledValue(mantissa=bracket / math.exp(shift), exponent=exponent + shift)


def g_uniform(t: float, q: float) -> float:
    """Uniform Airy-ratio approximation of G(t, q).

    The exponential prefactors of the two H expansions cancel exactly, so
    only the Airy brackets remain. Real poles of the denominator appear for
    t > 1/4 at discrete points; proximity raises a pole error. A t outside
    ``saddle_data``'s [6.93889390390723e-17, 1/2) is a domain error.
    """
    # the exponential factor of the Airy pair cancels in the ratio
    eps, sd, pair, _ = _airy_point(t, q)
    e13 = eps ** (1.0 / 3.0)
    numer = sd.p0_hqt * pair.ai - sd.q0_hqt * e13 * pair.ai_prime
    denom = sd.p0_h * pair.ai - sd.q0_h * e13 * pair.ai_prime
    scale = abs(sd.p0_h * pair.ai) + abs(sd.q0_h * e13 * pair.ai_prime)
    if abs(denom) < 1e-9 * max(scale, 1e-300):
        raise PoleProximityError(
            f"uniform-approximation denominator vanishes near t = {t!r} (pole of G)"
        )
    return numer / denom


def scaling_s(t: float, q: float) -> float:
    """Tricritical coordinate s = (1-4t)(1-q)^(-2/3) of (t, q), 0 < q < 1, t finite."""
    _epsilon(q)
    if not math.isfinite(t):
        raise DomainError(f"scaling_s needs a finite t, got {t!r}")
    return (1.0 - 4.0 * t) * (1.0 - q) ** (-2.0 / 3.0)


def scaling_t(s: float, q: float) -> float:
    """The t at tricritical coordinate s, t = (1 - s (1-q)^(2/3))/4, 0 < q < 1.

    Close to q = 1 the map rounds away the digits of s; a t whose coordinate
    misses s by more than 1e-8 relative is a domain error, as is a non-finite s.
    """
    _epsilon(q)
    if not math.isfinite(s):
        raise DomainError(f"scaling_t needs a finite s, got {s!r}")
    t = 0.25 * (1.0 - s * (1.0 - q) ** (2.0 / 3.0))
    back = scaling_s(t, q)
    if abs(back - s) > 1e-8 * max(1.0, abs(s)):
        raise DomainError(f"inconsistent scaling query: s = {s!r} but (t, q) give {back!r}")
    return t


def g_scaling(s: float, q: float) -> float:
    """Tricritical scaling law G ~ 2 (1 + (1-q)^(1/3) F(s)), 0 < q < 1."""
    _epsilon(q)
    return 2.0 * (1.0 + (1.0 - q) ** (1.0 / 3.0) * scaling_F(s))


# --------------------------------------------------------------------------
# Finite-size scaling of the fixed-area series
# --------------------------------------------------------------------------

# Tricritical amplitude 1/(2 t_c) = 2 carried by the singular part; folding
# it into phi makes m^(4/3) Q_m(t) / phi(s) -> 1 at fixed s.
PHI_AMPLITUDE = 2.0


def finite_size_phi(s: float) -> float:
    """Finite-size scaling function phi(s) = -2 * sum_j Z(j+1) s^j / Gamma(2j/3 - 1/3).

    Z(j+1) = -c_j, each correctly rounded, from ``_riccati_coefficient``. The
    sign -1 makes phi(0) positive, like the exact series Q_m(t) > 0 (Z(1) > 0,
    Gamma(-1/3) < 0); the 2 is the tricritical amplitude 1/(2 t_c). As every
    Airy zero has a_k <= a_1 < 0, |Z(i+2)| <= |Z(i+1)|/|a_1|; and as
    Gamma(x)/Gamma(x + 2/3) decreases for x > 0, for i >= 1 the terms obey
    |T_(i+1)/T_i| <= r_i = |s|/|a_1| Gamma(x_i)/Gamma(x_(i+1)), x_i = 2i/3 - 1/3,
    with r_i decreasing. The sum stops at the first j >= 2 with r_(j-1) <= 1/2
    and |T_j| <= 2^-54 |partial sum|: the dropped tail is below 2^-54 of the
    sum of the coefficients. The double sum's rounding is not in that bound,
    and phi multiplies it by up to 2^(bits lost). A sum certain to lose over
    10 bits (largest term above 2^10 times a bound on |sum|) is an accuracy
    error, which refuses s >~ 3.9. A term or power of s outside the double
    range is a domain error, and a sum still running at j = 257, the last
    finite Gamma(x_j), does not converge.
    """
    scale = abs(s) / abs(airy_zeros(1)[0])
    gamma = math.gamma(-1.0 / 3.0)
    total = -_riccati_coefficient(0) / gamma
    peak = abs(total)
    for j in range(1, 258):
        previous, gamma = gamma, math.gamma(2.0 * j / 3.0 - 1.0 / 3.0)
        try:
            term = -_riccati_coefficient(j) / gamma * s**j
        except OverflowError:
            term = math.inf
        total += term
        if not math.isfinite(total):
            raise DomainError(f"term {j} of the finite-size series at s = {s!r} leaves the double range")
        peak = max(peak, abs(term))
        # r_(j-1) bounds every later term ratio, so |sum| <= |total| + |term| ratio/(1 - ratio)
        ratio = scale * previous / gamma if j > 1 else math.inf
        if ratio < 1.0 and peak > 2.0**10 * (abs(total) + abs(term) * ratio / (1.0 - ratio)):
            raise AccuracyError(f"the finite-size series at s = {s!r} loses over 10 bits to cancellation")
        if ratio <= 0.5 and abs(term) <= 2.0**-54 * abs(total):
            return -PHI_AMPLITUDE * total
    raise NonConvergenceError(f"finite-size series at s = {s!r} not converged by j = 257", last_term=abs(term))


def _finite_size_s(t: float, m: int) -> float:
    """Finite-size coordinate s = (1-4t) m^(2/3) of the area-m coefficient."""
    return (1.0 - 4.0 * t) * m ** (2.0 / 3.0)


def q_m_asymptotic(m: int, t: float) -> float:
    """Large-m form of the fixed-area series, m^(-4/3) phi((1-4t) m^(2/3)).
    phi stops on its certified tail and refuses a cancelling sum."""
    if m < 10:
        raise DomainError("the finite-size form needs m >= 10")
    return m ** (-4.0 / 3.0) * finite_size_phi(_finite_size_s(t, m))

