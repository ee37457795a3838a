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

where d = 1 - 4t and p = 3/2 for H(t), p = 1/2 for H(qt). For real
t > 1/4 all branch powers are continued through the upper half t-plane,
which keeps a real (negative) and the coefficients real; the continued
q0 is 2 (a d)^(-1/4) Im(z1^p) with z1 the upper saddle.

Ratios of the two variants give the uniform approximation of G and, in
the tricritical scaling limit s = (1-4t)(1-q)^(-2/3) fixed, the scaling
law G ~ 2 (1 + (1-q)^(1/3) F(s)) with F = Ai'/Ai. The fixed-area series
coefficients inherit the finite-size law Q_m(t) ~ m^(-4/3) phi(s) at
s = (1-4t) m^(2/3).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .errors import (
    DomainError,
    InconsistentBranchError,
    NonConvergenceError,
    PoleProximityError,
)
from .qseries import EvalSettings, _log_euler_function, g_cfrac, phase_f
from .special_functions import airy_scaled, airy_zeta, scaling_F

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
    "g_singular",
    "finite_size_phi",
    "q_m_asymptotic",
    "PHI_AMPLITUDE",
]


@dataclass(frozen=True)
class SaddleData:
    """Saddle points and uniform-expansion coefficients at one t.

    ``alpha`` is real on (0, 1/2) with sign(alpha) = sign(1 - 4t); ``beta``
    equals (f(z1) + f(z2))/2 = ln(t)^2/4 + pi^2/12. The p0/q0 pairs are the
    branch-continued (real) leading coefficients for the H(t) and H(qt)
    expansions.
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


def _coefficients(z1: complex, z2: complex, alpha: float, d: float, p: float):
    """Branch-continued leading coefficients for saddle-power p.

    Matching the cubic normal form at the saddles gives
    p0 +- sqrt(a) q0 = g(z_i) sqrt(+-2 sqrt(a)/f''(z_i)), which closes to
    p0 = (a/d)^(1/4) (z1^p + z2^p)/sqrt(2) and the analogous q0. The
    1/sqrt(2) is essential: without it the uniform expansion of H tends to
    sqrt(2) times the true series value (verified against the exact sum).
    """
    if alpha == 0.0:
        # coalescent limits: z1 = z2 = 1/2 and alpha ~ d, so
        # (a d)^(-1/4) (z1^p - z2^p) -> p (1/2)^(p-1)
        p0 = 2.0 * 0.5**p * _MATCH
        q0 = p * 0.5 ** (p - 1.0) * _MATCH
        return p0, q0
    ratio = alpha / d  # positive on both sides of the coalescence
    quarter = ratio**0.25
    if d > 0.0:
        p0 = quarter * (z1**p + z2**p).real * _MATCH
        q0 = (z1**p - z2**p).real / (alpha * d) ** 0.25 * _MATCH
    else:
        # t > 1/4: continue through the upper half t-plane; z1 is the
        # upper saddle and the continued q0 picks up 2 Im(z1^p).
        p0 = quarter * 2.0 * (z1**p).real * _MATCH
        q0 = 2.0 * (z1**p).imag / (alpha * d) ** 0.25 * _MATCH
    return p0, q0


def saddle_data(t: float) -> SaddleData:
    """Saddle points, cubic-normal-form parameters and leading coefficients.

    Valid for t in (0, 1/2); the asymptotic formulas are untested outside.
    At t = 1/4 the coalescent limit (alpha = 0, z1 = z2 = 1/2) is returned.
    """
    t = float(t)
    if not (0.0 < t < 0.5):
        raise DomainError(f"saddle_data requires t in (0, 1/2), got {t!r}")
    d = 1.0 - 4.0 * t
    root = cmath.sqrt(complex(d))
    z1 = 0.5 * (1.0 + root)
    z2 = 0.5 * (1.0 - root)
    if abs(d) < 1e-14:  # the coalescent limit
        z1 = z2 = 0.5 + 0.0j
        d = alpha = 0.0
        f1 = f2 = phase_f(0.5, 0.25)
    else:
        f1 = phase_f(z1, t)
        f2 = phase_f(z2, t)
        diff = f2 - f1
        if d > 0.0:
            if diff.real <= 0.0:
                raise InconsistentBranchError(
                    f"f(z2)-f(z1) = {diff!r} not positive for t = {t!r} < 1/4"
                )
            alpha = (0.75 * diff.real) ** (2.0 / 3.0)
        else:
            alpha = -((0.75 * abs(diff)) ** (2.0 / 3.0))
    beta = 0.5 * (f1 + f2).real
    p0_h, q0_h = _coefficients(z1, z2, alpha, d, 1.5)
    p0_hqt, q0_hqt = _coefficients(z1, z2, alpha, d, 0.5)
    return SaddleData(
        t=t, z1=z1, z2=z2, d=d, f1=f1, f2=f2, alpha=alpha, beta=beta,
        p0_h=p0_h, q0_h=q0_h, p0_hqt=p0_hqt, q0_hqt=q0_hqt,
    )


class ScaledValue(NamedTuple):
    """Number represented as mantissa * exp(exponent) to dodge overflow."""

    mantissa: float
    exponent: float

    @property
    def log_abs(self) -> float:
        return math.log(abs(self.mantissa)) + self.exponent

    def to_float(self) -> float:
        total = self.log_abs
        if total > 700.0:
            raise OverflowError(f"scaled value exp({total:.1f}) exceeds float range")
        return math.copysign(math.exp(total), self.mantissa)


def _airy_point(t: float, q: float):
    """eps = -ln q for 0 < q < 1, the saddle data at t and the exp-scaled
    Airy pair at x = alpha eps^(-2/3) with its log factor."""
    eps = EvalSettings(q=q).epsilon
    sd = saddle_data(t)
    pair, log_factor = airy_scaled(sd.alpha * eps ** (-2.0 / 3.0))
    return eps, sd, pair, log_factor


def h_uniform(t: float, q: float, variant: Literal["H", "H_qt"] = "H") -> ScaledValue:
    """Leading uniform Airy approximation of H(t) or H(qt).

    Returns a (mantissa, exponent) pair since the exp(beta/eps) factor
    overflows doubles below eps ~ 4e-3. Accuracy improves as eps -> 0+;
    above eps = 0.2 the estimate is loose.
    """
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
    t > 1/4 at discrete points; proximity raises a pole error.
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
    """Tricritical coordinate s = (1-4t)(1-q)^(-2/3) of (t, q), 0 < q < 1."""
    EvalSettings(q=q)
    return (1.0 - 4.0 * t) * (1.0 - q) ** (-2.0 / 3.0)


def scaling_t(s: float, q: float) -> float:
    """The t at tricritical coordinate s, t = (1 - s (1-q)^(2/3))/4, 0 < q < 1.

    Close to q = 1 the map rounds away the digits of s; a t whose coordinate
    misses s by more than 1e-8 relative is a domain error.
    """
    EvalSettings(q=q)
    t = 0.25 * (1.0 - s * (1.0 - q) ** (2.0 / 3.0))
    back = scaling_s(t, q)
    if abs(back - s) > 1e-8 * max(1.0, abs(s)):
        raise DomainError(f"inconsistent scaling query: s = {s!r} but (t, q) give {back!r}")
    return t


def g_scaling(s: float, q: float) -> float:
    """Tricritical scaling law G ~ 2 (1 + (1-q)^(1/3) F(s)), 0 < q < 1."""
    EvalSettings(q=q)
    return 2.0 * (1.0 + (1.0 - q) ** (1.0 / 3.0) * scaling_F(s))


def g_singular(t: float, q: float, method: Literal["exact", "asymptotic"] = "exact") -> float:
    """Singular part G(t, q) - 1/(2t), exactly or in scaling approximation.

    Both tend to -sqrt(1-4t)/(2t) as q -> 1 for fixed t <= 1/4, uniformly
    on closed subintervals.
    """
    if t <= 0.0:
        raise DomainError("t must be positive")
    if method == "exact":
        return g_cfrac(t, EvalSettings(q=q)) - 1.0 / (2.0 * t)
    if method == "asymptotic":
        return (1.0 - q) ** (1.0 / 3.0) * scaling_F(scaling_s(t, q)) / (2.0 * t)
    raise DomainError(f"unknown method {method!r}")


# --------------------------------------------------------------------------
# Finite-size scaling of the fixed-area series
# --------------------------------------------------------------------------

# Tricritical amplitude 1/(2 t_c) = 2 carried by the singular part; folding
# it into phi makes m^(4/3) Q_m(t) / phi(s) -> 1 at fixed s.
PHI_AMPLITUDE = 2.0


def finite_size_phi(s: float, j_max: int = 24) -> float:
    """Finite-size scaling function phi(s) = -2 * sum_j Z(j+1) s^j / Gamma(2j/3 - 1/3).

    The Gamma growth makes the series entire; truncation at j_max is
    checked against the last term, which must stay below 1e-6 of the sum.
    The global sign is -1: the exact fixed-area series Q_m(t) is a sum of
    positive terms, and the s = 0 term Z(1)/Gamma(-1/3) is negative
    (Z(1) > 0, Gamma(-1/3) < 0), so only -1 makes phi positive there. The
    factor 2 is the tricritical amplitude 1/(2 t_c) of the singular part. A Gamma factor past the double
    range (from j = 258 on) makes Z(j+1)/Gamma 0.0, its correctly rounded
    value, as |Z(j+1)| < 3e-96 there; a term, its power of s or the sum
    outside the double range is a domain error.
    """
    if j_max < 10:
        raise DomainError("j_max must be >= 10")
    total = last = 0.0
    for j in range(j_max + 1):
        try:
            gamma = math.gamma(2.0 * j / 3.0 - 1.0 / 3.0)
        except OverflowError:
            gamma = math.inf
        try:
            last = airy_zeta(j + 1) / gamma * s**j
        except OverflowError:
            last = math.inf
        total += last
        if not math.isfinite(total):
            raise DomainError(f"term {j} of the finite-size series at s = {s!r} leaves the double range")
    if abs(last) > 1e-6 * max(abs(total), 1e-300):
        raise NonConvergenceError(
            f"finite-size series not converged at j_max = {j_max}",
            last_term=abs(last),
        )
    return -PHI_AMPLITUDE * total


def _finite_size_s(t: float, m: int) -> float:
    """Finite-size coordinate s = (1-4t) m^(2/3) of the area-m coefficient."""
    return (1.0 - 4.0 * t) * m ** (2.0 / 3.0)


def q_m_asymptotic(m: int, t: float, j_max: int = 24) -> float:
    """Large-m form of the fixed-area series, m^(-4/3) phi((1-4t) m^(2/3))."""
    if m < 10:
        raise DomainError("the finite-size form needs m >= 10")
    return m ** (-4.0 / 3.0) * finite_size_phi(_finite_size_s(t, m), j_max=j_max)

