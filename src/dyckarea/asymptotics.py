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
    BranchCutError,
    DomainError,
    InconsistentBranchError,
    NonConvergenceError,
    PoleProximityError,
)
from .qseries import EvalSettings, g_cfrac
from .special_functions import (
    airy_scaled,
    airy_zeta,
    dilog,
    scaling_F,
)

__all__ = [
    "SaddleData",
    "ScalingQuery",
    "ScaledValue",
    "phase_f",
    "saddle_data",
    "h_uniform",
    "g_uniform",
    "g_scaling",
    "g_singular",
    "finite_size_phi",
    "q_m_asymptotic",
    "PHI_AMPLITUDE",
]


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
    if abs(d) < 1e-14:
        f0 = phase_f(0.5, 0.25)
        beta = f0.real
        p0_h, q0_h = _coefficients(z1, z2, 0.0, 0.0, 1.5)
        p0_hqt, q0_hqt = _coefficients(z1, z2, 0.0, 0.0, 0.5)
        return SaddleData(
            t=t, z1=0.5 + 0.0j, z2=0.5 + 0.0j, d=0.0, f1=f0, f2=f0,
            alpha=0.0, beta=beta, p0_h=p0_h, q0_h=q0_h,
            p0_hqt=p0_hqt, q0_hqt=q0_hqt,
        )
    f1 = phase_f(z1, t)
    f2 = phase_f(z2, t)
    beta = 0.5 * (f1 + f2).real
    diff = f2 - f1
    if d > 0.0:
        if diff.real <= 0.0:
            raise InconsistentBranchError(
                f"f(z2)-f(z1) = {diff!r} not positive for t = {t!r} < 1/4"
            )
        alpha = (0.75 * diff.real) ** (2.0 / 3.0)
    else:
        alpha = -((0.75 * abs(diff)) ** (2.0 / 3.0))
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


def _log_euler_function(eps: float) -> float:
    """log (q; q)_inf at q = exp(-eps) by the Dedekind eta transformation
    (DLMF 23.15): eps/24 - pi^2/(6 eps) + log(2 pi/eps)/2 + log (p; p)_inf
    with p = exp(-4 pi^2/eps). The last term, about -p, is below 1e-85 for
    eps <= 0.2 and is dropped.
    """
    return eps / 24.0 - math.pi**2 / (6.0 * eps) + 0.5 * math.log(2.0 * math.pi / eps)


def h_uniform(t: float, q: float, variant: Literal["H", "H_qt"] = "H") -> ScaledValue:
    """Leading uniform Airy approximation of H(t) or H(qt).

    Returns a (mantissa, exponent) pair since the exp(beta/eps) factor
    overflows doubles below eps ~ 4e-3. Accuracy improves as eps -> 0+;
    above eps = 0.2 the estimate is loose.
    """
    eps = -math.log(q)
    if not (0.0 < eps <= 0.2):
        raise DomainError(f"h_uniform calibrated for eps in (0, 0.2], got eps = {eps:.4g}")
    sd = saddle_data(t)
    if sd.d > 0.0 and sd.alpha * sd.d <= 0.0 and sd.alpha != 0.0:
        raise InconsistentBranchError("alpha*d must be positive for t < 1/4")
    p0, q0 = (sd.p0_h, sd.q0_h) if variant == "H" else (sd.p0_hqt, sd.q0_hqt)
    x = sd.alpha * eps ** (-2.0 / 3.0)
    log_poch = _log_euler_function(eps)
    # the Airy decay goes into the exponent so the bracket never underflows
    pair, log_factor = airy_scaled(x)
    exponent = log_poch + sd.beta / eps + log_factor
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
    eps = -math.log(q)
    if eps <= 0.0:
        raise DomainError("q must lie in (0, 1)")
    sd = saddle_data(t)
    x = sd.alpha * eps ** (-2.0 / 3.0)
    # the exponential factor of the Airy pair cancels in the ratio
    pair, _ = airy_scaled(x)
    e13 = eps ** (1.0 / 3.0)
    numer = sd.p0_hqt * pair.ai - sd.q0_hqt * e13 * pair.ai_prime
    denom = sd.p0_h * pair.ai - sd.q0_h * e13 * pair.ai_prime
    scale = abs(sd.p0_h * pair.ai) + abs(sd.q0_h * e13 * pair.ai_prime)
    if abs(denom) < 1e-9 * max(scale, 1e-300):
        raise PoleProximityError(
            f"uniform-approximation denominator vanishes near t = {t!r} (pole of G)"
        )
    return numer / denom


def _check_nome(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q!r}")


@dataclass(frozen=True)
class ScalingQuery:
    """Consistent tricritical coordinates s = (1-4t)(1-q)^(-2/3), 0 < q < 1."""

    s: float
    epsilon: float
    t: float
    q: float

    def __post_init__(self):
        _check_nome(self.q)
        recon = (1.0 - 4.0 * self.t) * (1.0 - self.q) ** (-2.0 / 3.0)
        if abs(recon - self.s) > 1e-8 * max(1.0, abs(self.s)):
            raise DomainError(
                f"inconsistent scaling query: s = {self.s!r} but (t, q) give {recon!r}"
            )
        if abs(self.epsilon + math.log(self.q)) > 1e-12 * max(1.0, self.epsilon):
            raise DomainError("epsilon inconsistent with q")

    @classmethod
    def from_s_eps(cls, s: float, epsilon: float) -> "ScalingQuery":
        if not epsilon > 0.0:
            raise DomainError(f"epsilon must be positive, got {epsilon!r}")
        q = math.exp(-epsilon)
        t = 0.25 * (1.0 - s * (1.0 - q) ** (2.0 / 3.0))
        return cls(s=s, epsilon=epsilon, t=t, q=q)

    @classmethod
    def from_t_q(cls, t: float, q: float) -> "ScalingQuery":
        _check_nome(q)
        s = (1.0 - 4.0 * t) * (1.0 - q) ** (-2.0 / 3.0)
        return cls(s=s, epsilon=-math.log(q), t=t, q=q)


def g_scaling(query: ScalingQuery) -> float:
    """Tricritical scaling law G ~ 2 (1 + (1-q)^(1/3) F(s))."""
    return 2.0 * (1.0 + (1.0 - query.q) ** (1.0 / 3.0) * scaling_F(query.s))


def g_singular(t: float, q: float, method: Literal["exact", "asymptotic"] = "exact",
               settings: EvalSettings | None = None) -> float:
    """Singular part G(t, q) - 1/(2t), exactly or in scaling approximation.

    Both tend to -sqrt(1-4t)/(2t) as q -> 1 for fixed t <= 1/4, uniformly
    on closed subintervals.
    """
    if t <= 0.0:
        raise DomainError("t must be positive")
    if method == "exact":
        if settings is None:
            settings = EvalSettings(q=q)
        return g_cfrac(t, settings) - 1.0 / (2.0 * t)
    if method == "asymptotic":
        s = (1.0 - 4.0 * t) * (1.0 - q) ** (-2.0 / 3.0)
        return (1.0 - q) ** (1.0 / 3.0) * scaling_F(s) / (2.0 * t)
    raise DomainError(f"unknown method {method!r}")


# --------------------------------------------------------------------------
# Finite-size scaling of the fixed-area series
# --------------------------------------------------------------------------

# Tricritical amplitude 1/(2 t_c) = 2 carried by the singular part; folding
# it into phi makes m^(4/3) Q_m(t) / phi(s) -> 1 at fixed s.
PHI_AMPLITUDE = 2.0


def finite_size_phi(s: float, j_max: int = 24, tol: float = 1e-6,
                    full_output: bool = False):
    """Finite-size scaling function phi(s) = -2 * sum_j Z(j+1) s^j / Gamma(2j/3 - 1/3).

    The Gamma growth makes the series entire; truncation at j_max is
    checked against the last term. The global sign is -1: the exact
    fixed-area series Q_m(t) is a sum of positive terms, and the s = 0
    term Z(1)/Gamma(-1/3) is negative (Z(1) > 0, Gamma(-1/3) < 0), so only
    -1 makes phi positive there. The factor 2 is the tricritical
    amplitude 1/(2 t_c) of the singular part.
    """
    if j_max < 10:
        raise DomainError("j_max must be >= 10")
    total = 0.0
    last = 0.0
    for j in range(j_max + 1):
        last = airy_zeta(j + 1) / math.gamma(2.0 * j / 3.0 - 1.0 / 3.0) * s**j
        total += last
    value = -PHI_AMPLITUDE * total
    if abs(last) > tol * max(abs(total), 1e-300):
        raise NonConvergenceError(
            f"finite-size series not converged at j_max = {j_max}",
            last_term=abs(last),
        )
    if full_output:
        return value, abs(last) * PHI_AMPLITUDE
    return value


def q_m_asymptotic(m: int, t: float, j_max: int = 24) -> float:
    """Large-m form of the fixed-area series, m^(-4/3) phi((1-4t) m^(2/3))."""
    if m < 10:
        raise DomainError("the finite-size form needs m >= 10")
    s = (1.0 - 4.0 * t) * m ** (2.0 / 3.0)
    return m ** (-4.0 / 3.0) * finite_size_phi(s, j_max=j_max)

