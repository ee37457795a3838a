"""Oracles for the tests, independent of the package.

Everything here is computed with mpmath from closed forms and exact
recurrences. The module imports neither ``dyckarea`` nor pytest, so a
reference builder outside the test suite can import it as well.

    riccati_coefficients(count)  c_0 .. c_(count-1) of F = Ai'/Ai at 700 bits
    nearest_double(x)            the correctly rounded double of an mpf
    phi_exact(s)                 the finite-size scaling function at 80 digits
"""

from __future__ import annotations

from functools import lru_cache

import mpmath

RICCATI_BITS = 700
PHI_DIGITS = 80


@lru_cache(maxsize=None)
def riccati_coefficients(count: int) -> tuple:
    """c_0 .. c_(count-1) of F(s) = Ai'(s)/Ai(s) = sum_k c_k s^k, at 700 bits.

    F' = s - F^2 gives c_0 = Ai'(0)/Ai(0) and (k+1) c_(k+1) = [k = 1] -
    sum_(i<=k) c_i c_(k-i); every product has one sign, so the recurrence
    loses nothing. Z(k+1) = -c_k for every k >= 0, and -c_1 = A0^2.
    """
    with mpmath.workprec(RICCATI_BITS):
        c = [mpmath.airyai(0, 1) / mpmath.airyai(0)]
        for k in range(count - 1):
            c.append((int(k == 1) - mpmath.fsum(c[i] * c[k - i] for i in range(k + 1))) / (k + 1))
    return tuple(c)


def nearest_double(x) -> float:
    """The double nearest the mpf x, ties to even (int / int is correctly rounded)."""
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    value = float(man << exp) if exp >= 0 else man / (1 << -exp)
    return -value if sign else value


@lru_cache(maxsize=None)
def _phi_weights(count: int) -> tuple:
    """2 c_j / Gamma(2j/3 - 1/3) for j < count, at 80 digits."""
    c = riccati_coefficients(count)
    with mpmath.workdps(PHI_DIGITS):
        return tuple(2 * c[j] / mpmath.gamma(mpmath.mpf(2 * j - 1) / 3) for j in range(count))


def phi_exact(s: float, count: int = 400):
    """phi(s) = 2 sum_j c_j s^j / Gamma(2j/3 - 1/3) = -2 sum_j Z(j+1) s^j / Gamma(...),
    at 80 digits, summed until two terms in a row are below 10^-90 of the sum.
    Past the largest term they fall for good, as 2.338^-j / Gamma(2j/3 - 1/3)
    outruns |s|^j; a sum not done in ``count`` terms raises."""
    weights = _phi_weights(count)
    with mpmath.workdps(PHI_DIGITS):
        s = mpmath.mpf(s)
        total, small, power = mpmath.mpf(0), 0, mpmath.mpf(1)
        for w in weights:
            term = w * power
            total += term
            small = small + 1 if abs(term) <= mpmath.mpf(10) ** -90 * abs(total) else 0
            if small == 2:
                return total
            power *= s
    raise ArithmeticError(f"phi_exact({s}) not converged in {count} terms")
