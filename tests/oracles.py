"""Oracles for the tests, independent of the package, each defined here once.

Everything here is computed with mpmath from closed forms and exact
recurrences. The module imports only the standard library and mpmath,
neither ``dyckarea`` nor pytest, so a reference builder outside the test
suite can import it as well."""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath

H_BITS = 2000
AIRY_BITS = 300
RICCATI_BITS = 700
PHI_DIGITS = 80


def exact_qt(q, t):
    """The product q t without rounding: two doubles multiply exactly in 106 bits."""
    return mpmath.fmul(q, t, prec=H_BITS)


def _h_terms(t, q, scaled=False):
    """Yield (T_k, settled) for k = 0, 1, ... at the working precision, where
    H(t) = sum_k T_k, T_k = (-t)^k q^(k^2-k) / (q; q)_k; with ``scaled`` the
    terms are T_k q^k, those of H(qt). ``settled`` says that every later ratio
    |T_(j+1) / T_j| = |t| q^(2j) / (1 - q^(j+1)) is at most 1/2, so the terms
    past T_k add up to at most |T_k|."""
    q_mp, neg_t = mpmath.mpf(q), -mpmath.mpmathify(t)
    term, q_k = mpmath.mpf(1), mpmath.mpf(1)
    while True:  # q_k = q^k
        yield term, abs(t) * q_k * q_k <= (1 - q_k * q_mp) / 2
        term *= neg_t * q_k * q_k * (q_mp if scaled else 1) / (1 - q_k * q_mp)
        q_k *= q_mp


def h(t, q, prec=H_BITS):
    """H(t) by direct summation in mpmath, independent of ``qseries``.

    The sum stops at a settled term below 2^-120 of it, which leaves a tail
    below that. The precision doubles until 200 bits survive the cancellation.
    """
    while True:
        with mpmath.workprec(prec):
            total, peak = mpmath.mpf(0), mpmath.mpf(1)
            for term, settled in _h_terms(t, q):
                total += term
                peak = max(peak, abs(term))
                if settled and abs(term) <= abs(total) * mpmath.mpf(2) ** -120:
                    break
            if prec - mpmath.log(peak / abs(total), 2) >= 200:
                return total
        prec *= 2


def h_tail(t, q, n, scaled):
    """The sum of the terms of H(t) past T_n, or with ``scaled`` of the terms
    T_k q^k of H(qt), stopped at the first settled term below 2^-80 of it; the
    terms are products, so 2000 bits keep them to far below that."""
    with mpmath.workprec(H_BITS):
        tail = mpmath.mpf(0)
        for k, (term, settled) in enumerate(_h_terms(t, q, scaled)):
            if k > n:
                tail += term
                if settled and abs(term) <= abs(tail) * mpmath.mpf(2) ** -80:
                    return tail


def g_exact(t, q):
    """G(t, q) = H(qt)/H(t) at the exact product qt, summed twice, the second
    pass 500 bits wider; a pair further apart than 2^-150 relative raises."""
    qt = exact_qt(q, t)
    sums = [(h(qt, q, prec), h(t, q, prec)) for prec in (H_BITS, H_BITS + 500)]
    with mpmath.workprec(H_BITS):
        first, wider = (hq / ht for hq, ht in sums)
        if abs(wider - first) > mpmath.ldexp(abs(wider), -150):
            raise ArithmeticError(f"g_exact({t!r}, {q!r}): two precisions differ by {wider / first - 1}")
        return wider


def pole_line(q, rtol=1e-15):
    """The first zero of H(t) past t = 1/4, for 0 < q < 1, as a double.

    The zeros of H lie about eps^(2/3) apart, eps = -ln q: a march up from 1/4
    in steps of eps^(2/3)/16 steps over none of them, where a bisection of
    [1/4, 1] may land on a later zero. The first step whose end has H <= 0
    brackets the first zero, bisected to ``rtol`` relative or to adjacent doubles.
    """
    step = (-math.log(q)) ** (2 / 3) / 16
    lo = 0.25
    while h(lo + step, q) > 0:
        lo += step
    hi = lo + step
    while hi - lo > rtol * lo and lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if h(mid, q) > 0 else (lo, mid)
    return (lo + hi) / 2


def _level_maps(t, q):
    """x_K = t q^K and the Moebius map P = [[a, b], [c, d]] that levels 0 .. K-1
    of the continued fraction compose to, for K = 1, 2, ..., in mpmath at the
    working precision and the exact double q."""
    t, q = mpmath.mpf(t), mpmath.mpf(q)
    a, b, c, d = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
    x = t
    while True:
        a, b, c, d = -b * x, a + b, -d * x, c + d  # P M(x), M(x) = [[0, 1], [-x, 1]]
        x *= q
        yield x, (a, b, c, d)


def _enclosure(t, x, p):
    """The interval that P maps the tail's enclosure to, G(x, q) in [1, C(x)]
    for 0 < x <= 1/4 (C the Catalan generating function) or in [0, 1] for
    t <= 0; None while x > 1/4 or a pole of P lies between the two ends."""
    if x > 0.25:
        return None
    a, b, c, d = p
    ends = (0, 1) if t <= 0 else (1, 2 / (1 + mpmath.sqrt(1 - 4 * x)))
    dens = [c * g + d for g in ends]
    if dens[0] * dens[1] <= 0:
        return None
    return [(a * g + b) / den for g, den in zip(ends, dens)]


def cfrac(t, q, bits=200, width=1e-20):
    """G(t, q) from a ``bits``-bit continued fraction at the exact double q,
    cut where its tail enclosure closes: K grows in steps of 16 until
    ``_enclosure`` is narrower than ``width`` relative to G."""
    with mpmath.workprec(bits):
        for depth, (x, p) in enumerate(_level_maps(t, q), 1):
            ends = None if depth % 16 else _enclosure(t, x, p)
            if ends and abs(ends[1] - ends[0]) < width * abs(ends[0]):
                return (ends[0] + ends[1]) / 2


def log_q_pochhammer_sum(z, q, n) -> complex:
    """The sum of the principal logs of 1 - z q^k for k < n, at 30 digits."""
    with mpmath.workdps(30):
        return complex(mpmath.fsum(mpmath.log(1 - mpmath.mpc(z) * mpmath.mpf(q) ** k) for k in range(n)))


def log_q_pochhammer_product(z, q, n, near) -> complex:
    """The log of the 200-bit product of the factors 1 - z q^k, k < n, on
    the branch nearest ``near``. For n = None the product stops once
    |w| = |z q^K| < 2^-40 and the rest enters as its first-order log
    -w / (1 - q), off by under |w|^2 / (2 (1 - q^2)) < 2^-72 at q <= 0.999."""
    with mpmath.workprec(200):
        w, q_mp, product, k = mpmath.mpc(z), mpmath.mpf(q), mpmath.mpc(1), 0
        while k < n if n is not None else abs(w) >= mpmath.mpf(2) ** -40:
            product, w, k = product * (1 - w), w * q_mp, k + 1
        log = mpmath.log(product) - (w / (1 - q_mp) if n is None else 0)
        turns = round((near.imag - float(log.imag)) / (2 * math.pi))
        return complex(log + 2j * mpmath.pi * turns)


def airy(x):
    """Ai(x) and Ai'(x) as mpf at 300 bits."""
    with mpmath.workprec(AIRY_BITS):
        return mpmath.airyai(x), mpmath.airyai(x, derivative=1)


def airy_origin(frac: int) -> tuple[int, int]:
    """Ai(0) and Ai'(0) rounded to integers in units of 2^-frac."""
    with mpmath.workprec(AIRY_BITS):
        return tuple(int(mpmath.nint(mpmath.ldexp(v, frac))) for v in airy(0))


def airy_zero(k: int, derivative: int = 0):
    """The k-th zero of Ai (or of Ai' with ``derivative`` 1) as an mpf at 30 digits."""
    with mpmath.workdps(30):
        return mpmath.airyaizero(k, derivative=derivative)


def dilog(z):
    """Li2(z) = -int_0^1 log(1 - u z)/u du, the integral of -log(1 - s)/s along
    the segment [0, z], by mpmath quadrature at 30 digits, as an mpc; z off
    the cut [1, inf)."""
    with mpmath.workdps(30):
        z = mpmath.mpc(z)
        return -mpmath.quad(lambda u: mpmath.log(1 - u * z) / u, [0, 1])


def airy_zero_neighbours() -> list[float]:
    """The doubles nearest the zeros of Ai and Ai' in [-7.8, 0] (the 5th of Ai
    is -7.94) and one on either side: the largest losses of any double."""
    xs = [float(airy_zero(k, d)) for d in (0, 1) for k in range(1, 5 + d)]
    return xs + [math.nextafter(x, d) for x in xs for d in (-math.inf, math.inf)]


def saddle(t, alpha=None) -> list[float]:
    """alpha, p0_h, q0_h, p0_hqt, q0_hqt at 60 digits from the saddle-point
    definitions, with z1^p and z2^p continued through the upper half t-plane
    past 1/4. A given (double) alpha replaces the 60-digit one, so that the
    coefficients are checked apart from alpha's error."""
    with mpmath.workdps(60):
        t = mpmath.mpf(t)
        d = 1 - 4 * t
        z1, z2 = (1 + mpmath.sqrt(d)) / 2, (1 - mpmath.sqrt(d)) / 2  # z1 upper past 1/4

        def f(z):
            return mpmath.log(t) * mpmath.log(z) + mpmath.polylog(2, z) - mpmath.log(z) ** 2 / 2

        if alpha is None:
            alpha = mpmath.sign(d) * (0.75 * abs(f(z2) - f(z1))) ** (mpmath.mpf(2) / 3)
        alpha = mpmath.mpf(alpha)
        match = 1 / mpmath.sqrt(2)
        out = [alpha]
        for p in (mpmath.mpf(3) / 2, mpmath.mpf(1) / 2):
            plus, minus = z1**p + z2**p, z1**p - z2**p
            if d < 0:
                plus, minus = 2 * mpmath.re(z1**p), 2 * mpmath.im(z1**p)
            out += [(alpha / d) ** 0.25 * mpmath.re(plus) * match,
                    mpmath.re(minus) / (alpha * d) ** 0.25 * match]
        return [float(x) for x in out]


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
