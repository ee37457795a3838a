"""Exact integer enumeration of Dyck paths by semilength and area.

A path of semilength n is a staircase walk of 2n steps that returns to the
diagonal without crossing it; its area is the number of complete unit
squares between the walk and the diagonal (the triangle half-cells do not
count). The row polynomial for semilength n collects the counts c[m][n] of
paths with area m; this table is the ground truth every other module is
validated against.

All coefficients are arbitrary-precision integers (Catalan growth passes
2^63 near n = 35). The table is built by a height dynamic programme over
the 2n steps of the walk: the area equals the sum, over up-steps, of the
height before the step (the Carlitz-Riordan statistic), so each state only
needs its height and its area so far; the pass packs each polynomial into
one integer, divided by q^(h(h-1)/2), the least area at height h. Only a
down-step from h+1 shifts it, by h digits, and needs no mask: under an area
cap m height h keeps digits 0..m - h(h-1)/2, which is where those of h+1,
shifted by h, end. The table holds its rows as tuples of counts. Splitting
a nonempty path at its first return to the diagonal gives the identity

    Z[n+1] = sum_{k=0..n} q^k * Z[k] * Z[n-k]

(the inner factor of the leading arch sits one level higher, which adds one
full square per unit of its length, hence the q^k elevation factor); the
tests check the table against it, and the length series is summed from it
in doubles. The independent exhaustive enumerator below is the arbiter
for the area convention.

The same split bounds the fixed-area series Q_m(t) = sum_n c[m][n] t^n.
A path is a sequence of arches; a UD arch has area 0, and an arch U P D
with P of semilength k has area k + area(P) >= k. A path of area m thus
has at most m arches of positive area, each of semilength at most m + 1,
with runs of UD arches (each a factor 1/(1-t)) around them. Over a common
denominator, Q_m(t) = N_m(t) / (1-t)^(m+1) with N_m an integer polynomial
of degree at most 2m, fixed by c[m][0..2m]: no row past 2m is ever read.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

from .errors import DivergenceError, DomainError, ResourceLimitError

__all__ = [
    "AreaPolynomial",
    "CoefficientTable",
    "area_columns",
    "build_area_polynomials",
    "brute_force_area_polynomial",
    "partition_series",
    "eval_G_truncated",
    "catalan_number",
    "table_to_csv",
    "table_to_json",
]

# CPU time on 2 cores, Python 3.11, with digits sized by the count bounds
# (the table and columns: one cold call a process, max RSS from getrusage):
_BRUTE_FORCE_CAP = 14  # n = 14 counts its 2 674 440 paths one by one in 0.09 s
_TABLE_CAP_FULL = 200  # n = 200 builds its decoded rows in 2.3 s, 202 MB max RSS
_COLUMNS_CAP = 640  # the columns to area 640 build in 1.9 s, 36 MB max RSS
_SERIES_CAP = 10_000  # N(N+1)/2 products: N = 10 000 sums the length series in 1.1-1.2 s


def catalan_number(n: int) -> int:
    """The n-th Catalan number, binomial(2n, n) / (n + 1)."""
    return math.comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class AreaPolynomial:
    """Coefficients of one fixed-length row: coeffs[m] counts paths of area m."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        expected = self.n * (self.n - 1) // 2 + 1
        if len(self.coeffs) != expected:
            raise DomainError(
                f"row {self.n} must have {expected} coefficients, got {len(self.coeffs)}"
            )

    def total(self) -> int:
        """Number of paths of semilength n (a Catalan number)."""
        return sum(self.coeffs)


@dataclass(frozen=True)
class CoefficientTable:
    """The row polynomials for n = 0..n_max: ``rows[n].coeffs[m]`` is c[m][n]."""

    rows: tuple[AreaPolynomial, ...]

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1


def _height_pass(n_max: int, bits: int, m_cap: int | None):
    """Yield the packed height-0 polynomial after steps 0, 2, ..., 2*n_max.

    An up-step from height h adds h squares, so a walk at height h has area
    at least h(h-1)/2; its polynomial is kept divided by q^(h(h-1)/2), in
    digits of ``bits`` bits, and only the heights of the step's parity are
    held. An up-step moves a polynomial unchanged, masked under the cap
    ``m_cap`` to the m_cap - h(h-1)/2 + 1 digits height h keeps; a down-step
    from h+1 shifts it by h digits, so it ends at that last digit: no mask.
    A walk kept at step i, height h and area a ends, by h down-steps, in a
    distinct path of area a and semilength n = (i+h)/2 <= n_max, so at most
    c[a][n] <= min(C_n, binomial(a+n-1, n-1)) walks (n up-step heights with
    sum a) share a digit, which the callers size ``bits`` to hold. Heights
    above 2 n_max - i cannot return and are dropped before they carry.
    """
    top = 2 * n_max if m_cap is None else min(2 * n_max, (math.isqrt(8 * m_cap + 1) + 1) // 2)
    shifts = [h * bits for h in range(top + 1)]  # top: the highest height kept
    masks = None if m_cap is None else [(1 << bits * (m_cap - h * (h - 1) // 2 + 1)) - 1
                                        for h in range(top + 1)]
    level = [1]  # level[j]: divided polynomial of the walks at height 2j + step % 2
    yield 1
    for step in range(1, 2 * n_max + 1):
        odd = step % 2
        ups = level if odd else [0] + level  # new level[j] from height 2j + odd - 1
        downs = map(operator.lshift, level[odd:] + [0], shifts[odd:2 * n_max - step + 1:2])
        if masks is not None:
            ups = map(operator.and_, ups, masks[odd::2])
        level = list(map(operator.add, ups, downs))
        if not odd:
            yield level[0]


@lru_cache(maxsize=1)
def build_area_polynomials(n_max: int) -> CoefficientTable:
    """Exact table of row polynomials for all semilengths up to n_max.

    Row n is the height-0 polynomial after step 2n of one height pass, each
    polynomial packed into one big integer, so a step costs only shifts and
    adds. Rows are decoded after the pass, once its heights are freed.
    Only the last table is memoized, so the cap bounds memory; tables are
    immutable and safe to share across threads.
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if n_max > _TABLE_CAP_FULL:
        raise ResourceLimitError(f"table to n = {n_max} exceeds the memory budget "
                                 f"(cap {_TABLE_CAP_FULL}); lower n_max")
    width = (catalan_number(n_max).bit_length() + 7) // 8  # C_n, in whole bytes
    packed = list(_height_pass(n_max, 8 * width, None))
    rows = []
    for n in range(n_max + 1):
        rows.append(AreaPolynomial(n, tuple(_digits(packed[n], width, n * (n - 1) // 2 + 1))))
        packed[n] = None  # its decoded row replaces it
    return CoefficientTable(tuple(rows))


def _digits(packed: int, width: int, count: int) -> Iterator[int]:
    """The ``count`` digits of ``width`` bytes in ``packed``, lowest first; an
    uncached ``Struct``, since ``struct.unpack`` would cache the long formats."""
    raw = packed.to_bytes(count * width, "little")
    return map(int.from_bytes, struct.Struct("<" + f"{width}s" * count).unpack(raw), repeat("little"))


def area_columns(m_values: list[int]) -> list[list[int]]:
    """The counts c[m][0..2m], which fix Q_m (``partition_series``), for each m.

    One height pass runs to n = 2 max(m), masked at area max(m), and keeps
    no table: c[m][n] is digit m of its height-0 polynomial after step 2n.
    """
    if not m_values or min(m_values) < 0:
        raise DomainError(f"areas must be a nonempty list of m >= 0, got {m_values!r}")
    m_top = max(m_values)
    if m_top > _COLUMNS_CAP:
        raise ResourceLimitError(f"columns to area {m_top} exceed the time budget "
                                 f"(cap {_COLUMNS_CAP}); lower m")
    bits = math.comb(3 * m_top, m_top).bit_length()  # binomial(a+n-1, n-1), a <= m, n <= 2m
    columns = [[] for _ in m_values]
    for n, packed in enumerate(_height_pass(2 * m_top, bits, m_top)):
        for m, column in zip(m_values, columns):
            if n <= 2 * m:
                column.append(packed >> m * bits & (1 << bits) - 1)
    return columns


def _check_brute_force(n: int) -> None:
    """Fail fast where the exhaustive oracle would not run at desk scale."""
    if n < 0:
        raise DomainError("n must be >= 0")
    if n > _BRUTE_FORCE_CAP:
        raise ResourceLimitError(
            f"brute-force enumeration of {catalan_number(n)} paths at n = {n} "
            f"is past the desk-scale cap {_BRUTE_FORCE_CAP}"
        )


def brute_force_area_polynomial(n: int) -> AreaPolynomial:
    """Row polynomial by exhaustive enumeration, met in the middle.

    A path's first n steps, and its last n steps read backwards, are n-step
    walks from height 0 that never go below it and end at one height h. Two
    halves fix a path, and any two with one end height join into one, so
    each ordered pair in one list of halves by end height is one path,
    counted once by its own increment. With a and b the halves' sums of the
    heights after each step, the path's is a + b - h (h counted twice) and
    its area (a + b - h - n) / 2. No code is shared with the table builder.
    """
    _check_brute_force(n)
    counts = [0] * (n * (n - 1) // 2 + 1)
    ends = [[] for _ in range(n + 1)]  # ends[h]: height sums of the half-walks ending at h

    def walk(step: int, height: int, height_sum: int):
        if step == n:
            ends[height].append(height_sum)
            return
        walk(step + 1, height + 1, height_sum + height + 1)
        if height > 0:
            walk(step + 1, height - 1, height_sum + height - 1)

    walk(0, 0, 0)
    for h, sums in enumerate(ends):
        for a in sums:
            base = a - h - n
            for b in sums:
                counts[(base + b) // 2] += 1
    return AreaPolynomial(n=n, coeffs=tuple(counts))


def partition_series(column: list[int], t: float) -> float:
    """Fixed-area series Q_m(t) = sum_n c[m][n] t^n, correctly rounded.

    ``column`` is c[m][0..2m], as ``area_columns`` gives it; its length
    2m + 1 carries m. Q_m = N_m / (1-t)^(m+1) with deg N_m <= 2m (module
    docstring), so these counts fix it on all of 0 <= t < 1. N_m is the low
    2m + 1 digits of the counts, packed in W-bit digits, times (1 - 2^W)^(m+1);
    |N_m[k]| <= 2^(m+1) max c < 2^(W-1), so with 2^(W-1) added to each digit
    they read off with no borrow. N_m is evaluated at t = a / 2^e in
    integers, so a single int true division rounds it.
    """
    if len(column) % 2 == 0:
        raise DomainError(f"a column c[m][0..2m] has odd length, got {len(column)} counts")
    if min(column) < 0:
        raise DomainError(f"counts must be >= 0, got {min(column)}")
    m = len(column) // 2
    if not (0.0 <= t < 1.0):
        raise DomainError("partition_series requires 0 <= t < 1")
    width = (m + max(column).bit_length() + 9) // 8  # W = 8 width >= m + 2 + bits of max c
    packed = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in column), "little")
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * (2 * m + 1), "little")  # 2^(W-1) a digit
    packed = (packed * (1 - (1 << 8 * width)) ** (m + 1) + bias) & (1 << 8 * width * (2 * m + 1)) - 1
    half = 1 << 8 * width - 1
    coeffs = [c - half for c in _digits(packed, width, 2 * m + 1)]
    a, b = t.as_integer_ratio()
    e = b.bit_length() - 1  # t = a / 2^e
    num = 0  # 2^(2m e) N_m(t) = sum_k N_m[k] a^k 2^((2m-k) e)
    for k, c in enumerate(reversed(coeffs)):
        num = num * a + (c << e * k)
    try:  # Q_m = num 2^((m+1) e) / (2^(2m e) (2^e - a)^(m+1))
        return (num << e * (m + 1)) / ((b - a) ** (m + 1) << 2 * m * e)
    except OverflowError:
        raise DomainError(f"Q_{m}({t!r}) exceeds the double range") from None


def eval_G_truncated(t: float, q: float, N: int, full_output: bool = False):
    """Partial sum over lengths, sum_{n=0..N} Z_n(q) t^n, with no table.

    The terms W_n = Z_n(q) t^n obey W_0 = 1, W_(n+1) = t sum_(k<=n) q^k W_k
    W_(n-k) (the first-return identity times t^(n+1)): all >= 0 for q in
    (0, 1], so nothing cancels, and no power of t or Catalan-sized Z_n is
    formed. A divergence error is raised for a non-finite term, for t >= 1/4
    at q = 1 (the radius) and, for q < 1, where the last four terms grow and
    are not small. ``full_output`` adds the dropped tail's bound and whether
    it is certified: C_(N+1) t^(N+1) / (1 - 4t) for t < 1/4, by Z_n(q) <= C_n
    and C_(n+1) < 4 C_n; past 1/4, an estimate from the last terms' ratio.
    """
    if not (0.0 < q <= 1.0):
        raise DomainError("eval_G_truncated requires q in (0, 1]")
    if not (0.0 <= t < math.inf):
        raise DomainError(f"t must be finite and >= 0, got {t!r}")
    if N < 0:
        raise DomainError("N must be >= 0")
    if N > _SERIES_CAP:
        raise ResourceLimitError(f"length series to n = {N} exceeds the time budget "
                                 f"(cap {_SERIES_CAP}); lower n_max")
    if q == 1.0 and t >= 0.25:
        raise DivergenceError(f"t = {t!r} is at or beyond the radius 1/4 of the Catalan series")
    terms, scaled = [1.0], [1.0]  # W_k and q^k W_k
    try:
        for n in range(1, N + 1):
            terms.append(t * math.fsum(map(operator.mul, scaled, reversed(terms))))
            scaled.append(q**n * terms[-1])
        total = math.fsum(terms)
    except OverflowError:  # fsum of finite terms past the double range
        total = math.inf
    if not total < math.inf:
        raise DivergenceError(f"length series at t = {t!r} leaves the double range "
                              f"before n = {N}", last_term=math.inf)
    if t > 0.0 and N >= 8 and terms[-1] > 1e-14 * total and all(
            b >= a for a, b in zip(terms[-4:], terms[-3:])):  # the last four terms grow
        raise DivergenceError(f"length series not decaying at n = {N} (last term {terms[-1]:.3e}); "
                              f"t = {t!r} is at or beyond the radius of convergence",
                              last_term=terms[-1])
    if not full_output:
        return total
    if t < 0.25:
        a, b = t.as_integer_ratio()  # C_(N+1) t^(N+1) / (1 - 4t), rounded up
        bound = catalan_number(N + 1) * a ** (N + 1) * b / ((b - 4 * a) * b ** (N + 1))
        return total, math.nextafter(bound, math.inf) if a else 0.0, True
    ratio = terms[-1] / terms[-2] if N and terms[-2] else math.inf
    return total, terms[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf, False


# --------------------------------------------------------------------------
# Table serialization
# --------------------------------------------------------------------------

def table_to_csv(table: CoefficientTable) -> Iterator[str]:
    """CSV rows (n, m, c[m][n]), exact integers in decimal: the header, then
    one string per table row, so a writer never holds the whole text."""
    yield "n,m,c\n"
    for row in table.rows:
        prefix = f"{row.n},"
        yield "".join([f"{prefix}{m},{c}\n" for m, c in enumerate(row.coeffs)])


def table_to_json(table: CoefficientTable) -> str:
    """JSON object with one coefficient array per row, integers as strings."""
    payload = {
        "n_max": table.n_max,
        "rows": [[str(c) for c in row.coeffs] for row in table.rows],
    }
    return json.dumps(payload, indent=2) + "\n"
