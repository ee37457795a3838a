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
needs its height and its area so far. Splitting a nonempty path at its
first return to the diagonal gives the identity

    Z[n+1] = sum_{k=0..n} q^k * Z[k] * Z[n-k]

(the inner factor of the leading arch sits one level higher, which adds one
full square per unit of its length, hence the q^k elevation factor); the
tests check the table against it. The independent backtracking enumerator
below is the arbiter for the area convention.

The same split bounds the fixed-area series Q_m(t) = sum_n c[m][n] t^n.
A path is a sequence of arches; a UD arch has area 0, and an arch U P D
with P of semilength k has area k + area(P) >= k. A path of area m thus
has at most m arches of positive area, each of semilength at most m + 1,
with runs of UD arches (each a factor 1/(1-t)) around them. Over a common
denominator, Q_m(t) = N_m(t) / (1-t)^(m+1) with N_m an integer polynomial
of degree at most 2m, fixed by c[m][0..2m].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import DivergenceError, DomainError, ResourceLimitError

__all__ = [
    "AreaPolynomial",
    "CoefficientTable",
    "build_area_polynomials",
    "brute_force_area_polynomial",
    "partition_series",
    "eval_G_truncated",
    "catalan_number",
    "table_to_csv",
    "table_to_json",
]

_BRUTE_FORCE_CAP = 14
# Packed rows pad every digit to about 2 n_max bits (2 cores, Python 3.11):
_TABLE_CAP_FULL = 200  # n = 200 builds in 11 s, 262 MB peak RSS; decoding its rows: +0.8 s, 306 MB
_TABLE_CAP_CAPPED = 1280  # (1280, 640), the table Q_640 needs, builds in 10 s, 310 MB peak RSS


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

    def evaluate(self, q: float) -> float:
        """Horner evaluation of the row polynomial at a numeric weight."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc


@dataclass(frozen=True)
class CoefficientTable:
    """Triangular store of the counts c[m][n] for n = 0..n_max.

    Rows stay packed as the builder leaves them: digit m of ``packed[n]``,
    ``digit_bits`` wide, is c[m][n]. ``coefficient`` and ``column`` read the
    digits in place; ``rows`` decodes every row on first access and keeps it.
    ``m_cap`` records an optional area truncation: when set, every row
    keeps only areas m <= m_cap (rows shorter than the cap are complete).
    """

    n_max: int
    packed: tuple[int, ...]
    digit_bits: int
    m_cap: int | None = None

    @cached_property
    def rows(self) -> tuple[AreaPolynomial, ...]:
        width = self.digit_bits // 8
        rows = []
        for n, packed in enumerate(self.packed):
            full_len = n * (n - 1) // 2 + 1
            length = full_len if self.m_cap is None else min(full_len, self.m_cap + 1)
            raw = packed.to_bytes(length * width, "little")
            coeffs = tuple(
                int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)
            )
            rows.append((AreaPolynomial if length == full_len else _CappedRow)(n=n, coeffs=coeffs))
        return tuple(rows)

    def row(self, n: int) -> AreaPolynomial:
        return self.rows[n]

    def coefficient(self, m: int, n: int) -> int:
        return self.packed[n] >> m * self.digit_bits & (1 << self.digit_bits) - 1

    def column(self, m: int) -> list[int]:
        """Counts for fixed area m across all stored lengths."""
        if self.m_cap is not None and m > self.m_cap:
            raise DomainError(f"column {m} exceeds the table's area cap {self.m_cap}")
        return [self.coefficient(m, n) for n in range(self.n_max + 1)]


class _CappedRow(AreaPolynomial):
    """Row truncated at the table's area cap; skips the full-length invariant."""

    def __post_init__(self):
        pass


@lru_cache(maxsize=6)
def build_area_polynomials(n_max: int, m_max: int | None = None) -> CoefficientTable:
    """Exact table of row polynomials for all semilengths up to n_max.

    One pass over the 2*n_max steps of a walk keeps, for every height, the
    area polynomial of the walks that end there. An up-step from height h
    adds h squares (a shift by h digits); a down-step adds none. Row n is
    the height-0 polynomial after step 2n. The optional ``m_max`` truncates
    every row at that area, which keeps the fixed-area columns exact while
    making large-n tables cheap.

    Each polynomial is packed into one big integer with a fixed digit width,
    so a step costs only shifts and adds. The table keeps each row packed;
    its rows are decoded on first read (``CoefficientTable``). Results are
    memoized; the returned tables are immutable and safe to share across
    threads.
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if m_max is not None and m_max < 0:
        raise DomainError("m_max must be >= 0")
    full = m_max is None or m_max >= n_max * (n_max - 1) // 2
    cap = _TABLE_CAP_FULL if full else _TABLE_CAP_CAPPED
    if n_max > cap:
        raise ResourceLimitError(
            f"table to n = {n_max} exceeds the memory budget (cap {cap}); "
            + ("pass m_max to bound the rows or lower n_max" if full else "lower m or --n-max")
        )
    # A count after i steps is at most 2^i (the number of walks), so
    # whole-byte digits of more than 2*n_max bits can never overflow.
    bits = 8 * (n_max // 4 + 1)
    mask = -1 if m_max is None else (1 << bits * (m_max + 1)) - 1
    heights = [1]  # heights[h]: packed area polynomial of the walks at height h
    packed = [1]
    for step in range(1, 2 * n_max + 1):
        down = heights[1:] + [0, 0]
        up = [0] + [(poly << h * bits) & mask for h, poly in enumerate(heights)]
        heights = [a + b for a, b in zip(down, up)]
        # Heights above the remaining step count can no longer return, and
        # heights emptied by the area cap stay empty.
        del heights[2 * n_max - step + 1:]
        while not heights[-1]:
            heights.pop()
        if not step % 2:
            packed.append(heights[0])
    return CoefficientTable(n_max=n_max, packed=tuple(packed), digit_bits=bits, m_cap=m_max)


def brute_force_area_polynomial(n: int) -> AreaPolynomial:
    """Row polynomial by exhaustive backtracking over all paths.

    Walks every admissible up/down step sequence, accumulating the running
    height sum; for a path of semilength n the number of complete squares
    is (sum of intermediate heights - n) / 2. Once the height equals the
    steps left, only down-steps remain, so the walk adds their heights in
    closed form and counts the path there. Every path is still its own
    leaf: the walk stays exhaustive, entirely independent of the table
    builder, and the arbiter for the area convention.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n > _BRUTE_FORCE_CAP:
        raise ResourceLimitError(
            f"brute-force enumeration of {catalan_number(n)} paths at n = {n} "
            f"is past the desk-scale cap {_BRUTE_FORCE_CAP}"
        )
    counts = [0] * (n * (n - 1) // 2 + 1)
    total_steps = 2 * n

    def walk(step: int, height: int, height_sum: int):
        if height == total_steps - step:  # only down-steps remain: heights h-1, ..., 0
            counts[(height_sum + height * (height - 1) // 2 - n) // 2] += 1
            return
        walk(step + 1, height + 1, height_sum + height + 1)
        if height > 0:
            walk(step + 1, height - 1, height_sum + height - 1)

    walk(0, 0, 0)
    return AreaPolynomial(n=n, coeffs=tuple(counts))


def partition_series(table: CoefficientTable, m: int, t: float) -> float:
    """Fixed-area series Q_m(t) = sum_n c[m][n] t^n, correctly rounded.

    Q_m = N_m / (1-t)^(m+1) with deg N_m <= 2m (module docstring), so the
    table's first 2m + 1 column entries, c[m][0..2m], fix it on all of
    0 <= t < 1; only those are read. N_m comes from m + 1 backward
    differences of them, and is evaluated at t = a / 2^e in integers, so a
    single int true division rounds it.
    """
    if m < 0:
        raise DomainError(f"area {m} must be >= 0")
    if not (0.0 <= t < 1.0):
        raise DomainError("partition_series requires 0 <= t < 1")
    if table.n_max < 2 * m:
        raise DomainError(f"Q_{m} needs the table to n = {2 * m}, it stops at {table.n_max}")
    if table.m_cap is not None and m > table.m_cap:
        raise DomainError(f"column {m} exceeds the table's area cap {table.m_cap}")
    coeffs = [table.coefficient(m, n) for n in range(2 * m + 1)]
    for _ in range(m + 1):  # times (1 - t), truncated at degree 2m
        coeffs = [c - p for c, p in zip(coeffs, [0] + coeffs)]
    a, b = t.as_integer_ratio()
    e = b.bit_length() - 1  # t = a / 2^e
    num = 0  # 2^(2m e) N_m(t) = sum_k N_m[k] a^k 2^((2m-k) e)
    for k, c in enumerate(reversed(coeffs)):
        num = num * a + (c << e * k)
    try:  # Q_m = num 2^((m+1) e) / (2^(2m e) (2^e - a)^(m+1))
        return (num << e * (m + 1)) / ((b - a) ** (m + 1) << 2 * m * e)
    except OverflowError:
        raise DomainError(f"Q_{m}({t!r}) exceeds the double range") from None


def eval_G_truncated(t: float, q: float, N: int) -> float:
    """Partial sum over lengths, sum_{n=0..N} Z_n(q) t^n.

    Requires the series to be visibly decaying at the truncation point
    (last term small against the partial sum and not growing), otherwise a
    divergence error is raised: t at or beyond the radius of convergence.
    """
    if not (0.0 < q <= 1.0):
        raise DomainError("eval_G_truncated requires q in (0, 1]")
    if not (0.0 <= t < math.inf):
        raise DomainError(f"t must be finite and >= 0, got {t!r}")
    table = build_area_polynomials(N)
    terms = [table.row(n).evaluate(q) * t**n for n in range(N + 1)]
    total = float(sum(terms))
    if t > 0.0 and N >= 8:
        tail_terms = [abs(x) for x in terms[-4:]]
        growing = all(b >= a for a, b in zip(tail_terms, tail_terms[1:]))
        if growing and tail_terms[-1] > 1e-14 * abs(total):
            raise DivergenceError(
                f"length series not decaying at n = {N} (last term {tail_terms[-1]:.3e}); "
                f"t = {t!r} is at or beyond the radius of convergence",
                last_term=tail_terms[-1],
            )
    return total


# --------------------------------------------------------------------------
# Table serialization
# --------------------------------------------------------------------------

def table_to_csv(table: CoefficientTable) -> str:
    """CSV rows (n, m, c[m][n]); exact integers in decimal."""
    lines = ["n,m,c"]
    for n in range(table.n_max + 1):
        for m, c in enumerate(table.rows[n].coeffs):
            lines.append(f"{n},{m},{c}")
    return "\n".join(lines) + "\n"


def table_to_json(table: CoefficientTable) -> str:
    """JSON object with one coefficient array per row, integers as strings."""
    payload = {
        "n_max": table.n_max,
        "m_cap": table.m_cap,
        "rows": [[str(c) for c in row.coeffs] for row in table.rows],
    }
    return json.dumps(payload, indent=2) + "\n"
