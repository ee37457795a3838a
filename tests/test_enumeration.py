"""Exact path counting: the height-pass table against the exhaustive
oracle and the first-return identity."""

import functools
import hashlib
import json
import math
import operator
import time
import tracemalloc
from fractions import Fraction

import hypothesis
import pytest
from hypothesis import strategies as st

from dyckarea import enumeration
from dyckarea.enumeration import (
    AreaPolynomial,
    area_columns,
    brute_force_area_polynomial,
    build_area_polynomials,
    catalan_number,
    eval_G_truncated,
    partition_series,
    table_to_csv,
    table_to_json,
)
from dyckarea.errors import DivergenceError, DomainError, ResourceLimitError
from dyckarea.qseries import g_cfrac

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012, 742900, 2674440]


def _column(table, m):
    """Counts c[m][n] for n = 0..n_max, read off the table's rows."""
    return [row.coeffs[m] if m < len(row.coeffs) else 0 for row in table.rows]


def _widest_counts(n_top, area_cap):
    """widest[n][a]: the largest number of walks that the height pass to
    n_top holds at area a <= area_cap in any state (step i, height h) with
    (i + h)/2 = n, from a plain count list per height."""
    zeros = [0] * (area_cap + 1)
    widest = [zeros] * (n_top + 1)
    heights = [[1] + zeros[1:]]
    for i in range(1, 2 * n_top + 1):
        down = heights[1:] + [zeros, zeros]
        up = [zeros] + [([0] * h + counts)[: area_cap + 1] for h, counts in enumerate(heights)]
        heights = [list(map(operator.add, d, u)) for d, u in zip(down, up)][: 2 * n_top - i + 1]
        for h, counts in enumerate(heights):
            widest[(i + h) // 2] = list(map(max, widest[(i + h) // 2], counts))
    return widest


def _check_first_return(n_max, m_max):
    # Z[n+1] = sum_k q^k Z[k] Z[n-k] by plain list convolution, truncated
    # at area m_max when given: a route independent of the height pass
    rows = [[1]]
    for n in range(n_max):
        length = n * (n + 1) // 2 + 1
        if m_max is not None:
            length = min(length, m_max + 1)
        row = [0] * length
        for k in range(min(n + 1, length)):
            for i, x in enumerate(rows[k][: length - k]):
                for j, y in enumerate(rows[n - k][: length - k - i]):
                    row[k + i + j] += x * y
        rows.append(row)
    table = build_area_polynomials(n_max)
    pairs = zip(table.rows, rows, strict=True)
    assert [list(row.coeffs[: len(want)]) for row, want in pairs] == rows
    m_top = n_max // 2 if m_max is None else min(m_max, n_max // 2)
    want = [[rows[n][m] if m < len(rows[n]) else 0 for n in range(2 * m + 1)]
            for m in range(m_top + 1)]
    assert area_columns(list(range(m_top + 1))) == want


class TestBruteForce:
    def test_empty_path(self):
        assert brute_force_area_polynomial(0).coeffs == (1,)

    def test_single_arch(self):
        assert brute_force_area_polynomial(1).coeffs == (1,)

    def test_two_arches(self):
        # udud has area 0, uudd encloses one square
        assert brute_force_area_polynomial(2).coeffs == (1, 1)

    def test_semilength_nine(self):
        row = brute_force_area_polynomial(9)
        assert row.total() == 4862
        assert row.coeffs[10] > 0  # the area-10 class is populated

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            brute_force_area_polynomial(15)

    def test_negative(self):
        with pytest.raises(DomainError):
            brute_force_area_polynomial(-1)

    def test_rows_to_cap(self):
        table = build_area_polynomials(14)
        for n in range(15):
            row = _brute_row(n)
            assert row.coeffs == table.rows[n].coeffs
            assert row.total() == catalan_number(n)

    def test_shares_no_code_with_the_table(self, monkeypatch):
        want = brute_force_area_polynomial(12).coeffs

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached the table builder")

        monkeypatch.setattr(enumeration, "_height_pass", forbidden)
        monkeypatch.setattr(enumeration, "build_area_polynomials", forbidden)
        assert brute_force_area_polynomial(12).coeffs == want

    def test_cap_runs_at_desk_scale(self):
        # 0.09 s of CPU for the 2 674 440 paths at n = 14; the bound is generous
        start = time.perf_counter()
        row = brute_force_area_polynomial(14)
        assert time.perf_counter() - start < 2.0
        assert row.total() == CATALAN[14]

    def test_first_return_identity(self):
        # Z[n+1] = sum_k q^k Z[k] Z[n-k] on the oracle's own rows
        rows = [_brute_row(n).coeffs for n in range(14)]
        for n in range(13):
            want = [0] * len(rows[n + 1])
            for k in range(n + 1):
                for i, x in enumerate(rows[k]):
                    for j, y in enumerate(rows[n - k]):
                        want[k + i + j] += x * y
            assert list(rows[n + 1]) == want


class TestRecurrenceTable:
    def test_small_rows_frozen(self):
        table = build_area_polynomials(4)
        assert table.rows[0].coeffs == (1,)
        assert table.rows[1].coeffs == (1,)
        assert table.rows[2].coeffs == (1, 1)
        assert table.rows[3].coeffs == (1, 2, 1, 1)
        assert table.rows[4].coeffs == (1, 3, 3, 3, 2, 1, 1)

    @pytest.mark.parametrize("n", range(13))
    def test_row_invariants(self, n):
        row = build_area_polynomials(12).rows[n]
        assert row.total() == catalan_number(n) == CATALAN[n]
        assert row.coeffs[0] == 1
        assert row.coeffs[-1] == 1
        assert len(row.coeffs) == n * (n - 1) // 2 + 1

    def test_monotone_consistency(self):
        small = build_area_polynomials(8)
        large = build_area_polynomials(14)
        for n in range(9):
            assert small.rows[n].coeffs == large.rows[n].coeffs

    def test_area_cap_consistency(self):
        # the pass masked at area max(m) keeps the full table's columns
        for m_values in [[6], [3, 20, 7], [0], [0, 0]]:
            full = build_area_polynomials(2 * max(m_values))
            want = [_column(full, m)[: 2 * m + 1] for m in m_values]
            assert area_columns(m_values) == want

    @pytest.mark.parametrize("n_max, m_max", [(39, None), (60, 20)])
    def test_first_return_identity(self, n_max, m_max):
        _check_first_return(n_max, m_max)

    @hypothesis.settings(max_examples=10)
    @hypothesis.given(n_max=st.integers(0, 30), m_max=st.none() | st.integers(0, 40))
    def test_first_return_identity_drawn(self, n_max, m_max):
        _check_first_return(n_max, m_max)

    @pytest.mark.parametrize(
        "n_max, digest",
        [(60, "1a09db91df40ab8671f21394a8e9e86900d7db54f6250551a4712633b5e447c7")],
        ids=["full-60"],
    )
    def test_golden_digest(self, n_max, digest):
        # sha256 of the CSV export, pinned from the first-return convolution
        # builder so that any change of builder keeps every count bit-identical
        text = "".join(table_to_csv(build_area_polynomials(n_max)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_column_digest(self):
        # sha256 of the columns c[m][0..2m], m <= 80, that fix every Q_m;
        # pinned from the packed digits of the area-capped table to n = 160
        columns = area_columns(list(range(81)))
        digest = hashlib.sha256(str(columns).encode()).hexdigest()
        assert digest == "084611e52dcf1c238ae80cc060e0eb2aa6334810bcf76a8b30c37cb248cb23c1"

    @hypothesis.settings(max_examples=25)
    @hypothesis.given(data=st.data())
    def test_table_invariants(self, data):
        # the rows hold Catalan totals with unit end counts, and the masked
        # pass agrees with the table's columns
        n_max = data.draw(st.integers(0, 40), label="n_max")
        table = build_area_polynomials(n_max)
        assert table.n_max == n_max
        for n, row in enumerate(table.rows):
            assert row.n == n
            assert row.coeffs[0] == 1
            assert sum(row.coeffs) == catalan_number(n)
            assert row.coeffs[-1] == 1
        m_values = data.draw(st.lists(st.integers(0, n_max // 2), min_size=1), label="m_values")
        assert area_columns(m_values) == [_column(table, m)[: 2 * m + 1] for m in m_values]

    def test_column_access(self):
        table = build_area_polynomials(9)
        assert _column(table, 0) == [1] * 10
        assert _column(table, 1) == [0, 0, 1, 2, 3, 4, 5, 6, 7, 8]
        assert area_columns([0, 1, 4]) == [_column(table, m)[: 2 * m + 1] for m in (0, 1, 4)]

    @pytest.mark.parametrize("m_values", [[1], [2], [0, 1, 2]])
    def test_smallest_columns(self, m_values):
        # the area caps where only heights 0..2 keep a digit
        table = build_area_polynomials(4)
        assert area_columns(m_values) == [_column(table, m)[: 2 * m + 1] for m in m_values]

    def test_resource_cap_names_n(self):
        with pytest.raises(ResourceLimitError, match="201"):
            build_area_polynomials(201)

    @pytest.mark.parametrize("build, message", [
        (lambda: build_area_polynomials(250), "(cap 200); lower n_max"),
        (lambda: area_columns([10, 641]), "(cap 640); lower m"),
        (lambda: eval_G_truncated(0.2, 0.5, 10**6), "(cap 10000); lower n_max"),
    ], ids=["table-250", "columns-641", "series-1e6"])
    def test_resource_cap_before_build(self, build, message):
        # each would run for tens of seconds (the series for hours); the cap fails first
        start = time.process_time()
        with pytest.raises(ResourceLimitError) as info:
            build()
        assert message in str(info.value)
        assert time.process_time() - start < 1.0

    def test_columns_memory(self):
        # only the current heights are held; a table of the 321 packed rows
        # to n = 320, masked at area 160, peaks at 4.6 MB
        tracemalloc.start()
        try:
            area_columns([160])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_digits_hold_every_count(self, monkeypatch):
        # the proven digit widths dominate the widest count the pass holds:
        # C_(n_max) for the table, binomial(3m, m) for the columns to area m
        bits = []
        height_pass = enumeration._height_pass
        monkeypatch.setattr(enumeration, "_height_pass",
                            lambda n_max, b, m_cap: bits.append(b) or height_pass(n_max, b, m_cap))
        widest = _widest_counts(40, 40 * 39 // 2)
        for n_max in range(41):
            build_area_polynomials.__wrapped__(n_max)
            held = max(max(row) for row in widest[: n_max + 1])
            assert held.bit_length() <= bits[-1]
        widest = _widest_counts(80, 40)
        for m in range(41):
            area_columns([m])
            held = max(max(row[: m + 1]) for row in widest[: 2 * m + 1])
            assert held.bit_length() <= bits[-1]
        assert (held.bit_length(), bits[-1]) == (90, 107)  # 168 bits before the bound

    def test_negative(self):
        with pytest.raises(DomainError):
            build_area_polynomials(-1)
        with pytest.raises(DomainError):
            area_columns([5, -1])
        with pytest.raises(DomainError):
            area_columns([])

    def test_row_length_validation(self):
        with pytest.raises(DomainError):
            AreaPolynomial(n=3, coeffs=(1, 2, 1))


@pytest.fixture(scope="module")
def table():
    return build_area_polynomials(40)


@pytest.fixture(scope="module")
def columns():
    return area_columns(list(range(8)))


@pytest.fixture(scope="module")
def long_table():
    # c[m][0..2m+30] for m <= 40, and the rows of the length series to N = 120
    return build_area_polynomials(121)


def _numerator(column, m):
    """Coefficients of (1-t)^(m+1) times the column polynomial, by binomials."""
    return [
        sum((-1) ** j * math.comb(m + 1, j) * column[k - j] for j in range(min(k, m + 1) + 1))
        for k in range(len(column))
    ]


_brute_row = functools.lru_cache(maxsize=None)(brute_force_area_polynomial)  # n = 14 takes 0.09 s


def _exact_q(m, t):
    """Q_m(t) = N_m(t)/(1-t)^(m+1) in Fraction arithmetic from brute-force rows."""
    column = [_brute_row(n).coeffs[m] if m <= n * (n - 1) // 2 else 0 for n in range(2 * m + 1)]
    x = Fraction(t)
    value = sum(c * x**k for k, c in enumerate(_numerator(column, m))) / (1 - x) ** (m + 1)
    return float(value)  # Fraction -> float rounds correctly


def _check_fraction(column, m, ts):
    """At each t, partition_series equals N_m(t)/(1-t)^(m+1) summed in
    Fractions, or raises DomainError where that value is past the double range."""
    numerator = _numerator(column, m)
    for t in ts:
        x, value = Fraction(t), Fraction(0)
        for c in reversed(numerator):
            value = value * x + c
        value /= (1 - x) ** (m + 1)
        try:
            want = float(value)
        except OverflowError:
            with pytest.raises(DomainError, match="double range"):
                partition_series(column, t)
        else:
            assert partition_series(column, t) == want


class TestPartitionSeries:
    def test_zero_area_geometric(self, table, columns):
        assert partition_series(columns[0], 0.5) == 1.0 / (1.0 - 0.5)
        assert partition_series(columns[0], 0.3) == float(1 / (1 - Fraction(0.3)))
        assert _column(table, 0) == [1] * 41

    def test_area_one_at_origin(self, columns):
        assert partition_series(columns[1], 0.0) == 0.0

    def test_area_one_column(self, table, columns):
        assert _column(table, 1)[:6] == [0, 0, 1, 2, 3, 4]
        assert columns[1] == [0, 0, 1]
        assert _numerator(columns[1], 1) == [0, 0, 1]  # N_1 = t^2
        x = Fraction(0.3)
        assert partition_series(columns[1], 0.3) == float(x**2 / (1 - x) ** 2)

    def test_exact_near_one(self, columns):
        # sums truncated at n <= 40 and n <= 70 gave 3851.4 and 6166.1 here
        assert partition_series(columns[3], 0.9) == 6633.900000000007 == _exact_q(3, 0.9)
        assert partition_series(columns[7], 0.999) == _exact_q(7, 0.999)

    @hypothesis.settings(max_examples=30)
    @hypothesis.given(m=st.integers(0, 7), t=st.floats(0.0, 0.9999))
    def test_correctly_rounded(self, columns, m, t):
        assert partition_series(columns[m], t) == _exact_q(m, t)

    @hypothesis.settings(max_examples=30)
    @hypothesis.given(m=st.integers(0, 40), t=st.floats(0.0, 0.999))
    def test_numerator_degree(self, long_table, m, t):
        # no row past 2m is read: the counts past it add nothing to N_m
        long = _column(long_table, m)[: 2 * m + 31]
        assert _numerator(long, m)[2 * m + 1:] == [0] * 30  # deg N_m <= 2m on the data
        [column] = area_columns([m])
        assert column == long[: 2 * m + 1]
        assert partition_series(column, t) == partition_series(long[: 2 * m + 1], t)

    def test_every_column_to_m_80(self):
        # the packed N_m product against N_m from binomials, summed in Fractions
        for m, column in enumerate(area_columns(list(range(81)))):
            _check_fraction(column, m, (0.0, 0.1, 0.25, 0.29448, 0.9, 0.999))

    @pytest.mark.parametrize("bits", [1, 64, 200])
    def test_digit_bias_at_its_bound(self, bits):
        # every count 2^b - 1 gives |N_m[k]| = (2^b - 1) binomial(m, k), and
        # counts 2^b - 1 at even n only give (2^b - 1) 2^m: the bias 2^(W-1)
        # must cover 2^(m+1) max c with no borrow
        top = (1 << bits) - 1
        for m in range(61):
            for column in ([top] * (2 * m + 1), [top * (1 - n % 2) for n in range(2 * m + 1)]):
                _check_fraction(column, m, (0.1, 0.5, 0.9))

    def test_negative_count(self):
        # the packed product reads its digits as counts >= 0
        with pytest.raises(DomainError, match="counts must be >= 0, got -1"):
            partition_series([0, 0, 1, -1, 0], 0.3)

    def test_domain(self, columns):
        with pytest.raises(DomainError, match="got 0 counts"):
            partition_series([], 0.3)
        with pytest.raises(DomainError, match="got 42 counts"):
            partition_series(area_columns([21])[0][:42], 0.3)  # not c[m][0..2m] for any m
        with pytest.raises(DomainError):
            partition_series(columns[2], 1.0)
        with pytest.raises(DomainError, match="double range"):
            partition_series(area_columns([60])[0], 0.9999999)


class TestTruncatedG:
    def test_origin(self):
        assert eval_G_truncated(0.0, 0.7, 20) == 1.0

    def test_catalan_limit(self):
        value = eval_G_truncated(0.2, 1.0, 60)
        assert value == pytest.approx(1.3819660112501051, abs=1e-8)

    def test_cross_method(self):
        value = eval_G_truncated(0.2, 0.5, 60)
        assert value == pytest.approx(g_cfrac(0.2, 0.5), abs=1e-10)

    @pytest.mark.parametrize("t", [0.15, 0.2, 0.24])
    def test_catalan_convergence(self, t):
        # truncation levels kept low enough that the error stays above the
        # double-precision floor at every t
        closed = (1.0 - math.sqrt(1.0 - 4.0 * t)) / (2.0 * t)
        errs = [abs(eval_G_truncated(t, 1.0, N) - closed) for N in (8, 16, 32)]
        assert errs[0] > errs[1] > errs[2]

    def test_divergence_detected(self):
        with pytest.raises(DivergenceError):
            eval_G_truncated(0.3, 1.0, 60)

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_G_truncated(0.2, 1.5, 20)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_t(self, t):
        with pytest.raises(DomainError):
            eval_G_truncated(t, 0.5, 20)


def _rows_at(rows, q):
    """Z_n(q) for the given table rows as exact Fractions to 2^-190: Horner
    in binary fixed point whose unit makes q exact, each step truncating by
    less than one unit."""
    a, b = q.as_integer_ratio()  # q = a / 2^k, and q 2^(k+200) = a 2^200
    unit = b.bit_length() + 199
    values = []
    for row in rows:
        acc = 0
        for c in reversed(row.coeffs):
            acc = (acc * a << 200 >> unit) + (c << unit)
        values.append(Fraction(acc, 1 << unit))
    return values


class TestLengthSeries:
    @hypothesis.settings(max_examples=20, deadline=None)
    @hypothesis.given(q=st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True),
                      t=st.floats(0.0, 0.25, exclude_max=True), N=st.integers(0, 120))
    def test_against_table_rows(self, long_table, q, t, N):
        # the first-return recurrence in doubles against the table rows summed
        # in exact rationals; below t = 1/4 the reported tail is certified
        value, tail, certified = eval_G_truncated(t, q, N, full_output=True)
        z = _rows_at(long_table.rows, q)
        x = Fraction(t)
        exact = sum(z[n] * x**n for n in range(N + 1))
        assert abs(Fraction(value) - exact) <= 2 * (N + 1) * Fraction(math.ulp(float(exact)))
        assert certified
        assert tail >= sum(z[n] * x**n for n in range(N + 1, len(z)))

    def test_tail_bound_at_q_one(self):
        # at q = 1 the bound C_(N+1) t^(N+1) / (1 - 4t) holds the Catalan
        # tail and is less than twice it
        closed = (1.0 - math.sqrt(1.0 - 4.0 * 0.2)) / (2.0 * 0.2)
        value, tail, certified = eval_G_truncated(0.2, 1.0, 40, full_output=True)
        assert certified and 0.5 * tail < closed - value < tail

    def test_estimated_tail_past_one_quarter(self):
        value, tail, certified = eval_G_truncated(0.26, 0.9, 40, full_output=True)
        assert not certified
        assert 0.5 * tail < g_cfrac(0.26, 0.9) - value < 2.0 * tail

    @pytest.mark.parametrize("t", [0.25, 0.3, 1e10])
    def test_catalan_radius(self, t):
        # at q = 1 the radius is exactly 1/4: the partial sum at t = 1/4 is 7%
        # below G = 2 and still rising, so it is refused before any term
        with pytest.raises(DivergenceError, match="radius 1/4"):
            eval_G_truncated(t, 1.0, 60)

    def test_growing_terms_past_the_radius(self):
        # for q < 1 the radius is t_inf(q) = 0.36298 at q = 0.9: at t = 0.4 the
        # last four of 61 terms grow, and the error carries the last of them
        with pytest.raises(DivergenceError, match="not decaying at n = 60") as err:
            eval_G_truncated(0.4, 0.9, 60)
        assert 1.0 < err.value.last_term < math.inf

    @pytest.mark.parametrize("t, N", [(1e10, 60), (1e150, 3)])
    def test_non_finite_term(self, t, N):
        with pytest.raises(DivergenceError, match="double range"):
            eval_G_truncated(t, 0.5, N)

    def test_no_table(self):
        # the length series builds no table: N = 200 in milliseconds
        calls = build_area_polynomials.cache_info()[:2]
        start = time.process_time()
        eval_G_truncated(0.24, 0.99, 200)
        assert time.process_time() - start < 0.1
        assert build_area_polynomials.cache_info()[:2] == calls


class TestSerialization:
    def test_csv(self):
        chunks = list(table_to_csv(build_area_polynomials(3)))
        assert len(chunks) == 5  # the header, then one string per table row
        lines = "".join(chunks).strip().splitlines()
        assert lines[0] == "n,m,c"
        assert lines[1] == "0,0,1"
        assert "3,1,2" in lines

    def test_json_decimal_strings(self):
        payload = json.loads(table_to_json(build_area_polynomials(4)))
        assert payload.keys() == {"n_max", "rows"}
        assert payload["n_max"] == 4
        assert payload["rows"][4] == ["1", "3", "3", "3", "2", "1", "1"]
        assert all(isinstance(c, str) for row in payload["rows"] for c in row)
