"""Exact path counting: the height-pass table against the backtracking
oracle and the first-return identity."""

import functools
import hashlib
import json
import math
import time
from fractions import Fraction

import hypothesis
import pytest
from hypothesis import strategies as st

from dyckarea.enumeration import (
    AreaPolynomial,
    brute_force_area_polynomial,
    build_area_polynomials,
    catalan_number,
    eval_G_truncated,
    partition_series,
    table_to_csv,
    table_to_json,
)
from dyckarea.errors import DivergenceError, DomainError, ResourceLimitError
from dyckarea.qseries import EvalSettings, g_cfrac

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012, 742900, 2674440]


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


class TestRecurrenceTable:
    def test_small_rows_frozen(self):
        table = build_area_polynomials(4)
        assert table.row(0).coeffs == (1,)
        assert table.row(1).coeffs == (1,)
        assert table.row(2).coeffs == (1, 1)
        assert table.row(3).coeffs == (1, 2, 1, 1)
        assert table.row(4).coeffs == (1, 3, 3, 3, 2, 1, 1)

    def test_matches_oracle(self):
        table = build_area_polynomials(10)
        for n in range(11):
            assert table.row(n).coeffs == brute_force_area_polynomial(n).coeffs

    @pytest.mark.parametrize("n", range(13))
    def test_row_invariants(self, n):
        row = build_area_polynomials(12).row(n)
        assert row.total() == catalan_number(n) == CATALAN[n]
        assert row.coeffs[0] == 1
        assert row.coeffs[-1] == 1
        assert len(row.coeffs) == n * (n - 1) // 2 + 1

    def test_monotone_consistency(self):
        small = build_area_polynomials(8)
        large = build_area_polynomials(14)
        for n in range(9):
            assert small.row(n).coeffs == large.row(n).coeffs

    def test_area_cap_consistency(self):
        for n_max, m_max in [(20, 6), (60, 20), (46, 0)]:
            capped = build_area_polynomials(n_max, m_max=m_max)
            full = build_area_polynomials(n_max)
            for n in range(n_max + 1):
                want = full.row(n).coeffs[: m_max + 1]
                assert tuple(capped.row(n).coeffs)[: len(want)] == want

    @pytest.mark.parametrize("n_max, m_max", [(39, None), (60, 20)])
    def test_first_return_identity(self, n_max, m_max):
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
        table = build_area_polynomials(n_max, m_max=m_max)
        assert [list(row.coeffs) for row in table.rows] == rows

    @pytest.mark.parametrize(
        "n_max, m_max, digest",
        [
            (60, None, "1a09db91df40ab8671f21394a8e9e86900d7db54f6250551a4712633b5e447c7"),
            (170, 80, "d3294d081b4c86d363b407e6aae1c4a90b554e687fbd03aef7e39df555290863"),
        ],
        ids=["full-60", "capped-170-80"],
    )
    def test_golden_digest(self, n_max, m_max, digest):
        # sha256 of the CSV export, pinned from the first-return convolution
        # builder so that any change of builder keeps every count bit-identical
        text = table_to_csv(build_area_polynomials(n_max, m_max=m_max))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_column_access(self):
        table = build_area_polynomials(9)
        assert table.column(0) == [1] * 10
        assert table.column(1) == [0, 0, 1, 2, 3, 4, 5, 6, 7, 8]

    def test_resource_cap_names_n(self):
        with pytest.raises(ResourceLimitError, match="201"):
            build_area_polynomials(201)

    @pytest.mark.parametrize("n_max, m_max, cap", [
        (250, 250 * 249 // 2, 200),  # an area cap past every row is a full table
        (1281, 640, 1280),
    ])
    def test_resource_cap_before_build(self, n_max, m_max, cap):
        # either build would run for tens of seconds; the cap fails first
        start = time.process_time()
        with pytest.raises(ResourceLimitError, match=f"cap {cap}"):
            build_area_polynomials(n_max, m_max=m_max)
        assert time.process_time() - start < 1.0

    def test_negative(self):
        with pytest.raises(DomainError):
            build_area_polynomials(-1)
        with pytest.raises(DomainError):
            build_area_polynomials(5, m_max=-1)

    def test_row_length_validation(self):
        with pytest.raises(DomainError):
            AreaPolynomial(n=3, coeffs=(1, 2, 1))


@pytest.fixture(scope="module")
def table():
    return build_area_polynomials(40)


def _numerator(column, m):
    """Coefficients of (1-t)^(m+1) times the column polynomial, by binomials."""
    return [
        sum((-1) ** j * math.comb(m + 1, j) * column[k - j] for j in range(min(k, m + 1) + 1))
        for k in range(len(column))
    ]


_brute_row = functools.lru_cache(maxsize=None)(brute_force_area_polynomial)  # n = 14 takes 3 s


def _exact_q(m, t):
    """Q_m(t) = N_m(t)/(1-t)^(m+1) in Fraction arithmetic from brute-force rows."""
    column = [_brute_row(n).coeffs[m] if m <= n * (n - 1) // 2 else 0 for n in range(2 * m + 1)]
    x = Fraction(t)
    value = sum(c * x**k for k, c in enumerate(_numerator(column, m))) / (1 - x) ** (m + 1)
    return float(value)  # Fraction -> float rounds correctly


class TestPartitionSeries:
    def test_zero_area_geometric(self, table):
        assert partition_series(table, 0, 0.5) == 1.0 / (1.0 - 0.5)
        assert partition_series(table, 0, 0.3) == float(1 / (1 - Fraction(0.3)))
        assert table.column(0) == [1] * 41

    def test_area_one_at_origin(self, table):
        assert partition_series(table, 1, 0.0) == 0.0

    def test_area_one_column(self, table):
        assert table.column(1)[:6] == [0, 0, 1, 2, 3, 4]
        assert _numerator(table.column(1)[:3], 1) == [0, 0, 1]  # N_1 = t^2
        x = Fraction(0.3)
        assert partition_series(table, 1, 0.3) == float(x**2 / (1 - x) ** 2)

    def test_exact_near_one(self, table):
        # sums truncated at n <= 40 and n <= 70 gave 3851.4 and 6166.1 here
        assert partition_series(table, 3, 0.9) == 6633.900000000007 == _exact_q(3, 0.9)
        assert partition_series(table, 7, 0.999) == _exact_q(7, 0.999)

    @hypothesis.settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @hypothesis.given(m=st.integers(0, 7), t=st.floats(0.0, 0.9999))
    def test_correctly_rounded(self, table, m, t):
        assert partition_series(table, m, t) == _exact_q(m, t)

    @hypothesis.settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @hypothesis.given(m=st.integers(0, 40), t=st.floats(0.0, 0.999))
    def test_numerator_degree(self, m, t):
        long = build_area_polynomials(2 * m + 30, m_max=m)
        numerator = _numerator(long.column(m), m)
        assert numerator[2 * m + 1:] == [0] * 30  # deg N_m <= 2m on the data
        short = build_area_polynomials(2 * m, m_max=m)
        assert partition_series(short, m, t) == partition_series(long, m, t)

    def test_domain(self, table):
        with pytest.raises(DomainError):
            partition_series(table, -1, 0.3)
        with pytest.raises(DomainError):
            partition_series(table, 10**6, 0.3)
        with pytest.raises(DomainError, match="n = 42"):
            partition_series(build_area_polynomials(41, m_max=21), 21, 0.3)  # 41 < 2m
        with pytest.raises(DomainError):
            partition_series(table, 2, 1.0)
        with pytest.raises(DomainError, match="double range"):
            partition_series(build_area_polynomials(120, m_max=60), 60, 0.9999999)
        with pytest.raises(DomainError, match="area cap"):
            partition_series(build_area_polynomials(40, m_max=10), 15, 0.3)


class TestTruncatedG:
    def test_origin(self):
        assert eval_G_truncated(0.0, 0.7, 20) == 1.0

    def test_catalan_limit(self):
        value = eval_G_truncated(0.2, 1.0, 60)
        assert value == pytest.approx(1.3819660112501051, abs=1e-8)

    def test_cross_method(self):
        value = eval_G_truncated(0.2, 0.5, 60)
        assert value == pytest.approx(g_cfrac(0.2, EvalSettings(q=0.5)), abs=1e-10)

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


class TestSerialization:
    def test_csv(self):
        text = table_to_csv(build_area_polynomials(3))
        lines = text.strip().splitlines()
        assert lines[0] == "n,m,c"
        assert lines[1] == "0,0,1"
        assert "3,1,2" in lines

    def test_json_decimal_strings(self):
        payload = json.loads(table_to_json(build_area_polynomials(4)))
        assert payload["n_max"] == 4
        assert payload["rows"][4] == ["1", "3", "3", "3", "2", "1", "1"]
        assert all(isinstance(c, str) for row in payload["rows"] for c in row)
