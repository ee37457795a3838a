"""Scan datasets, serialization determinism, and the command-line surface."""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time

import pytest

from dyckarea import cli, datasets, qseries
from dyckarea.datasets import (
    ScanDataset,
    scan_g_vs_t,
    scan_partition,
    scan_phase_boundary,
    scan_scaling_fn,
    write_dataset,
)
from dyckarea.enumeration import AreaPolynomial, brute_force_area_polynomial, build_area_polynomials
from dyckarea.errors import DomainError, PoleProximityError
from dyckarea.qseries import EvalSettings, g_cfrac, g_ratio


@pytest.fixture
def run_cli(capsys):
    """Run ``cli.main`` in this process; the result reads like a finished subprocess."""
    def run(*args):
        rc = cli.main(list(args))
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, rc, out, err)
    return run


class TestScanDatasets:
    def test_ragged_columns_rejected(self):
        with pytest.raises(DomainError):
            ScanDataset(kind="x", columns={"a": [1, 2], "b": [1]})

    def test_g_vs_t(self):
        ds = scan_g_vs_t(0.9, 0.0, 0.3, 7)
        assert list(ds.columns) == ["t", "G_cfrac", "G_uniform"]
        assert ds.n_rows == 7
        assert ds.columns["G_cfrac"][0] == 1.0  # empty-path value at t = 0
        assert math.isnan(ds.columns["G_uniform"][0])  # outside (0, 1/2)
        assert ds.metadata["q"] == 0.9

    @pytest.mark.parametrize("name", ["t_min", "t_max", "s_min", "s_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_range_rejected(self, name, value):
        # checked before the grid is built; the error names the argument
        if name.startswith("t"):
            scan, kwargs = scan_g_vs_t, dict(q=0.9, t_min=0.1, t_max=0.2, steps=3)
        else:
            scan, kwargs = scan_scaling_fn, dict(eps_list=[1e-2], s_min=-1.0, s_max=1.0, steps=3)
        kwargs[name] = value
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            scan(**kwargs)

    @pytest.mark.parametrize("steps", [1, 0, -3])
    def test_fewer_than_two_steps_rejected(self, steps):
        # the one check is in the grid, where steps = 1 would divide by zero
        for scan, args in ((scan_g_vs_t, (0.9, 0.1, 0.2)), (scan_phase_boundary, (0.5, 0.6)),
                           (scan_scaling_fn, ([1e-2], -1.0, 1.0))):
            with pytest.raises(DomainError, match="steps must be >= 2"):
                scan(*args, steps)

    @pytest.mark.parametrize("eps", [-1000.0, 0.0, math.nan, math.inf])
    def test_scaling_fn_rejects_bad_eps(self, eps):
        # exp(-eps) overflowed for eps = -1000 and gave q = 1 or 0 for the others
        with pytest.raises(DomainError, match="eps must be finite and positive"):
            scan_scaling_fn([1e-2, eps], -1.0, 1.0, 3)

    def test_phase_boundary_monotone(self):
        ds = scan_phase_boundary(0.3, 0.99, 8)
        t_inf = ds.columns["t_infinity"]
        assert all(b < a for a, b in zip(t_inf, t_inf[1:]))
        assert t_inf[-1] == pytest.approx(0.25, abs=0.03)

    def test_scaling_fn_columns(self):
        ds = scan_scaling_fn([1e-3], -1.0, 1.0, 5)
        assert "F_exact" in ds.columns
        assert "F_from_cfrac_eps0.001" in ds.columns
        assert "F_from_uniform_eps0.001" in ds.columns
        err = max(
            abs(a - b)
            for a, b in zip(ds.columns["F_from_uniform_eps0.001"], ds.columns["F_exact"])
        )
        assert err < 0.2
        # t(s, eps) from 0.255 down to -0.125: the uniform form is NaN for t <= 0,
        # the continued fraction finite everywhere
        wide = scan_scaling_fn([1e-3], -2.0, 150.0, 3)
        ts = [0.25 * (1.0 - s * (1.0 - math.exp(-1e-3)) ** (2.0 / 3.0)) for s in wide.columns["s"]]
        uniform = wide.columns["F_from_uniform_eps0.001"]
        assert [math.isnan(v) for v in uniform] == [not 0.0 < t < 0.5 for t in ts] == [False, False, True]
        assert all(math.isfinite(v) for v in wide.columns["F_from_cfrac_eps0.001"])

    def test_partition_scan(self):
        ds = scan_partition(0.24, [10, 20])
        assert ds.columns["m"] == [10, 20]
        assert ds.metadata["n_max"] == 40
        assert all(v > 0 for v in ds.columns["Q_exact"])
        assert all(v > 0 for v in ds.columns["Q_asymptotic"])
        assert ds.columns["tail_estimate"] == [0.0, 0.0]
        # the finite-size form needs m >= 10: NaN below, as `partition --m 5` omits it
        small = scan_partition(0.25, [5, 10])
        assert math.isnan(small.columns["Q_asymptotic"][0]) and small.columns["Q_asymptotic"][1] > 0
        assert all(v > 0 for v in small.columns["Q_exact"])
        # phi sets its own truncation, so the metadata carries no depth
        assert "j_max" not in ds.metadata
        with pytest.raises(DomainError):
            scan_partition(0.2, [])

    def test_csv_deterministic(self):
        a = scan_g_vs_t(0.8, 0.05, 0.2, 5).to_csv()
        b = scan_g_vs_t(0.8, 0.05, 0.2, 5).to_csv()
        assert a == b
        assert a.splitlines()[0] == "t,G_cfrac,G_uniform"

    def test_stamp_breaks_determinism_only_in_metadata(self):
        stamped = scan_phase_boundary(0.5, 0.6, 2, stamp=True)
        assert "timestamp" in stamped.metadata
        plain = scan_phase_boundary(0.5, 0.6, 2)
        assert "timestamp" not in plain.metadata
        assert stamped.columns == plain.columns

    def test_json_round_trip(self, tmp_path):
        ds = scan_phase_boundary(0.5, 0.7, 3)
        path = tmp_path / "scan.json"
        write_dataset(ds, str(path), "json")
        payload = json.loads(path.read_text())
        assert payload["kind"] == "phase_boundary"
        assert len(payload["columns"]["q"]) == 3

    def test_unknown_format(self, tmp_path):
        ds = scan_phase_boundary(0.5, 0.7, 2)
        with pytest.raises(DomainError):
            write_dataset(ds, str(tmp_path / "x.bin"), "parquet")


class TestCli:
    def test_eval_cfrac(self, run_cli):
        res = run_cli("eval", "--t", "0.2", "--q", "0.5", "--method", "cfrac")
        assert res.returncode == 0
        assert float(res.stdout.splitlines()[0]) == pytest.approx(1.2879385149528385, abs=1e-10)
        assert "method=cfrac" in res.stdout
        assert res.stderr == ""  # the evaluation's debug log goes nowhere by default

    def test_eval_ratio_origin(self, run_cli):
        res = run_cli("eval", "--t", "0", "--q", "0.5", "--method", "ratio")
        assert res.returncode == 0
        assert float(res.stdout.splitlines()[0]) == pytest.approx(1.0, abs=1e-12)

    def test_eval_ratio_reports_precision_used(self, run_cli):
        res = run_cli("eval", "--t", "0.25", "--eps", "1e-3", "--method", "ratio")
        assert res.returncode == 0
        printed = int(re.search(r"precision_bits=(\d+)", res.stdout).group(1))
        expected = g_ratio(0.25, EvalSettings(q=math.exp(-1e-3)), full_output=True)
        assert printed == expected.precision_bits
        assert float(res.stdout.splitlines()[0]) == expected.value

    def test_eval_ratio_with_sums_past_the_double_range(self, run_cli):
        # |H(t)| and |H(qt)| pass 2^1024 at t = 1e20; their ratio does not
        res = run_cli("eval", "--t", "1e20", "--eps", "0.1", "--method", "ratio")
        assert (res.returncode, res.stderr) == (0, "")
        assert float(res.stdout.splitlines()[0]) == g_ratio(1e20, EvalSettings(q=math.exp(-0.1)))

    def test_eval_ratio_that_cannot_stop_exits_at_once(self, run_cli):
        start = time.process_time()
        res = run_cli("eval", "--t", "0.2", "--eps", "1e-6", "--method", "ratio")
        assert time.process_time() - start < 1.0
        assert (res.returncode, res.stdout) == (3, "")
        assert res.stderr.startswith("non-convergence: ")

    def test_eval_uniform_close_to_cfrac(self, run_cli):
        near = run_cli("eval", "--t", "0.2", "--q", "0.99", "--method", "uniform")
        exact = run_cli("eval", "--t", "0.2", "--q", "0.99", "--method", "cfrac")
        a = float(near.stdout.splitlines()[0])
        b = float(exact.stdout.splitlines()[0])
        assert abs(a - b) / b < 0.02

    def test_eval_series_accepts_catalan_limit(self, run_cli):
        res = run_cli("eval", "--t", "0.2", "--q", "1.0", "--method", "series")
        assert res.returncode == 0
        assert float(res.stdout.splitlines()[0]) == pytest.approx(1.3819660112501051, abs=1e-6)

    @pytest.mark.parametrize("t, q, label", [("0.2", "0.5", "certified"), ("0.26", "0.9", "estimated")])
    def test_eval_series_states_its_tail(self, run_cli, t, q, label):
        # the dropped tail is bounded below t = 1/4 and estimated past it
        res = run_cli("eval", "--t", t, "--q", q, "--method", "series", "--n-max", "40")
        value = float(res.stdout.splitlines()[0])
        provenance = res.stdout.splitlines()[1]
        tail = float(re.fullmatch(r"# method=series truncation_n=40 tail_bound=(\S+) " + label,
                                  provenance).group(1))
        dropped = g_cfrac(float(t), float(q)) - value
        assert abs(dropped) <= (1.0 if label == "certified" else 2.0) * tail

    @pytest.mark.parametrize("t, q", [("1e10", "1.0"), ("1e10", "0.5"), ("0.25", "1.0"), ("0.4", "0.9")])
    def test_eval_series_divergence_exit_code(self, run_cli, t, q):
        # past the radius the command exits 3 with one line on stderr: at
        # q = 1 from t = 1/4 on, and for q < 1 where a term leaves the double
        # range (no overflow traceback, no exit 1) or the last terms grow
        # (t_inf(0.9) = 0.36298)
        res = run_cli("eval", "--t", t, "--q", q, "--method", "series")
        assert (res.returncode, res.stdout) == (3, "")
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("non-convergence: ")

    def test_eval_eps_flag(self, run_cli):
        res = run_cli("eval", "--t", "0.2", "--eps", str(math.log(2.0)), "--method", "cfrac")
        assert float(res.stdout.splitlines()[0]) == pytest.approx(1.2879385149528385, abs=1e-9)

    def test_usage_errors(self, run_cli):
        assert run_cli("eval", "--t", "0.2", "--method", "cfrac").returncode == 64
        assert run_cli("eval", "--t", "0.2", "--q", "0.5", "--eps", "0.1",
                       "--method", "cfrac").returncode == 64
        assert run_cli("nonsense").returncode == 64

    def test_domain_error_exit(self, run_cli):
        assert run_cli("eval", "--t", "0.2", "--q", "1.5", "--method", "cfrac").returncode == 2

    def test_non_convergence_exit(self, run_cli):
        # the zeta-coefficient series diverges outside |s| < |s_1|
        res = run_cli("scaling", "--s", "2.4")
        assert res.returncode == 3
        assert res.stdout == ""  # no part of the result before the failure

    def test_io_error_exit(self, run_cli):
        res = run_cli("scan", "--kind", "phase_boundary", "--q-min", "0.5", "--q-max", "0.6",
                      "--steps", "2", "--out", "/nonexistent-dir/out.csv")
        assert res.returncode == 74

    def test_enumerate_row(self, tmp_path, run_cli):
        out = tmp_path / "table.json"
        res = run_cli("enumerate", "--n-max", "4", "--format", "json", "--out", str(out))
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["rows"][4] == ["1", "3", "3", "3", "2", "1", "1"]

    def test_enumerate_trivial(self, run_cli):
        res = run_cli("enumerate", "--n-max", "0")
        assert res.returncode == 0
        assert res.stdout.splitlines()[1] == "0,0,1"

    def test_enumerate_verified(self, run_cli):
        res = run_cli("enumerate", "--n-max", "8", "--format", "csv",
                      "--out", "/dev/null", "--verify-brute-force", "8")
        assert res.returncode == 0
        assert res.stdout.count("PASS") == 9

    def test_enumerate_verify_mismatch(self, monkeypatch, run_cli):
        # an oracle row that differs in one count fails at that row and area
        def oracle(n):
            row = brute_force_area_polynomial(n)
            if n < 5:
                return row
            return AreaPolynomial(n=n, coeffs=row.coeffs[:3] + (row.coeffs[3] + 1,) + row.coeffs[4:])

        monkeypatch.setattr(cli, "brute_force_area_polynomial", oracle)
        res = run_cli("enumerate", "--n-max", "6", "--out", "/dev/null", "--verify-brute-force", "6")
        assert res.returncode == 1
        c = build_area_polynomials(6).rows[5].coeffs[3]
        assert res.stdout.splitlines()[-2:] == [
            "PASS row n=4 (14 paths)", f"FAIL row n=5: first differing entry m=3 ({c} != {c + 1})"]

    def test_enumerate_verify_past_cap_fails_fast(self, run_cli):
        # the oracle's cap is checked before the table is built or printed
        start = time.process_time()
        res = run_cli("enumerate", "--n-max", "16", "--verify-brute-force", "15")
        assert time.process_time() - start < 1.0
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == ("domain error: brute-force enumeration of 9694845 paths at n = 15 "
                              "is past the desk-scale cap 14\n")

    def test_scan_writes_deterministic_file(self, tmp_path, run_cli):
        args = ("scan", "--kind", "g_vs_t", "--q", "0.9", "--t-min", "0.05",
                "--t-max", "0.2", "--steps", "4", "--format", "csv")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(p1)).returncode == 0
        assert run_cli(*args, "--out", str(p2)).returncode == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_scan_g_cfrac_for_negative_t(self, tmp_path, run_cli):
        # the continued fraction is defined and stable for t < 0: the scan
        # writes the value eval prints, not NaN
        out = tmp_path / "g.csv"
        assert run_cli("scan", "--kind", "g_vs_t", "--q", "0.9", "--t-min", "-0.2", "--t-max", "0.2",
                       "--steps", "3", "--out", str(out)).returncode == 0
        row = out.read_text().splitlines()[1].split(",")
        res = run_cli("eval", "--t", "-0.2", "--q", "0.9", "--method", "cfrac")
        assert float(row[0]) == -0.2
        assert float(row[1]) == float(res.stdout.splitlines()[0]) == 0.852663464714294

    # sha256 of the CSV each README scan writes, run as the README writes it
    @pytest.mark.parametrize("argv, digest", [
        # re-pinned when the negative-axis Airy phase came to be formed
        # exactly: 18 G_uniform values moved, by 2.5e-13 relative at most (t = 0.399);
        # and when the fixed-point Airy series took over |x| <= 4.5: 12 moved,
        # by 2.2e-14 relative at most (t = 0.298); and when the scalar
        # continued fraction's weights became t * libm pow(q, k): 18 of the
        # 90 G_cfrac values moved, by 1.0e-14 relative at most (t = 0.278)
        ("scan --kind g_vs_t --q 0.990049834 --t-min 0 --t-max 0.45 --steps 90",
         "99c161f68546802ae548362c34e2f1e23b84545ca5d402ddb69137485f62164d"),
        # re-pinned when t_infinity came to bisect on the continued fraction's
        # sign count: every root moved, by 8.1e-11 relative at most (tol 1e-10)
        ("scan --kind phase_boundary --q-min 0.3 --q-max 0.99 --steps 20",
         "3f9f3fe2cfaa1b81c9eb801af73cefa4bde9142a84077ff6c98a96b524a090d4"),
        # re-pinned with the fixed-point Airy series: Q_asymptotic at m = 80
        # moved by 1.2e-16 relative
        ("scan --kind partition --t 0.24 --m-list 20,40,80",
         "b3f8362e35a592309194122c29f1ec7ee72fb5af15234075b75ac8e1cc6e5518"),
        # six F_from_uniform_eps0.5 rows lie outside (0, 1/2) in t: NaN; re-pinned
        # when the continued fraction became cut where its tail enclosure closes
        # (the largest move: F_from_cfrac_eps0.01 at s = -1, 1.5e-14 relative),
        # and when the scan came to call g_cfrac at each t's own cut: 21 of the
        # 26 values of G moved, by 3.2e-15 relative at most, and none lies
        # farther than 5.7e-15 from the 200-bit oracle (8.6e-15 before); and
        # with the fixed-point Airy series: F_exact moved by 2.6e-14 relative
        # at most (s = 3, now within 1.6e-16 of 300-bit mpmath at every s),
        # F_from_uniform_eps0.01 by 1.2e-13 (s = 3); and with libm weights
        # in the scalar continued fraction: 1 of the 26 F_from_cfrac values
        # moved, F_from_cfrac_eps0.01 at s = -3, by 4.6e-15 relative
        ("scan --kind scaling_fn --eps-list 0.5,1e-2 --s-min -3 --s-max 3 --steps 13",
         "dba36ccb9251c5ec4f651ac6d466a63aaf5c4e378ef25c88286207b87510a783"),
    ], ids=["g_vs_t", "phase_boundary", "partition", "scaling_fn"])
    def test_readme_scan_digest(self, tmp_path, run_cli, argv, digest):
        out = tmp_path / "scan.csv"
        assert run_cli(*argv.split(), "--out", str(out)).returncode == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # sha256 of the standard output of the README's table commands, run as written
    @pytest.mark.parametrize("argv, digest", [
        ("enumerate --n-max 12 --verify-brute-force 12",
         "d6dfa4bb78c25611776a3b37456a19f5f51f241e1a2b838c75732cb6f55d3d7b"),
        # re-pinned with the fixed-point Airy series: the asymptotic line
        # moved by 2.5e-16 relative
        ("partition --m 40 --t 0.2286",
         "ae1a2090ff6ec59dd02a35b927a375d482a765e061a29c032a8f015dbe82f49f"),
        # m < 10: no finite-size form, so no asymptotic line
        ("partition --m 5 --t 0.2",
         "2b56c78cdc8538f492d9cfcfb2c8e9bfd05dbafc7bdc3715830b95f6c58a4a88"),
        # re-pinned with the fixed-point Airy series: F(0) is now the ratio
        # of the correctly rounded Ai'(0) and Ai(0), 1 ulp (1.5e-16) from A0
        ("scaling --s 0 --eps 1e-4",
         "248cc7a829c14d3e7d5ea01c444240c66dda807cb65643fb86480e59bf9f6096"),
        # the two Airy routes at one point, with their provenance lines
        ("eval --t 0.2 --eps 1e-3 --method scaling",
         "089594835844f54d0f5fb6679965ec3e7bbbfffc657d78c15984bf407b36a977"),
        ("eval --t 0.2 --eps 1e-3 --method uniform",
         "163888cca35f62fa015749330d68c36dfcb4c351f078c882241a0c6d7e2531f1"),
    ], ids=["enumerate", "partition", "partition_small_m", "scaling",
            "eval_scaling", "eval_uniform"])
    def test_readme_stdout_digest(self, run_cli, argv, digest):
        res = run_cli(*argv.split())
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("breakdown", ["zero_division", "inf"])
    def test_cfrac_breakdown(self, monkeypatch, tmp_path, run_cli, breakdown):
        # the scalar loop breaks down at t = 0.2 alone, by a vanishing
        # denominator or an infinite value: g_cfrac raises a pole error, each
        # scan writes NaN in that row and eval exits with the domain code; the
        # scaling_fn scan's middle s maps to t = 0.2 at eps 0.1
        real = qseries._cfrac_scalar

        def scalar(t, q, depth):
            if abs(t - 0.2) > 1e-12:
                return real(t, q, depth)
            if breakdown == "zero_division":
                raise ZeroDivisionError("float division by zero")
            return math.inf, 0

        monkeypatch.setattr(qseries, "_cfrac_scalar", scalar)
        with pytest.raises(PoleProximityError):
            qseries.g_cfrac(0.2, 0.9)
        out = tmp_path / "g.csv"
        assert run_cli("scan", "--kind", "g_vs_t", "--q", "0.9", "--t-min", "0", "--t-max", "0.4",
                       "--steps", "3", "--out", str(out)).returncode == 0
        g_cfrac = [float(row.split(",")[1]) for row in out.read_text().splitlines()[1:]]
        assert math.isfinite(g_cfrac[0]) and math.isnan(g_cfrac[1]) and math.isfinite(g_cfrac[2])
        s = 0.2 / (1.0 - math.exp(-0.1)) ** (2.0 / 3.0)
        assert run_cli("scan", "--kind", "scaling_fn", "--eps-list", "0.1", "--s-min", "0", "--s-max", repr(2 * s),
                       "--steps", "3", "--out", str(out)).returncode == 0
        f_cfrac = [float(row.split(",")[2]) for row in out.read_text().splitlines()[1:]]
        assert math.isfinite(f_cfrac[0]) and math.isnan(f_cfrac[1]) and math.isfinite(f_cfrac[2])
        res = run_cli("eval", "--t", "0.2", "--q", "0.9", "--method", "cfrac")
        assert res.returncode == 2
        assert res.stderr.startswith("domain error:")

    def test_scan_scaling_requires_eps_list(self, tmp_path, run_cli):
        res = run_cli("scan", "--kind", "scaling_fn", "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 64

    def test_partition_command(self, run_cli):
        res = run_cli("partition", "--m", "20", "--t", "0.216")
        assert res.returncode == 0
        assert "ratio" in res.stdout

    def test_partition_line_parses(self, run_cli):
        # the README command; this line format is parsed by existing tools
        res = run_cli("partition", "--m", "40", "--t", "0.2286")
        assert res.returncode == 0
        line = re.match(r"^Q_\d+\(.*?\) = (\S+)  \(n <= (\d+), tail ~ (\S+), ok=(\w+)\)$",
                        res.stdout.splitlines()[0])
        assert line is not None
        assert int(line.group(2)) <= 80
        assert float(line.group(3)) == 0.0
        assert line.group(4) == "True"

    def test_partition_exact_near_one(self, run_cli):
        res = run_cli("partition", "--m", "3", "--t", "0.9")
        assert res.returncode == 0
        assert res.stdout.startswith("Q_3(0.9) = 6633.900000000007  (n <= 6, ")
        assert "ok=True" in res.stdout

    def test_partition_table_too_short(self, tmp_path, run_cli):
        assert run_cli("partition", "--m", "40", "--t", "0.2", "--n-max", "79").returncode == 2
        res = run_cli("scan", "--kind", "partition", "--m-list", "10,40", "--t", "0.2",
                      "--n-max", "79", "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2

    @pytest.mark.parametrize("argv, message", [
        ("partition --m -1 --t 0.2", "area -1 must be >= 0"),
        ("scan --kind partition --m-list -1 --t 0.2 --out /dev/null", "area -1 must be >= 0"),
        ("partition --m 641 --t 0.25", "(cap 640); lower m"),
    ])
    def test_table_error_names_the_input(self, run_cli, argv, message):
        # a negative area is not reported as a negative table length, and an
        # area past the cap is reported as such
        res = run_cli(*argv.split())
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("domain error: ")
        assert message in res.stderr

    def test_partition_n_max_sizes_nothing(self, run_cli):
        # --n-max sizes no build: it is only echoed, and the column runs to n = 2m
        plain = run_cli("partition", "--m", "20", "--t", "0.25")
        long = run_cli("partition", "--m", "20", "--t", "0.25", "--n-max", "1281")
        assert long.returncode == 0
        assert long.stdout == plain.stdout.replace("(n <= 40,", "(n <= 1281,")
        assert "(n <= 1281," in long.stdout

    @pytest.fixture
    def column_builds(self, monkeypatch):
        """Calls of ``area_columns`` made through the datasets layer."""
        calls, build = [], datasets.area_columns

        def spy(m_values):
            calls.append(m_values)
            return build(m_values)

        monkeypatch.setattr(datasets, "area_columns", spy)
        return calls

    @pytest.mark.parametrize("argv", [
        "partition --m 640 --t 0.2286",
        "partition --m 700 --t 0.2286",  # also past the area cap
        "scan --kind partition --m-list 10,640 --t 0.2286 --out /dev/null",
    ])
    def test_asymptotic_fails_before_build(self, run_cli, column_builds, argv):
        # the finite-size series does not converge at m = 640, t = 0.2286: the
        # command exits 3 without the column build (about 8 s at m = 640)
        res = run_cli(*argv.split())
        assert res.returncode == 3
        assert res.stdout == ""
        assert column_builds == []

    @pytest.mark.parametrize("argv", [
        "partition --m 640 --t 0.25 --n-max 1279",
        "scan --kind partition --m-list 10,640 --t 0.25 --n-max 1279 --out /dev/null",
    ])
    def test_short_table_fails_before_build(self, run_cli, column_builds, argv):
        # an --n-max below 2m exits 2 without the column build (about 8 s at
        # m = 640)
        res = run_cli(*argv.split())
        assert res.returncode == 2
        assert res.stdout == ""
        assert "Q_640 needs the table to n = 1280, it stops at 1279" in res.stderr
        assert column_builds == []

    def test_partition_builds_no_table(self, run_cli, column_builds):
        # partition reads its column from one height pass, not from a table
        calls = build_area_polynomials.cache_info()[:2]
        assert run_cli("partition", "--m", "40", "--t", "0.2286").returncode == 0
        assert build_area_polynomials.cache_info()[:2] == calls
        assert column_builds == [[40]]

    def test_partition_and_scan_agree(self, tmp_path, run_cli):
        # both commands take the finite-size law from the same zeta sums
        point = run_cli("partition", "--m", "40", "--t", "0.2286")
        out = tmp_path / "scan.csv"
        scan = run_cli("scan", "--kind", "partition", "--m-list", "40", "--t", "0.2286",
                       "--out", str(out))
        assert point.returncode == 0 and scan.returncode == 0
        single = point.stdout.split("phi(s) = ")[1].split()[0]
        header, row = out.read_text().splitlines()
        assert row.split(",")[header.split(",").index("Q_asymptotic")] == single

    def test_scaling_command(self, run_cli):
        res = run_cli("scaling", "--s", "0", "--eps", "1e-4")
        assert res.returncode == 0
        assert "-0.729011" in res.stdout

    def test_validate(self, run_cli):
        res = run_cli("validate")
        assert res.returncode == 0
        assert res.stdout.count("PASS") == 5
        assert "FAIL" not in res.stdout

    def test_validate_counts_failures(self, monkeypatch, capsys):
        # a broken series fails the scaling identity, and the summary counts it
        monkeypatch.setattr(cli, "scaling_F_series", lambda s, j_max=40: 0.0)
        assert cli.main(["validate"]) == cli.EXIT_MISMATCH
        out = capsys.readouterr().out
        assert "FAIL scaling_identity" in out
        assert out.rstrip().endswith("FAILED: 4/5 checks passed")

    def test_module_entry_point(self):
        # the one run through ``python -m``: its output and the exit codes of a
        # parse error and of a domain error raised while running
        def run(*args):
            return subprocess.run([sys.executable, "-m", "dyckarea.cli", *args],
                                  capture_output=True, text=True)

        ok = run("eval", "--t", "0.2", "--q", "0.5", "--method", "cfrac")
        assert ok.returncode == 0
        assert float(ok.stdout.splitlines()[0]) == pytest.approx(1.2879385149528385, abs=1e-10)
        assert run("nonsense").returncode == 64
        bad = run("eval", "--t", "0.2", "--q", "1.5", "--method", "cfrac")
        assert bad.returncode == 2
        assert "Traceback" not in bad.stderr

    def test_package_entry_point(self):
        # ``python -m dyckarea`` runs the same command line
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        res = subprocess.run([sys.executable, "-m", "dyckarea", "--version"],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0
        assert res.stdout.startswith("dyckarea ")

    def test_repeated_calls_share_no_state(self, run_cli):
        # one parser serves every call; nothing parsed in one call reaches the
        # next: two ratio calls at different t each print what a fresh process prints
        assert cli.build_parser() is cli.build_parser()
        calls = [("eval", "--t", t, "--q", "0.5", "--method", "ratio") for t in ("0.2", "0.1")]
        outputs = [run_cli(*argv).stdout for argv in calls]
        fresh = [subprocess.run([sys.executable, "-m", "dyckarea.cli", *argv], capture_output=True, text=True).stdout
                 for argv in calls]
        assert outputs == fresh and outputs[0] != outputs[1]
        assert run_cli("eval", "--t", "0.2", "--method", "cfrac").returncode == 64
        assert run_cli("eval", "--t", "0.2", "--q", "0.5", "--method", "cfrac").returncode == 0
        assert run_cli("nonsense").returncode == 64
        assert run_cli("eval", "--t", "0.2", "--q", "0.5", "--method", "ratio").returncode == 0

    @pytest.mark.parametrize("argv, name", [
        ("eval --t nan --q 0.5 --method series", "t"),
        ("eval --t inf --q 0.5 --method series", "t"),
        ("scan --kind g_vs_t --q 0.9 --t-min nan --steps 3 --out /dev/null", "t_min"),
        ("scan --kind g_vs_t --q 0.9 --t-max inf --steps 3 --out /dev/null", "t_max"),
        ("scan --kind scaling_fn --eps-list 1e-2 --s-min nan --steps 3 --out /dev/null", "s_min"),
        ("scan --kind scaling_fn --eps-list 1e-2 --s-max inf --steps 3 --out /dev/null", "s_max"),
    ])
    def test_non_finite_input_is_named(self, run_cli, argv, name):
        res = run_cli(*argv.split())
        assert res.returncode == 2
        assert f"domain error: {name} must be finite" in res.stderr

    @pytest.mark.parametrize("argv, code", [
        # eval takes no --tol: every sum of H stops on its certified tail bound
        ("eval --t 0.2 --q 0.5 --method ratio --tol 1e-6", 64),
        ("eval --t 0.2 --q 0.5 --method cfrac --tol 1e-6", 64),
        ("scan --kind phase_boundary --q-min 0.5 --q-max 0.6 --steps 2 --tol 0 --out /dev/null", 2),
        ("scan --kind phase_boundary --q-min 0.5 --q-max 0.6 --steps 2 --tol nan --out /dev/null", 2),
        ("eval --t nan --q 0.5 --method ratio", 2),
        ("eval --t inf --q 0.5 --method ratio", 2),
        ("eval --t nan --q 0.5 --method cfrac", 2),
        ("eval --t inf --q 0.5 --method cfrac", 2),
        ("scan --kind partition --m-list 10,,20 --t 0.2 --out /dev/null", 64),
        # phi stops on its certified tail: no partition command takes a depth,
        # and the scan's areas come from --m-list alone
        ("scan --kind partition --m-max 5 --t 0.2 --out /dev/null", 64),
        ("scan --kind partition --m-max 0 --t 0.2 --out /dev/null", 64),
        ("partition --m 40 --t 0.2 --j-max 24", 64),
        ("scan --kind partition --t 0.24 --m-list 20 --j-max 24 --out /dev/null", 64),
        # t outside [0, 1) fails as a domain error for every m, before the finite-size form
        ("partition --m 10 --t 1.0", 2),
        ("partition --m 20 --t -0.01", 2),
        ("scan --kind partition --t 1.0 --m-list 20 --out /dev/null", 2),
        ("scan --kind scaling_fn --eps-list 1e-3,abc --out /dev/null", 64),
        ("scaling --s 0 --eps 0", 2),
        ("scaling --s 0 --eps inf", 2),
        ("scaling --s 0 --j-max -3", 2),
        ("scaling --s 0 --j-max 0", 2),
        ("scaling --s 2.5", 3),
        # t(s, q) rounds away every digit of s this close to q = 1
        ("scaling --s 1 --eps 1e-16", 2),
        ("eval --t inf --q 0.5 --method scaling", 2),
        ("eval --t 1e308 --q 0.5 --method cfrac", 2),
        ("eval --t 0.2 --eps -1000 --method cfrac", 2),
        ("eval --t 0.2 --eps 0 --method series", 2),
        ("eval --t 0.2 --eps nan --method ratio", 2),
        ("scan --kind g_vs_t --eps -1000 --steps 3 --out /dev/null", 2),
        ("scan --kind scaling_fn --eps-list -1000 --steps 3 --out /dev/null", 2),
        ("scan --kind scaling_fn --eps-list 1e-2,inf --steps 3 --out /dev/null", 2),
        ("scan --kind g_vs_t --q 0.9 --steps 1 --out /dev/null", 2),
        ("scan --kind phase_boundary --steps 1 --out /dev/null", 2),
        ("scan --kind scaling_fn --eps-list 1e-2 --steps 1 --out /dev/null", 2),
        ("enumerate --n-max 3 --verify-brute-force 5", 64),
        ("enumerate --n-max 3 --verify-brute-force -1", 64),
        ("eval --t 0.2 --q 0.5 --method ratio --precision-bits 200", 64),
    ])
    def test_bad_input_exit_code(self, run_cli, argv, code):
        # main returns the documented code and lets no exception escape; a
        # failing command prints no part of its result
        res = run_cli(*argv.split())
        assert type(res.returncode) is int
        assert res.returncode == code
        if code:
            assert res.stdout == ""

    def test_option_census(self):
        # every option of every command: a knob added or removed is a
        # reviewed edit of this table
        census = {
            "eval": ["--t", "--q", "--eps", "--method", "--n-max"],
            "scan": ["--kind", "--q", "--eps", "--eps-list", "--t", "--t-min", "--t-max",
                     "--q-min", "--q-max", "--s-min", "--s-max", "--steps", "--m-list",
                     "--n-max", "--tol", "--out", "--format", "--stamp"],
            "enumerate": ["--n-max", "--format", "--out", "--verify-brute-force"],
            "scaling": ["--s", "--j-max", "--eps"],
            "partition": ["--m", "--t", "--n-max"],
            "validate": [],
        }
        found = {name: [opt for action in command._actions for opt in action.option_strings
                        if opt not in ("-h", "--help")]
                 for name, command in cli.build_parser().commands.items()}
        assert found == census


README = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_commands() -> list[list[str]]:
    """The argv of every ``dyckarea`` line of the README's command-line block."""
    block = README.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line.split("#")[0])[1:] for line in block.splitlines() if line.startswith("dyckarea ")]


class TestParsePaths:
    """``main`` hands a leading command word straight to that command's
    parser, one argparse pass; every argv gives the bytes, files and exit
    code of the top-level ``parse_args``, which parses twice."""

    ARGVS = _readme_commands() + [
        [], ["-h"], ["--version"], ["eval", "-h"], ["bogus"],
        ["eval", "--t", "x", "--q", "0.5", "--method", "cfrac"],  # a bad float
        ["eval", "--t", "0.2", "--q", "0.5"],  # no --method
        ["eval", "--t", "0.2", "--q", "0.5", "--eps", "0.1", "--method", "cfrac"],
        ["eval", "--t", "0.2", "--q", "0.5", "--method", "cfrac", "--bogus", "1"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "no-argv")
    def test_same_bytes_as_the_top_level_parse(self, argv, tmp_path, monkeypatch, capsys):
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        passes = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(parser, *args, **kwargs):
            passes.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        def run():
            code = cli.main(argv)
            out, err = capsys.readouterr()
            return code, out, err, {f.name: f.read_bytes() for f in tmp_path.iterdir()}

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        one_pass = run()
        assert len(passes) == 1, passes
        monkeypatch.setattr(cli, "_parse", lambda parser, argv: parser.parse_args(argv))
        assert run() == one_pass


class TestReadme:
    """The README's command-line documentation and the parser stay in step."""

    def test_flags_are_options(self):
        options = {flag for sub in cli.build_parser().commands.values() for flag in sub._option_string_actions}
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README))
        assert flags and flags <= options, sorted(flags - options)

    def test_command_lines_parse(self):
        commands = _readme_commands()
        assert len(commands) >= 9
        for argv in commands:
            cli.build_parser().parse_args(argv)  # exits 64 on a bad line

    def test_measure_runs_the_readme_commands(self):
        # tools/measure.py times the README's commands as written; only its
        # list is checked here, no timing runs
        path = pathlib.Path(__file__).parents[1] / "tools" / "measure.py"
        spec = importlib.util.spec_from_file_location("measure", path)
        measure = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(measure)
        assert [shlex.split(line) for line in measure.COMMANDS] == _readme_commands()
