"""Scan datasets, serialization determinism, and the command-line surface."""

import argparse
import hashlib
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
from dyckarea.qseries import EvalSettings, g_ratio


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
        ("scan --kind g_vs_t --q 0.990049834 --t-min 0 --t-max 0.45 --steps 90",
         "d202bfa60df001e4e1907485edf551d17a3f4a448621b2257775789baa2390aa"),
        ("scan --kind phase_boundary --q-min 0.3 --q-max 0.99 --steps 20",
         "6d53737c9c2001ad479cc55ee767610f69042ae1672c2965922a2e1b480efd72"),
        ("scan --kind partition --t 0.24 --m-list 20,40,80",
         "0daadbc199efc8fc2d20ddaab3ffee0ad13d4c5d6374474ad8b00ca0d754084b"),
        # six F_from_uniform_eps0.5 rows lie outside (0, 1/2) in t: NaN; re-pinned
        # when the continued fraction became cut where its tail enclosure closes
        # (the largest move: F_from_cfrac_eps0.01 at s = -1, 1.5e-14 relative),
        # and when the scan came to call g_cfrac at each t's own cut: 21 of the
        # 26 values of G moved, by 3.2e-15 relative at most, and none lies
        # farther than 5.7e-15 from the 200-bit oracle (8.6e-15 before)
        ("scan --kind scaling_fn --eps-list 0.5,1e-2 --s-min -3 --s-max 3 --steps 13",
         "6648141c8fa12497a60acd828160a6863248496ae472c2716c4d7b46e920a241"),
    ], ids=["g_vs_t", "phase_boundary", "partition", "scaling_fn"])
    def test_readme_scan_digest(self, tmp_path, run_cli, argv, digest):
        out = tmp_path / "scan.csv"
        assert run_cli(*argv.split(), "--out", str(out)).returncode == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # sha256 of the standard output of the README's table commands, run as written
    @pytest.mark.parametrize("argv, digest", [
        ("enumerate --n-max 12 --verify-brute-force 12",
         "d6dfa4bb78c25611776a3b37456a19f5f51f241e1a2b838c75732cb6f55d3d7b"),
        ("partition --m 40 --t 0.2286",
         "43891fc2d04f625fc2574663df870eebe5db41d68a6a67b748d873fd4a230f47"),
        # m < 10: no finite-size form, so no asymptotic line
        ("partition --m 5 --t 0.2",
         "2b56c78cdc8538f492d9cfcfb2c8e9bfd05dbafc7bdc3715830b95f6c58a4a88"),
        ("scaling --s 0 --eps 1e-4",
         "26ac66dadb746fb0eb639c7cf881b7ac49c5226c0feec4227edb8973005ad742"),
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
            return math.inf

        monkeypatch.setattr(qseries, "_cfrac_scalar", scalar)
        with pytest.raises(PoleProximityError):
            qseries.g_cfrac(0.2, EvalSettings(q=0.9))
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
        bad = run("eval", "--t", "0.2", "--q", "0.5", "--method", "cfrac", "--tol", "nan")
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
        # one parser serves every call; nothing parsed in one call reaches the next
        assert cli.build_parser() is cli.build_parser()
        loose = run_cli("eval", "--t", "0.2", "--q", "0.5", "--method", "ratio", "--tol", "1e-6")
        assert "terms=14 " in loose.stdout
        default = run_cli("eval", "--t", "0.2", "--q", "0.5", "--method", "ratio")
        assert "terms=16 " in default.stdout
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
        ("eval --t 0.2 --q 0.5 --method ratio --tol 0", 2),
        ("eval --t 0.2 --q 0.5 --method ratio --tol nan", 2),
        ("eval --t 0.2 --q 0.5 --method cfrac --tol 0", 2),
        ("eval --t 0.2 --q 0.5 --method cfrac --tol nan", 2),
        ("eval --t 0.2 --q 0.5 --method cfrac --tol 1e-323", 0),
        ("scan --kind phase_boundary --q-min 0.5 --q-max 0.6 --steps 2 --tol 0 --out /dev/null", 2),
        ("scan --kind phase_boundary --q-min 0.5 --q-max 0.6 --steps 2 --tol nan --out /dev/null", 2),
        ("eval --t nan --q 0.5 --method ratio", 2),
        ("eval --t inf --q 0.5 --method ratio", 2),
        ("eval --t nan --q 0.5 --method cfrac", 2),
        ("eval --t inf --q 0.5 --method cfrac", 2),
        ("scan --kind partition --m-list 10,,20 --t 0.2 --out /dev/null", 64),
        ("scan --kind partition --m-max 5 --t 0.2 --out /dev/null", 2),
        ("scan --kind partition --m-max 0 --t 0.2 --out /dev/null", 2),
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

    @pytest.mark.parametrize("kind, j_max", [("partition", 300), ("scan", 400)])
    def test_j_max_past_gamma_overflow(self, tmp_path, run_cli, kind, j_max):
        # from j = 258 on Gamma(2j/3 - 1/3) overflows and Z(j+1)/Gamma rounds
        # to 0.0: a larger j_max prints or writes what j_max = 257 does
        def partition(j_max):
            res = run_cli("partition", "--m", "40", "--t", "0.2", "--j-max", str(j_max))
            assert res.returncode == 0
            return res.stdout

        def scan(j_max):
            out = tmp_path / f"{j_max}.csv"
            assert run_cli("scan", "--kind", "partition", "--t", "0.24", "--m-list", "20",
                           "--j-max", str(j_max), "--out", str(out)).returncode == 0
            return out.read_text()

        run = {"partition": partition, "scan": scan}[kind]
        assert run(j_max) == run(257)


class TestReadme:
    """The README's command-line documentation and the parser stay in step."""

    README = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

    def test_flags_are_options(self):
        parser = cli.build_parser()
        [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {flag for sub in subparsers.choices.values() for flag in sub._option_string_actions}
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", self.README))
        assert flags and flags <= options, sorted(flags - options)

    def test_command_lines_parse(self):
        block = self.README.split("## Command line", 1)[1].split("```")[1]
        lines = [line.split("#")[0] for line in block.splitlines() if line.startswith("dyckarea ")]
        assert len(lines) >= 9
        for line in lines:
            cli.build_parser().parse_args(shlex.split(line)[1:])  # exits 64 on a bad line
