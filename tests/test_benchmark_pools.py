"""Every op of the benchmark's stored pools, run in-process, passes its check.

Each op of ``benchmarks/reference/*.json`` (192 ``critical_scans``, 1173
``point_queries`` and 250 ``exact_tables`` ops) goes through ``cli.main``
and then ``checks.parse`` and ``checks.check``, as the benchmark's child does,
and none may fail. So a change that moves values but keeps them inside the
benchmark's bounds is a fact here, and a move past a bound fails here and
not only in a benchmark run.

This pins agreement with the stored references, which are the program's own
early output, not an independent oracle. That includes the 5 ``g_vs_t`` ops
past the pole line whose ``G_cfrac`` references are 1.5e-12 to 2.6e-11 off
(ROADMAP item 2b): a change that corrects those values fails here until the
references are rebuilt. The test only reads ``benchmarks/``: no bytecode is
written.
"""

import contextlib
import importlib.util
import io
import pathlib
import sys

import pytest

from dyckarea import cli

BENCH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_benchmark_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return _load("workloads"), _load("checks")
    finally:
        sys.dont_write_bytecode = saved


@pytest.mark.parametrize("workload", ["critical_scans", "point_queries", "exact_tables"])
def test_every_pool_op_passes(bench, tmp_path, workload):
    workloads, checks = bench
    pool = workloads.load_pool(workload)
    out = tmp_path / "op.out"
    failed = []
    for cell, ops in sorted(pool["cells"].items()):
        for op in ops:
            argv = [str(out) if a == workloads.OUT else a for a in op["argv"]]
            out.unlink(missing_ok=True)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            try:
                if rc != op["expect_exit"]:
                    raise checks.CheckError(f"exit {rc}, expected {op['expect_exit']}")
                text = out.read_text(encoding="utf-8") if out.exists() else None
                checks.check(op, checks.parse(op["kind"], stdout.getvalue(), text), pool.get("row_digests"))
            except (checks.CheckError, ValueError, KeyError, StopIteration) as exc:
                failed.append((cell, " ".join(op["argv"]), str(exc)[:200]))
    assert pool["cells"] and failed == []
