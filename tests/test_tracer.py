"""The benchmark's tracer against the library: every traced op still runs.

``benchmarks/tracer.py`` wraps the package's public functions and reads some
of their arguments: the ``EvalSettings`` of ``h_series`` and ``g_ratio`` (its
q and ``bits_for``) and the depth ``g_cfrac`` reports. A change to one of
those signatures fails here, and not only in a benchmark run with
``--trace 1``. The test only reads ``benchmarks/``: no bytecode is written.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]

_OPS = [
    ["eval", "--t", "0.2", "--q", "0.5", "--method", "ratio"],
    ["eval", "--t", "0.263", "--eps", "1.296e-4", "--method", "cfrac"],
    ["enumerate", "--n-max", "6"],
    ["scan", "--kind", "g_vs_t", "--q", "0.9", "--steps", "5", "--out", "g_vs_t.csv"],
]


def test_traced_ops_run(tmp_path):
    script = textwrap.dedent(f"""
        import contextlib, io, json
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        from dyckarea import cli
        codes = []
        for argv in {_OPS!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        print(json.dumps({{"codes": codes, "calls": sorted(tracer.calls)}}))
    """)
    path = [str(ROOT / "src"), str(ROOT / "benchmarks"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["codes"] == [0] * len(_OPS), res.stderr
    assert {"qseries.g_ratio", "qseries.g_cfrac", "enumeration.build_area_polynomials",
            "datasets.write_dataset"} <= set(out["calls"])
