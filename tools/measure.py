"""One trajectory point for a checkout: the README commands, the import
cost of the CLI, the source size and the three benchmark workloads.

    python3 tools/measure.py [--root <checkout>]

Stdlib only. For the checkout at ``--root`` (default: the one holding this
script) it records:

* each command of README's "## Command line" block (``COMMANDS``), run as
  ``python -m dyckarea ...`` in a fresh subprocess, in an empty temporary
  directory, with ``PYTHONPATH=<root>/src`` and the package's bytecode
  compiled beforehand: the best of ``REPEATS`` wall times, the largest max
  RSS (``os.wait4``), the exit code, and the sha256 of stdout and of each
  file the command writes; and, from one more run under ``-X importtime``
  outside that timing, whether the command loads numpy;
* the best of ``REPEATS`` ``-X importtime`` cumulative times of
  ``import dyckarea.cli``, and whether that import loads numpy;
* the line count of ``src/dyckarea/*.py``;
* the three workloads through ``<root>/benchmarks/run.py`` at ``SEEDS``,
  folded by ``benchmarks/summarize.py::summarize``, with each run's timed
  CPU, set-up time and digest beside them.

It writes ``BENCH_<short sha of the checkout's HEAD>.json`` at the root of
the repository holding this script. It writes nothing under
``benchmarks/``; ``run.py`` itself keeps its run records under
``<root>/.bench_run/``, which git ignores. It gates nothing.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
REPEATS = 5
SEEDS = (1, 2, 3)
WORKLOADS = ("critical_scans", "exact_tables", "point_queries")

# the README's "## Command line" block, without its comments
# (tests/test_datasets_cli.py::TestReadme keeps the two in step)
COMMANDS = (
    "eval --t 0.2 --q 0.5 --method cfrac",
    "scan --kind g_vs_t --q 0.990049834 --t-min 0 --t-max 0.45 --steps 90 --out fig_g.csv",
    "scan --kind phase_boundary --q-min 0.3 --q-max 0.99 --steps 20 --out boundary.csv",
    "scan --kind scaling_fn --eps-list 1e-3,1e-4,1e-5 --s-min -2 --s-max 2 --steps 80 --out fs.csv",
    "scan --kind partition --t 0.24 --m-list 20,40,80 --out qm.csv",
    "enumerate --n-max 12 --verify-brute-force 12",
    "scaling --s 0 --eps 1e-4",
    "partition --m 40 --t 0.2286",
    "validate",
)


def _env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_once(argv: list[str], env: dict) -> dict:
    """One fresh process in an empty directory: wall time, max RSS, exit
    code and the digests of stdout and of every file left in the directory."""
    with tempfile.TemporaryDirectory() as work, tempfile.TemporaryFile() as out, \
            tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        files = {p.name: _sha256(p.read_bytes()) for p in sorted(Path(work).iterdir())}
        return {"wall_s": wall, "max_rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode,
                "stdout": out.read(), "stderr": err.read(), "files": files}


# the -X importtime line of the top-level numpy package
_NUMPY_LINE = re.compile(rb"^import time:\s+\d+ \|\s+\d+ \|\s*numpy$", re.MULTILINE)


def measure_commands(root: Path) -> list[dict]:
    env = _env(root)
    rows = []
    for command in COMMANDS:
        runs = [_run_once([sys.executable, "-m", "dyckarea", *shlex.split(command)], env)
                for _ in range(REPEATS)]
        first = runs[0]
        probe = _run_once([sys.executable, "-X", "importtime", "-m", "dyckarea", *shlex.split(command)], env)
        rows.append({
            "command": command,
            "exit": first["exit"],
            "best_wall_ms": 1000.0 * min(r["wall_s"] for r in runs),
            "wall_ms": [1000.0 * r["wall_s"] for r in runs],
            "max_rss_mb": max(r["max_rss_mb"] for r in runs),
            "loads_numpy": _NUMPY_LINE.search(probe["stderr"]) is not None,
            "stdout_sha256": _sha256(first["stdout"]),
            "files_sha256": first["files"],
            "repeatable": all((r["exit"], r["stdout"], r["files"])
                              == (first["exit"], first["stdout"], first["files"]) for r in runs),
        })
        print(f"{rows[-1]['best_wall_ms']:8.1f} ms {rows[-1]['max_rss_mb']:6.1f} MB  exit {first['exit']}"
              f"  numpy {'yes' if rows[-1]['loads_numpy'] else 'no '}  {command}", file=sys.stderr)
    return rows


def measure_import(root: Path) -> dict:
    """``-X importtime`` of ``import dyckarea.cli``: the cumulative time of
    its top-level line, best of ``REPEATS``, and whether numpy was loaded."""
    code = "import dyckarea.cli, sys; print('numpy' in sys.modules)"
    argv = [sys.executable, "-X", "importtime", "-c", code]
    times, loads = [], set()
    for _ in range(REPEATS):
        run = _run_once(argv, _env(root))
        cumulative = re.search(rb"^import time:\s+\d+ \|\s+(\d+) \| dyckarea\.cli$",
                               run["stderr"], re.MULTILINE)
        times.append(int(cumulative.group(1)) / 1000.0)
        loads.add(run["stdout"].strip() == b"True")
    return {"best_cumulative_ms": min(times), "cumulative_ms": times, "loads_numpy": loads == {True}}


def measure_workloads(root: Path) -> dict:
    bench = root / "benchmarks"
    sys.dont_write_bytecode = True  # import summarize.py without a cache under benchmarks/
    sys.path.insert(0, str(bench))
    try:
        from summarize import summarize
    finally:
        sys.path.remove(str(bench))
    records, runs = [], []
    for workload in WORKLOADS:
        for seed in SEEDS:
            proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", workload,
                                   "--seed", str(seed)], cwd=root, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-2000:]}")
            path = root / ".bench_run" / "results" / f"{workload}-seed{seed}-trace0.json"
            record = json.loads(path.read_text(encoding="utf-8"))
            records.append(record)
            runs.append({"workload": workload, "seed": seed, "cpu_s": record["cpu_s"],
                         "setup_s": record["metrics"]["setup_s"]["value"],
                         "attempted": record["attempted"], "failed": record["failed"],
                         "digest": record["digest"]})
            print(f"{workload} seed {seed}: timed cpu {record['cpu_s']:.3f} s, "
                  f"setup {runs[-1]['setup_s']:.4f} s", file=sys.stderr)
    return {"summary": summarize(records), "runs": runs}


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=HERE, help="the checkout to measure")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sha = _git(root, "rev-parse", "--short", "HEAD")
    # every timed process loads the same cached bytecode, as run.py arranges
    compileall.compile_dir(str(root / "src" / "dyckarea"), quiet=1, maxlevels=0)
    point = {
        "commit": _git(root, "rev-parse", "HEAD"),
        "src_changed_since_commit": bool(_git(root, "status", "--porcelain", "--", "src")),
        "measured": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "nproc": os.cpu_count()},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in (root / "src" / "dyckarea").glob("*.py")),
        "import_dyckarea_cli": measure_import(root),
        "readme_commands": measure_commands(root),
        "workloads": measure_workloads(root),
    }
    dest = HERE / f"BENCH_{sha}.json"
    dest.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {dest}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
