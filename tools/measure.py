"""One trajectory point for a checkout: the README commands, the import
cost of the CLI, the source size and the three benchmark workloads; or
alternating benchmark pairs of two checkouts.

    python3 tools/measure.py [--root <checkout>]
    python3 tools/measure.py [--root <change>] --against <parent> [--pairs 10] [--seed 1]

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
* the line counts of ``src/dyckarea/*.py`` and of ``tests/*.py``;
* one run of the tier-1 suite (ROADMAP's Tier-1 verify command, with
  ``-p no:cacheprovider``) in a subprocess on ``<root>``: its wall time,
  exit code and passed and failed counts;
* in-process layers, each in a fresh subprocess importing ``<root>/src``:
  ``finite_size_phi`` over ``PHI_GRID`` (s in [-8, 3.5]), one untimed pass
  and then ``REPEATS`` timed blocks of ``PHI_PASSES`` passes (about 2 s of
  CPU together), with the ``float.hex`` digest of the values; and the CPU
  of the first ``finite_size_phi(1.0)`` of a fresh process, best of
  ``REPEATS`` processes;
* the three workloads through ``<root>/benchmarks/run.py`` at ``SEEDS``,
  folded by ``benchmarks/summarize.py::summarize``, with each run's timed
  CPU, set-up time and digest beside them;
* per workload, a sha256 over every op of its stored pool, run once in
  this process through ``cli.main`` of ``<root>/src`` and parsed by
  ``benchmarks/checks.py::parse``, of the exit code and the ``float.hex``
  of every parsed field. The run digests round to ten digits; this one
  changes with a single ulp.

It writes ``BENCH_<short sha of the checkout's HEAD>.json`` at the root of
the repository holding this script.

With ``--against``, it runs instead ``benchmarks/run.py`` of each checkout
on each of the three workloads, at one seed and ``run.py``'s run
length, ``--pairs`` times, alternating which side runs first. Per workload
and end-to-end metric of ``BENCHMARK.json`` it prints each side's median
and quartiles, the pairs the change wins and a verdict (``summarize_pairs``),
with the failed ops of each side and whether every run's digest agrees;
then every run as one JSON line on standard output.

It writes nothing under ``benchmarks/``; ``run.py`` itself keeps its run
records under ``<root>/.bench_run/``, which git ignores. It gates nothing.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
REPEATS = 5
SEEDS = (1, 2, 3)
WORKLOADS = ("critical_scans", "exact_tables", "point_queries")

# finite_size_phi's layer: s = -8 .. 3.5 by 0.05
PHI_GRID = tuple(k / 20.0 for k in range(-160, 71))
PHI_PASSES = 80

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


# ROADMAP's Tier-1 verify command, writing no pytest cache into the checkout
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")


def measure_tier1(root: Path) -> dict:
    """One run of the tier-1 suite on ``<root>/src``: wall time, exit code,
    the passed and failed counts and pytest's summary line."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=_env(root), capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1]
    counts = {key: int(n) for n, key in re.findall(r"(\d+) (passed|failed)", summary)}
    print(f"tier-1: {wall:.1f} s wall, {summary}", file=sys.stderr)
    return {"wall_s": wall, "exit": proc.returncode, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "summary": summary}


def _run_snippet(root: Path, code: str) -> dict:
    """Run ``code`` in a fresh interpreter on ``<root>/src`` and read the one JSON line it prints."""
    proc = subprocess.run([sys.executable, "-c", code], env=_env(root), capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def measure_layers(root: Path) -> dict:
    """CPU of in-process calls, timed with ``time.process_time`` around the calls alone."""
    phi = _run_snippet(root, f"""
import hashlib, json, time
from dyckarea.asymptotics import finite_size_phi
grid = {PHI_GRID!r}
values = [finite_size_phi(s) for s in grid]
blocks = []
for _ in range({REPEATS}):
    start = time.process_time()
    for _ in range({PHI_PASSES}):
        for s in grid:
            finite_size_phi(s)
    blocks.append(time.process_time() - start)
print(json.dumps({{"blocks_s": blocks,
                  "sha256": hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()}}))
""")
    first = [_run_snippet(root, """
import json, time
from dyckarea.asymptotics import finite_size_phi
start = time.process_time()
finite_size_phi(1.0)
print(json.dumps(time.process_time() - start))
""") for _ in range(REPEATS)]
    calls = PHI_PASSES * len(PHI_GRID)
    layers = {"finite_size_phi": {
        "grid": [PHI_GRID[0], PHI_GRID[-1], len(PHI_GRID)], "calls_per_block": calls,
        "timed_cpu_s": sum(phi["blocks_s"]), "best_us_per_call": 1e6 * min(phi["blocks_s"]) / calls,
        "blocks_s": phi["blocks_s"], "values_sha256": phi["sha256"],
        "first_call_cpu_ms": [1000.0 * t for t in first], "best_first_call_cpu_ms": 1000.0 * min(first)}}
    print(f"finite_size_phi: {layers['finite_size_phi']['best_us_per_call']:.1f} us a call, first call "
          f"{layers['finite_size_phi']['best_first_call_cpu_ms']:.2f} ms, values {phi['sha256'][:16]}",
          file=sys.stderr)
    return layers


def _bench_run(root: Path, workload: str, seed: int) -> dict:
    """One untraced ``benchmarks/run.py`` run of ``<root>``: its run record."""
    proc = subprocess.run([sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
                           "--seed", str(seed)], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root} {workload} seed {seed}: run.py exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    path = root / ".bench_run" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


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
            record = _bench_run(root, workload, seed)
            records.append(record)
            runs.append({"workload": workload, "seed": seed, "cpu_s": record["cpu_s"],
                         "setup_s": record["metrics"]["setup_s"]["value"],
                         "attempted": record["attempted"], "failed": record["failed"],
                         "digest": record["digest"]})
            print(f"{workload} seed {seed}: timed cpu {record['cpu_s']:.3f} s, "
                  f"setup {runs[-1]['setup_s']:.4f} s", file=sys.stderr)
    return {"summary": summarize(records), "runs": runs}


def _hex_text(value) -> str:
    """A parsed field as text, every float as its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{_hex_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_hex_text, value)) + "]"
    return repr(value)


def measure_pool_digests(root: Path) -> dict:
    """Per workload, the sha256 of every stored pool op's exit code and
    parsed fields in ``float.hex``, the ops run in this process as
    tests/test_benchmark_pools.py runs them. Writes nothing under ``benchmarks/``."""
    sys.dont_write_bytecode = True  # no bytecode cache under benchmarks/
    sys.path.insert(0, str(root / "src"))
    from dyckarea import cli

    modules = {}
    for name in ("workloads", "checks"):
        spec = importlib.util.spec_from_file_location(f"_bench_{name}", root / "benchmarks" / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(modules[name])
    workloads, checks = modules["workloads"], modules["checks"]
    digests = {}
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "op.out"
        for workload in WORKLOADS:
            digest = hashlib.sha256()
            for _, ops in sorted(workloads.load_pool(workload)["cells"].items()):
                for op in ops:
                    out.unlink(missing_ok=True)
                    stdout = io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                        rc = cli.main([str(out) if a == workloads.OUT else a for a in op["argv"]])
                    text = out.read_text(encoding="utf-8") if out.exists() else None
                    fields = checks.parse(op["kind"], stdout.getvalue(), text)
                    digest.update(f"{rc} {_hex_text(fields)}\n".encode())
            digests[workload] = digest.hexdigest()
            print(f"{workload} pool digest {digests[workload][:16]}", file=sys.stderr)
    return digests


def _quartiles(values: list[float]) -> list[float]:
    """[first quartile, median, third quartile]."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize_pairs(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric (``BENCHMARK.json``'s ``end_to_end`` entries),
    from (parent, change) metric dicts of alternating runs: each side's
    quartiles, the relative change of the median, the pairs the change wins
    (ties count for neither), and a verdict, in this order:

    * ``better``: of at least 10 pairs the change wins at least 9 in 10,
      and its median is better by more than the parent's interquartile range;
    * ``unresolved``: either side's interquartile range, relative to its
      median, is wider than the bound, and not every change run beats every
      parent run;
    * ``worse``: the change's median is worse by more than the bound;
    * ``within bound`` otherwise.
    """
    summary = {}
    for metric in end_to_end:
        name, bound, sign = metric["name"], metric["bound"], 1.0 if metric["better"] == "lower" else -1.0
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        (p1, pm, p3), (c1, cm, c3) = _quartiles(parent), _quartiles(change)
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
        separated = all(sign * (c - p) < 0.0 for p in parent for c in change)
        spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
        gain = sign * (pm - cm)  # > 0: the change is better
        if len(pairs) >= 10 and 10 * wins >= 9 * len(pairs) and gain > p3 - p1:
            verdict = "better"
        elif spread > bound and not separated:
            verdict = "unresolved"
        elif -gain > bound * abs(pm):
            verdict = "worse"
        else:
            verdict = "within bound"
        summary[name] = {"parent_quartiles": [p1, pm, p3], "change_quartiles": [c1, cm, c3],
                         "median_change": (cm - pm) / pm if pm else math.nan, "wins": wins,
                         "pairs": len(pairs), "spread": spread, "bound": bound, "verdict": verdict}
    return summary


def measure_pairs(change: Path, parent: Path, seed: int, pairs: int) -> dict:
    """``pairs`` alternating untraced runs of each checkout per workload."""
    end_to_end = json.loads((HERE / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    result = {}
    for workload in WORKLOADS:
        runs = []
        for i in range(pairs):
            order = [("parent", parent), ("change", change)][::1 if i % 2 == 0 else -1]
            records = {side: _bench_run(root, workload, seed) for side, root in order}
            runs.append({"first": order[0][0], **{side: {
                "metrics": {k: m["value"] for k, m in r["metrics"].items()},
                "attempted": r["attempted"], "failed": r["failed"], "digest": r["digest"]}
                for side, r in records.items()}})
            print(f"{workload} pair {i + 1}/{pairs}: op_p50_ms parent "
                  f"{runs[-1]['parent']['metrics']['op_p50_ms']:.4g}, change "
                  f"{runs[-1]['change']['metrics']['op_p50_ms']:.4g}", file=sys.stderr)
        summary = summarize_pairs([(r["parent"]["metrics"], r["change"]["metrics"]) for r in runs], end_to_end)
        digests = {r[side]["digest"] for r in runs for side in ("parent", "change")}
        failed = {side: f"{sum(r[side]['failed'] for r in runs)}/{sum(r[side]['attempted'] for r in runs)}"
                  for side in ("parent", "change")}
        print(f"{workload}, seed {seed}, {pairs} pairs: digests {'equal' if len(digests) == 1 else 'DIFFER'}, "
              f"failed ops parent {failed['parent']}, change {failed['change']}")
        for name, m in summary.items():
            print(f"  {name:12s} parent {m['parent_quartiles'][1]:.4g} [{m['parent_quartiles'][0]:.4g}, "
                  f"{m['parent_quartiles'][2]:.4g}]  change {m['change_quartiles'][1]:.4g} "
                  f"[{m['change_quartiles'][0]:.4g}, {m['change_quartiles'][2]:.4g}]  "
                  f"{m['median_change']:+.1%}  wins {m['wins']}/{m['pairs']}  {m['verdict']}")
        result[workload] = {"seed": seed, "runs": runs, "summary": summary}
    return result


def _lines(paths) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in paths)


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=HERE, help="the checkout to measure")
    parser.add_argument("--against", type=Path, help="a parent checkout: run alternating benchmark pairs")
    parser.add_argument("--pairs", type=int, default=10, help="--against: pairs per workload")
    parser.add_argument("--seed", type=int, default=1, help="--against: the workloads' seed")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.against is not None:
        pairs = measure_pairs(root, args.against.resolve(), args.seed, args.pairs)
        print(json.dumps({"change": _git(root, "rev-parse", "HEAD"),
                          "parent": _git(args.against.resolve(), "rev-parse", "HEAD"), "pairs": pairs}))
        return 0
    sha = _git(root, "rev-parse", "--short", "HEAD")
    # every timed process loads the same cached bytecode, as run.py arranges
    compileall.compile_dir(str(root / "src" / "dyckarea"), quiet=1, maxlevels=0)
    point = {
        "commit": _git(root, "rev-parse", "HEAD"),
        "src_changed_since_commit": bool(_git(root, "status", "--porcelain", "--", "src")),
        "measured": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "nproc": os.cpu_count()},
        "src_lines": _lines((root / "src" / "dyckarea").glob("*.py")),
        "tests_lines": _lines((root / "tests").glob("*.py")),
        "tier1": measure_tier1(root),
        "import_dyckarea_cli": measure_import(root),
        "layers": measure_layers(root),
        "readme_commands": measure_commands(root),
        "workloads": measure_workloads(root),
        "pool_digests": measure_pool_digests(root),
    }
    dest = HERE / f"BENCH_{sha}.json"
    dest.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {dest}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
