"""One sample of a checkout, behind both its trajectory point and
alternating pairs of two checkouts.

    python3 tools/measure.py [--root <checkout>]
    python3 tools/measure.py [--root <change>] --against <parent> [--pairs 10] [--seed 1]

Stdlib only. A sample of the checkout at ``--root`` (default: the one
holding this script), on ``PYTHONPATH=<root>/src`` with its bytecode
compiled, takes one reading of each of:

* every ``dyckarea`` line of the "## Command line" block of the README
  beside this script, as ``python -m dyckarea ...`` in an empty temporary
  directory: wall time, max RSS, exit code, the sha256 of stdout and of
  each file written, and, from one more run under ``-X importtime``,
  whether it loads numpy;
* ``-X importtime`` of ``import dyckarea.cli``, and whether it loads numpy;
* in a fresh process, the CPU of the first ``finite_size_phi(1.0)``, then,
  after an untimed pass over ``PHI_GRID``, of ``PHI_PASSES`` passes, and
  the ``float.hex`` digest of the values;
* ``<root>/benchmarks/run.py`` on each workload at the seed;
* the tier-1 suite (ROADMAP's Tier-1 verify command, with
  ``-p no:cacheprovider``): wall time, exit code, passed and failed counts.

Without ``--against`` it samples at each of ``SEEDS`` and writes
``BENCH_<short sha of the checkout's HEAD>.json`` at the root of the
repository holding this script: each time, best and per sample (max RSS:
the largest); the first sample's outputs and whether all repeat; the runs
folded by ``benchmarks/summarize.py::summarize``; the src and tests line
counts; and per workload a sha256 of the exit code and ``float.hex`` fields
of every stored pool op, run in this process (it moves with one ulp).

With ``--against`` it samples both checkouts at ``--seed``, ``--pairs``
times, alternating which goes first, and prints for every numeric reading
each side's median and quartiles, the pairs the change wins and a verdict
(``summarize_pairs``; a workload metric with the direction and bound of
``BENCHMARK.json``, any other lower is better within ``OWN_BOUND``); per
part, whether the outputs (exit codes, digests, counts, failed ops, numpy)
of all samples agree; then all of it as one JSON line.

It writes nothing under ``benchmarks/``; ``run.py`` keeps its records
under ``<root>/.bench_run/``, which git ignores. It gates nothing.
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
SEEDS = (1, 2, 3)
WORKLOADS = ("critical_scans", "exact_tables", "point_queries")

# finite_size_phi's layer: s = -8 .. 3.5 by 0.05, about 0.7 s of CPU a pass block
PHI_GRID = tuple(k / 20.0 for k in range(-160, 71))
PHI_PASSES = 130

# the bound of a reading BENCHMARK.json does not list (README commands, import,
# tier-1, phi). An A/A run (one commit twice, 10 pairs, seed 1, 2 busy cores)
# read relative IQRs of 0.10-0.14 for tier-1, within it, and 0.19-0.51 for
# the README walls, the import and phi, which it left unresolved
OWN_BOUND = 0.2

# ROADMAP's Tier-1 verify command, writing no pytest cache into the checkout
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")

# the -X importtime line of the top-level numpy package
_NUMPY_LINE = re.compile(rb"^import time:\s+\d+ \|\s+\d+ \|\s*numpy$", re.MULTILINE)


def readme_commands(readme: str) -> list[list[str]]:
    """The argv after ``dyckarea`` of every line of the README's command-line block."""
    block = readme.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line.split("#")[0])[1:] for line in block.splitlines() if line.startswith("dyckarea ")]


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


def _phi(root: Path) -> dict:
    """The first call and one timed block of ``finite_size_phi`` in a fresh
    interpreter, CPU by ``time.process_time`` around the calls alone."""
    code = f"""
import hashlib, json, time
from dyckarea.asymptotics import finite_size_phi
start = time.process_time()
finite_size_phi(1.0)
first = time.process_time() - start
grid = {PHI_GRID!r}
values = [finite_size_phi(s) for s in grid]
start = time.process_time()
for _ in range({PHI_PASSES}):
    for s in grid:
        finite_size_phi(s)
print(json.dumps([first, time.process_time() - start,
                  hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()]))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=_env(root), capture_output=True, text=True, check=True)
    first, block, digest = json.loads(proc.stdout)
    return {"first_call_cpu_ms": 1000.0 * first, "block_s": block,
            "us_per_call": 1e6 * block / (PHI_PASSES * len(PHI_GRID)), "values_sha256": digest}


def _bench_run(root: Path, workload: str, seed: int) -> dict:
    """One untraced ``benchmarks/run.py`` run of ``<root>``: its run record,
    without the per-op latencies and failure statuses."""
    proc = subprocess.run([sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
                           "--seed", str(seed)], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root} {workload} seed {seed}: run.py exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    path = root / ".bench_run" / "results" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    return {key: record[key] for key in ("workload", "seed", "trace", "metrics", "cpu_s", "attempted",
                                         "failed", "digest", "versions")}


def sample(root: Path, seed: int) -> dict:
    """One reading of every part of the checkout at ``root``."""
    compileall.compile_dir(str(root / "src" / "dyckarea"), quiet=1, maxlevels=0)  # as run.py arranges
    env = _env(root)
    commands = []
    for argv in readme_commands((HERE / "README.md").read_text(encoding="utf-8")):
        run = _run_once([sys.executable, "-m", "dyckarea", *argv], env)
        probe = _run_once([sys.executable, "-X", "importtime", "-m", "dyckarea", *argv], env)
        commands.append({"command": shlex.join(argv), "exit": run["exit"], "wall_ms": 1000.0 * run["wall_s"],
                         "max_rss_mb": run["max_rss_mb"], "stdout_sha256": _sha256(run["stdout"]),
                         "files_sha256": run["files"], "loads_numpy": bool(_NUMPY_LINE.search(probe["stderr"]))})
    code = "import dyckarea.cli, sys; print('numpy' in sys.modules)"
    run = _run_once([sys.executable, "-X", "importtime", "-c", code], env)
    cumulative = re.search(rb"^import time:\s+\d+ \|\s+(\d+) \| dyckarea\.cli$", run["stderr"], re.MULTILINE)
    phi = _phi(root)
    workloads = {workload: _bench_run(root, workload, seed) for workload in WORKLOADS}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1]
    counts = {key: int(n) for n, key in re.findall(r"(\d+) (passed|failed)", summary)}
    taken = {"seed": seed, "readme_commands": commands,
             "import_dyckarea_cli": {"cumulative_ms": int(cumulative.group(1)) / 1000.0,
                                     "loads_numpy": run["stdout"].strip() == b"True"},
             "finite_size_phi": phi, "workloads": workloads,
             "tier1": {"wall_s": wall, "exit": proc.returncode, "passed": counts.get("passed", 0),
                       "failed": counts.get("failed", 0), "summary": summary}}
    print(f"{root} seed {seed}: README {sum(c['wall_ms'] for c in commands):.0f} ms, phi "
          f"{phi['us_per_call']:.2f} us a call, tier-1 {wall:.1f} s ({summary})", file=sys.stderr)
    return taken


def readings(taken: dict) -> dict[str, float]:
    """Every numeric reading of a sample, named ``<part>: <reading>``."""
    out = {f"{row['command']}: {key}": row[key]
           for row in taken["readme_commands"] for key in ("wall_ms", "max_rss_mb")}
    out["import dyckarea.cli: cumulative_ms"] = taken["import_dyckarea_cli"]["cumulative_ms"]
    out["tier-1: wall_s"] = taken["tier1"]["wall_s"]
    phi = taken["finite_size_phi"]
    out.update({f"finite_size_phi: {key}": phi[key] for key in ("us_per_call", "first_call_cpu_ms")})
    for workload, record in taken["workloads"].items():
        out.update({f"{workload}: {name}": m["value"] for name, m in record["metrics"].items()})
    return out


def outputs(taken: dict) -> dict[str, list]:
    """Per part of a sample, what every sample of either side should repeat."""
    out = {row["command"]: [row["exit"], row["stdout_sha256"], row["files_sha256"], row["loads_numpy"]]
           for row in taken["readme_commands"]}
    out["import dyckarea.cli"] = [taken["import_dyckarea_cli"]["loads_numpy"]]
    out["tier-1"] = [taken["tier1"][key] for key in ("exit", "passed", "failed")]
    out["finite_size_phi"] = [taken["finite_size_phi"]["values_sha256"]]
    out.update({w: [r["digest"], f"{r['failed']}/{r['attempted']}"] for w, r in taken["workloads"].items()})
    return out


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


def compare(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """From (parent, change) samples: ``summarize_pairs`` of every reading,
    and per part each side's distinct outputs and whether they all agree."""
    listed = {m["name"]: m for m in end_to_end}
    metrics = []
    for name in readings(pairs[0][0]):
        part, reading = name.rsplit(": ", 1)
        spec = listed[reading] if part in WORKLOADS else {"better": "lower", "bound": OWN_BOUND}
        metrics.append(dict(spec, name=name))
    summary = summarize_pairs([(readings(p), readings(c)) for p, c in pairs], metrics)
    seen = {part: {"parent": [], "change": []} for part in outputs(pairs[0][0])}
    for pair in pairs:
        for side, taken in zip(("parent", "change"), pair):
            for part, value in outputs(taken).items():
                seen[part][side] += [] if value in seen[part][side] else [value]
    for s in seen.values():
        s["agree"] = len(s["parent"]) == 1 and s["parent"] == s["change"]
    return {"summary": summary, "outputs": seen}


def report(result: dict) -> list[str]:
    """``compare``'s result as text, one block per part."""
    lines = []
    for part, s in result["outputs"].items():
        lines.append(f"{part}: outputs " + ("agree" if s["agree"] else
                                            f"DIFFER: parent {s['parent']}, change {s['change']}"))
        for name, m in result["summary"].items():
            if name.startswith(f"{part}: "):
                (p1, pm, p3), (c1, cm, c3) = m["parent_quartiles"], m["change_quartiles"]
                lines.append(f"  {name[len(part) + 2:]:18s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} "
                             f"[{c1:.4g}, {c3:.4g}]  {m['median_change']:+.1%}  wins {m['wins']}/{m['pairs']}  "
                             f"{m['verdict']}")
    return lines


def measure_pairs(change: Path, parent: Path, seed: int, pairs: int) -> dict:
    """``pairs`` alternating samples of each checkout at ``seed``."""
    end_to_end = json.loads((HERE / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    taken = []
    for i in range(pairs):
        order = [("parent", parent), ("change", change)][::1 if i % 2 == 0 else -1]
        sides = {side: sample(root, seed) for side, root in order}
        taken.append((sides["parent"], sides["change"]))
    result = compare(taken, end_to_end)
    print(f"seed {seed}, {pairs} pairs, the parent first in odd-numbered pairs")
    print("\n".join(report(result)))
    return dict(result, seed=seed, samples=[{"parent": p, "change": c} for p, c in taken])


def _hex_text(value) -> str:
    """A parsed field as text, every float as its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{_hex_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_hex_text, value)) + "]"
    return repr(value)


def _bench_module(root: Path, name: str):
    """``<root>/benchmarks/<name>.py``, imported without writing bytecode there."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", root / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure_pool_digests(root: Path) -> dict:
    """Per workload, the sha256 of every stored pool op's exit code and
    parsed fields in ``float.hex``, the ops run in this process as
    tests/test_benchmark_pools.py runs them. Writes nothing under ``benchmarks/``."""
    sys.path.insert(0, str(root / "src"))
    from dyckarea import cli

    workloads, checks = _bench_module(root, "workloads"), _bench_module(root, "checks")
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


def point(root: Path) -> dict:
    """A sample at each of ``SEEDS``, folded: the best of each time beside
    every sample's, and the first sample's outputs with whether all repeat."""
    taken = [sample(root, seed) for seed in SEEDS]
    repeatable = {part: all(outputs(s)[part] == value for s in taken) for part, value in outputs(taken[0]).items()}
    commands = []
    for i, row in enumerate(taken[0]["readme_commands"]):
        walls = [s["readme_commands"][i]["wall_ms"] for s in taken]
        commands.append(dict(row, best_wall_ms=min(walls), wall_ms=walls, repeatable=repeatable[row["command"]],
                             max_rss_mb=max(s["readme_commands"][i]["max_rss_mb"] for s in taken)))
    imports, tier1 = [s["import_dyckarea_cli"]["cumulative_ms"] for s in taken], [s["tier1"]["wall_s"] for s in taken]
    phi = [s["finite_size_phi"] for s in taken]
    blocks, first = [p["block_s"] for p in phi], [p["first_call_cpu_ms"] for p in phi]
    records = [s["workloads"][workload] for workload in WORKLOADS for s in taken]
    return {
        "tier1": dict(taken[0]["tier1"], best_wall_s=min(tier1), wall_s=tier1, repeatable=repeatable["tier-1"]),
        "import_dyckarea_cli": {"best_cumulative_ms": min(imports), "cumulative_ms": imports,
                                "loads_numpy": all(s["import_dyckarea_cli"]["loads_numpy"] for s in taken)},
        "layers": {"finite_size_phi": {
            "grid": [PHI_GRID[0], PHI_GRID[-1], len(PHI_GRID)], "calls_per_block": PHI_PASSES * len(PHI_GRID),
            "timed_cpu_s": sum(blocks), "best_us_per_call": min(p["us_per_call"] for p in phi), "blocks_s": blocks,
            "values_sha256": phi[0]["values_sha256"], "repeatable": repeatable["finite_size_phi"],
            "first_call_cpu_ms": first, "best_first_call_cpu_ms": min(first)}},
        "readme_commands": commands,
        "workloads": {"summary": _bench_module(root, "summarize").summarize(records), "runs": [
            {"workload": r["workload"], "seed": r["seed"], "cpu_s": r["cpu_s"],
             "setup_s": r["metrics"]["setup_s"]["value"], "attempted": r["attempted"], "failed": r["failed"],
             "digest": r["digest"]} for r in records]},
        "pool_digests": measure_pool_digests(root),
    }


def _lines(paths) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in paths)


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=HERE, help="the checkout to measure")
    parser.add_argument("--against", type=Path, help="a parent checkout: take alternating pairs of samples")
    parser.add_argument("--pairs", type=int, default=10, help="--against: the number of pairs")
    parser.add_argument("--seed", type=int, default=1, help="--against: the workloads' seed")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.against is not None:
        pairs = measure_pairs(root, args.against.resolve(), args.seed, args.pairs)
        print(json.dumps({"change": _git(root, "rev-parse", "HEAD"),
                          "parent": _git(args.against.resolve(), "rev-parse", "HEAD"), "pairs": pairs}))
        return 0
    sha = _git(root, "rev-parse", "--short", "HEAD")
    measured = {
        "commit": _git(root, "rev-parse", "HEAD"),
        "src_changed_since_commit": bool(_git(root, "status", "--porcelain", "--", "src")),
        "measured": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {"python": platform.python_version(), "platform": platform.platform(), "nproc": os.cpu_count()},
        "src_lines": _lines((root / "src" / "dyckarea").glob("*.py")),
        "tests_lines": _lines((root / "tests").glob("*.py")),
        "seeds": list(SEEDS),
        **point(root),
    }
    dest = HERE / f"BENCH_{sha}.json"
    dest.write_text(json.dumps(measured, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {dest}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
