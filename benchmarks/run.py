"""The dyckarea benchmark: one command, every metric, checked outputs.

    python3 benchmarks/run.py --workload critical_scans [--seed 1] [--seconds 24] [--trace 0]

Run it from the root of a checkout; it imports the program from ``src/``.
Each run builds its op list from the seed, then starts fresh child
processes (``child.py``), one after the other:

* ``--trace 0``: four set-up-only children and the measured child. Each
  child's set-up time runs from process start to the first timed op; the
  median of the five is ``setup_s``. The measured child runs the op list as
  a closed loop with one client, checking every op, and gives ``ops_per_s``,
  ``op_p50_ms``, ``op_tail_ms`` and ``peak_rss_mb``.
* ``--trace 1``: an untraced child and a traced child on the same op list,
  sized to half the seconds so the pair fits one run. The traced child
  reports the per-layer metrics; ``trace.overhead_ratio`` is its timed total
  over the untraced child's.

Times are the child's CPU seconds (user + system; the program is
single-threaded and waits on nothing), scaled by the speed probe described
in ``child.py``. Raw CPU and wall times go into the run record.

The last line of standard output is the JSON result. The run's record
(metrics, statuses of failed ops, the digest of every computed value, the
machine and versions) and, for traced runs, the spans are written under
``.bench_run/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, NAMES, WARMUP, build_op_list, load_pool  # noqa: E402

SETUPS = 5
SETUP_LIMIT_S = 15.0
TAIL_BEYOND = 10
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}


class RunError(Exception):
    """A child process failed or overran; the run has no result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _spawn(workdir: Path, name: str, job: dict, limit: float) -> dict:
    """Run one child to completion; returns its result with ``t_spawn`` added."""
    job = dict(job, workdir=str(workdir), result=str(workdir / f"{name}.result.json"))
    job_path = workdir / f"{name}.job.json"
    start = time.monotonic()
    job["deadline"] = start + limit
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=limit + 5.0,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{name} child overran {limit + 5:.0f} s and was killed") from exc
    if proc.returncode != 0:
        raise RunError(f"{name} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    result["t_spawn"] = start
    return result


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, ops beyond) at the highest percentile with >= 10 ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _outcome(result: dict) -> tuple[int, int, bool, list[str]]:
    statuses = result["statuses"]
    failures = [s for s in statuses if s != "ok"]
    correct = not any(s.startswith(("exit", "exception", "mismatch")) for s in failures)
    return len(statuses), len(failures), correct, failures


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    pool = load_pool(workload)
    list_seconds = seconds / 2 if trace else seconds
    ops = build_op_list(workload, seed, list_seconds, pool)
    job = {"mode": "run", "workload": workload, "ops": ops, "warmup": WARMUP[workload],
           "row_digests": pool.get("row_digests")}
    # Ops still waiting at the deadline count as timeouts; every run ends in 180 s.
    limit = 2.0 * list_seconds + 20.0
    workdir = ROOT / ".bench_run" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    results_dir = ROOT / ".bench_run" / "results"
    workdir.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    try:
        if not trace:
            setups = [_spawn(workdir, f"setup{i}", dict(job, mode="setup"), SETUP_LIMIT_S)
                      for i in range(SETUPS - 1)]
            main = _spawn(workdir, "run", job, limit)
            setup_times = [r["setup_s"] for r in setups + [main]]
            setup_cpus = [r["setup_cpu_s"] for r in setups + [main]]
            setup_walls = [r["t_ready"] - r["t_spawn"] for r in setups + [main]]
            lat = main["latencies"]
            if not lat:
                raise RunError("no op ran before the run's deadline")
            attempted, failed, correct, failures = _outcome(main)
            tail, pct, beyond = _tail(lat)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "ops_per_s": (attempted - failed) / sum(lat),
                "op_p50_ms": 1000.0 * statistics.median(lat),
                "op_tail_ms": 1000.0 * tail,
                "peak_rss_mb": main["peak_rss_mb"],
            }
            record = {"metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                                  for k, v in metrics.items()},
                      "setup_times_s": setup_times,
                      "setup_cpu_s": setup_cpus,
                      "setup_wall_s": setup_walls,
                      "tail": {"percentile": pct, "ops_beyond": beyond, "ops": len(lat)},
                      "cpu_s": sum(main["cpu_latencies"]),
                      "wall_s": sum(main["wall_latencies"]),
                      "op_latencies_ms": [
                          [" ".join(op["argv"]), 1000.0 * t, 1000.0 * c, 1000.0 * w]
                          for op, t, c, w in zip(ops, lat, main["cpu_latencies"],
                                                 main["wall_latencies"])]}
        else:
            main = _spawn(workdir, "run", job, limit)
            done = len(main["latencies"])
            traced = _spawn(workdir, "trace", dict(
                job, mode="trace", ops=ops[:done], untraced_time=sum(main["latencies"]),
                spans=str(results_dir / f"{stem}-spans.csv")), limit)
            attempted, failed, correct, failures = _outcome(traced)
            correct = correct and _outcome(main)[2]
            cpu = sum(traced["cpu_latencies"])
            per_layer = traced["per_layer"]
            record = {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
                      "self_time_share": {k[:-len(".self_s")]: v / cpu
                                          for k, (v, _) in per_layer.items()
                                          if k.endswith(".self_s") and k.count(".") == 1},
                      "cpu_s": cpu,
                      "wall_s": sum(traced["wall_latencies"])}
        record.update(
            workload=workload, seed=seed, seconds=seconds, trace=int(trace),
            attempted=attempted, failed=failed, correct=correct,
            failures=failures[:20], digest=main["digest"], versions=main["versions"],
            started=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        )
        (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        return record, record["metrics"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  ops {record['attempted']}  "
          f"timed cpu {record['cpu_s']:.2f} s  wall {record['wall_s']:.2f} s")
    for name, m in record["metrics"].items():
        extra = ""
        if name == "op_tail_ms":
            t = record["tail"]
            extra = f"  (p{t['percentile']:.1f}: {t['ops_beyond']} of {t['ops']} ops beyond)"
        elif name == "setup_s":
            extra = (f"  (median of {len(record['setup_times_s'])} set-ups; wall "
                     f"{statistics.median(record['setup_wall_s']):.4g} s)")
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}{extra}")
    if "self_time_share" in record:
        shares = sorted(record["self_time_share"].items(), key=lambda kv: -kv[1])
        print("  self-time share: " + ", ".join(f"{k} {v:.1%}" for k, v in shares))
    ratio = record["failed"] / record["attempted"] if record["attempted"] else 0.0
    print(f"  failed_ops_ratio {record['failed']}/{record['attempted']} = {ratio:.4g}")
    for failure in record["failures"]:
        print(f"    failed: {failure}")
    v = record["versions"]
    print(f"  digest sha256:{record['digest']}")
    print(f"  python {v['python']}, numpy {v['numpy']}, mpmath {v['mpmath']} "
          f"({v['mpmath_backend']} backend), nproc {v['nproc']}, {v['platform']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dyckarea" / "__init__.py").is_file():
        print(f"error: no dyckarea sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    # Same bytecode-cache state for every run, the first one included.
    for path in (ROOT / "src" / "dyckarea", HERE):
        compileall.compile_dir(str(path), quiet=1, maxlevels=0)
    try:
        record, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _report(record)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
