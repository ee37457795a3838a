"""Build the op pools and reference outputs the benchmark checks against.

    PYTHONPATH=src python3 benchmarks/make_reference.py [workload ...]

For each workload this draws the pool of ops cell by cell from fixed pool
seeds, inside each op's documented domain, runs every op once in-process,
and writes ``reference/<workload>.json`` with, per op, its argv, table key,
expected exit code, baseline cost (CPU time scaled by the speed probe, as
in a run) and parsed outputs. Run it on the commit
whose numbers are the reference; a later commit that changes numbers on
purpose regenerates the pools and says so.

Domains:

* critical_scans: eps log-uniform in [1e-4, 1e-3] (eight strata of 1/8
  decade); scaling_fn windows s in [-2.2, -0.5] x [0.5, 2.2], 6 points;
  g_vs_t windows t in [0.10, 0.24] x [0.255, 0.30], 5 points.
* exact_tables: areas m in 12-51 for partition and 12-44 for the largest m
  of a partition scan (strata below); t = (1 - s m^(-2/3))/4 with
  |s| <= 1.5, where finite_size_phi converges at j_max = 24; n_max is the
  CLI's own choice plus 0-12, so keys differ. Full tables n = 12-46, one
  enumerate op (brute force to 6-11) and one series eval (t in
  [0.05, 0.22], q in [0.3, 0.99] or the q = 1 limit) per n; both share the
  key (n, None), so a run uses each n once.
* point_queries: eps log-uniform in [1e-3, 1e-1]; ratio at t in
  [0.02, 0.225], below 0.9 t_inf(q) because t_inf > 1/4; cfrac, uniform and
  scaling evals at t in (0, 0.45]; scaling --s at |s| < 2.3, inside the
  series' radius 2.338; phase-boundary scans over q in [0.2, 0.95].

A draw whose op does not exit 0 at generation time is dropped and counted
under ``rejected``.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time
from pathlib import Path

import checks
from child import PROBE_NOMINAL_S, _Alarm, _versions, run_op, speed_probe
from workloads import OUT, REFERENCE_DIR, WARMUP

CELL_SIZE = {"critical_scans": 12, "exact_tables": 12, "point_queries": 40}
# Cells a round draws from more than once get a pool to match.
CELL_SIZE_OVERRIDE = {"partition/m0": 24, "partition/m1": 24, "partition/m3": 36,
                      "partition/m6": 24}
# The median cell and the top cell set op_p50_ms and op_tail_ms; |s| <= 0.3
# keeps t, and so n_max and cost, close within them.
S_MAX = {"partition/m3": 0.3, "partition/m6": 0.3}
# Strata narrow enough that ops of one cell cost about the same, so every
# seed draws nearly the same total work.
PARTITION_M = ((12, 20), (21, 28), (29, 31), (32, 34), (37, 42), (43, 47), (50, 51))
SCAN_M = ((12, 24), (25, 35), (36, 44))
FULL_N = ((12, 24), (25, 36), (37, 46))
RATIO_STRATA = 16
SCAN_STRATA = 8


def _log_uniform(rng: random.Random, lo: float, hi: float, k: int, strata: int) -> float:
    a = math.log10(lo) + (math.log10(hi) - math.log10(lo)) * k / strata
    b = a + (math.log10(hi) - math.log10(lo)) / strata
    return 10.0 ** rng.uniform(a, b)


def _g(x: float) -> str:
    return f"{x:.4g}"


def _cli_n_max(m: int, t: float) -> int:
    """The n_max the partition commands pick for area m at t."""
    peak = (2 * m - 1) / max(0.2, -math.log(max(t, 1e-6)))
    return int(peak + 5.0 * math.sqrt(max(peak, 4.0))) + 20


def _t_near_quarter(rng: random.Random, m: int, s_max: float = 1.5) -> float:
    s = rng.uniform(-s_max, s_max)
    return round(0.25 * (1.0 - s * m ** (-2.0 / 3.0)), 5)


def candidates(workload: str):
    """Yield the (cell, kind, argv, table key) draws of a pool, cell by cell."""
    if workload == "critical_scans":
        for kind, steps in (("scaling_fn", 6), ("g_vs_t", 5)):
            for k in range(SCAN_STRATA):
                rng = random.Random(f"pool/{workload}/{kind}/{k}")
                for _ in range(CELL_SIZE[workload]):
                    eps = _g(_log_uniform(rng, 1e-4, 1e-3, k, SCAN_STRATA))
                    if kind == "scaling_fn":
                        argv = ["scan", "--kind", kind, "--eps-list", eps,
                                "--s-min", f"{rng.uniform(-2.2, -0.5):.3f}",
                                "--s-max", f"{rng.uniform(0.5, 2.2):.3f}"]
                    else:
                        argv = ["scan", "--kind", kind, "--eps", eps,
                                "--t-min", f"{rng.uniform(0.10, 0.24):.4f}",
                                "--t-max", f"{rng.uniform(0.255, 0.30):.4f}"]
                    yield f"{kind}/e{k}", kind, argv + ["--steps", str(steps), "--out", OUT], None
    elif workload == "exact_tables":
        keys: set = set()
        for kind, strata in (("partition", PARTITION_M), ("scan_partition", SCAN_M)):
            for k, (lo, hi) in enumerate(strata):
                rng = random.Random(f"pool/{workload}/{kind}/{k}")
                made = 0
                while made < CELL_SIZE_OVERRIDE.get(f"{kind}/m{k}", CELL_SIZE[workload]):
                    m = rng.randint(lo, hi)
                    t = _t_near_quarter(rng, m, S_MAX.get(f"{kind}/m{k}", 1.5))
                    key = (_cli_n_max(m, t) + rng.randint(0, 12), m)
                    if key in keys:
                        continue
                    keys.add(key)
                    made += 1
                    if kind == "partition":
                        argv = ["partition", "--m", str(m), "--t", repr(t), "--n-max", str(key[0])]
                    else:
                        others = rng.sample(range(10, m), min(m - 10, rng.randint(0, 2)))
                        argv = ["scan", "--kind", "partition", "--t", repr(t),
                                "--m-list", ",".join(str(x) for x in sorted(others + [m])),
                                "--n-max", str(key[0]), "--out", OUT]
                    yield f"{kind}/m{k}", kind, argv, list(key)
        for k, (lo, hi) in enumerate(FULL_N):
            rng = random.Random(f"pool/{workload}/full/{k}")
            for n in range(lo, hi + 1):
                yield f"full/n{k}", "enumerate", [
                    "enumerate", "--n-max", str(n),
                    "--verify-brute-force", str(rng.randint(6, 11))], [n, None]
                q = 1.0 if rng.random() < 0.1 else rng.uniform(0.3, 0.99)
                yield f"full/n{k}", "series", [
                    "eval", "--method", "series", "--t", f"{rng.uniform(0.05, 0.22):.4f}",
                    "--q", f"{q:.4f}", "--n-max", str(n)], [n, None]
    elif workload == "point_queries":
        size = CELL_SIZE[workload]
        strata = {"ratio": RATIO_STRATA, "cfrac": 4, "uniform": 4, "scaling": 4}
        for method, count in strata.items():
            for k in range(count):
                rng = random.Random(f"pool/{workload}/{method}/{k}")
                for _ in range(size):
                    eps = _log_uniform(rng, 1e-3, 1e-1, k, count)
                    t = rng.uniform(0.02, 0.225) if method == "ratio" else rng.uniform(0.005, 0.45)
                    yield f"{method}/e{k}", method, [
                        "eval", "--method", method, "--t", f"{t:.4f}", "--eps", _g(eps)], None
        rng = random.Random(f"pool/{workload}/scaling_s")
        for _ in range(size):
            yield "scaling_s/all", "scaling_s", [
                "scaling", "--s", f"{rng.uniform(-2.3, 2.3):.4f}",
                "--eps", _g(_log_uniform(rng, 1e-3, 1e-1, 0, 1))], None
        rng = random.Random(f"pool/{workload}/phase_boundary")
        for _ in range(12):
            yield "phase_boundary/all", "phase_boundary", [
                "scan", "--kind", "phase_boundary",
                "--q-min", f"{rng.uniform(0.2, 0.5):.4f}", "--q-max", f"{rng.uniform(0.6, 0.95):.4f}",
                "--steps", str(rng.randint(3, 6)), "--out", OUT], None
        yield "validate/all", "validate", ["validate"], None
    else:
        raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, scratch: str) -> dict:
    from dyckarea import cli, enumeration

    alarm = _Alarm()
    out_path = os.path.join(scratch, "op.out")
    for argv in WARMUP[workload]:
        run_op(cli, argv, out_path, 600.0, alarm)
    cells: dict[str, list] = {}
    rejected: dict[str, int] = {}
    max_full_n = 0
    for cell, kind, argv, key in candidates(workload):
        enumeration.build_area_polynomials.cache_clear()  # cold cost, as in a run
        before = speed_probe()
        seconds, _, rc, stdout, stderr, text, error = run_op(cli, argv, out_path, 600.0, alarm)
        seconds *= PROBE_NOMINAL_S / (0.5 * (before + speed_probe()))
        if error or rc != 0:
            rejected[cell] = rejected.get(cell, 0) + 1
            print(f"  rejected {argv}: rc={rc} {error or stderr.strip()}", file=sys.stderr)
            continue
        fields = checks.parse(kind, stdout, text)
        if kind == "enumerate":
            n_max = int(argv[2])
            ref = {"n_max": n_max, "verify": int(argv[4])}
            max_full_n = max(max_full_n, n_max)
        elif kind == "validate":
            ref = None
        else:
            ref = fields
        cells.setdefault(cell, []).append({
            "kind": kind, "argv": argv, "key": key, "expect_exit": 0,
            "cost_ms": round(seconds * 1000.0, 3), "ref": ref})
        print(f"  {cell:22s} {seconds * 1000:9.1f} ms  {' '.join(argv)}", file=sys.stderr)
    pool = {"workload": workload, "versions": _versions(), "cells": cells, "rejected": rejected}
    if max_full_n:
        table = enumeration.build_area_polynomials(max_full_n)
        pool["row_digests"] = [checks.row_digest(row.coeffs) for row in table.rows]
    return pool


def write_pool(pool: dict, fh) -> None:
    """JSON with one op per line, so a regenerated pool diffs op by op."""
    head = {k: v for k, v in pool.items() if k != "cells"}
    fh.write(json.dumps(head, separators=(",", ":"))[:-1] + ',"cells":{\n')
    for i, (cell, ops) in enumerate(pool["cells"].items()):
        fh.write(f"{json.dumps(cell)}:[\n")
        fh.write(",\n".join(json.dumps(op, separators=(",", ":")) for op in ops))
        fh.write("\n]" + ("," if i + 1 < len(pool["cells"]) else "") + "\n")
    fh.write("}}\n")


def main(argv: list[str]) -> int:
    from workloads import NAMES
    root = Path(__file__).resolve().parent.parent
    scratch = root / ".bench_run"
    scratch.mkdir(exist_ok=True)
    for workload in argv or NAMES:
        start = time.monotonic()
        pool = build(workload, str(scratch))
        with open(REFERENCE_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
            write_pool(pool, fh)
        total = sum(op["cost_ms"] for ops in pool["cells"].values() for op in ops)
        print(f"{workload}: {sum(map(len, pool['cells'].values()))} ops, "
              f"{total / 1000:.1f} s of op time, {time.monotonic() - start:.1f} s wall, "
              f"rejected {pool['rejected']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
