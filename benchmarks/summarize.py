"""Summarise run records into one trajectory point.

    python3 benchmarks/summarize.py <label> [--commit <sha>] [--claim <text>]

Reads every record under ``.bench_run/results/`` (one per workload, seed
and trace flag, as ``run.py`` writes them) and writes
``benchmarks/trajectory/<label>.json``: per workload and metric the median,
the quartiles (``statistics.quantiles(values, n=4)``), the spread
(interquartile distance over the median) and the seeds they came from,
plus the digests of the runs and the line count of ``src/dyckarea``, an
ungated design figure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(records: list[dict]) -> dict:
    grouped: dict = defaultdict(lambda: defaultdict(list))
    seeds: dict = defaultdict(set)
    digests: dict = defaultdict(dict)
    versions = None
    for rec in records:
        w = rec["workload"]
        seeds[w].add(rec["seed"])
        if not rec["trace"]:
            digests[w][str(rec["seed"])] = rec["digest"]
        versions = rec["versions"]
        for name, m in rec["metrics"].items():
            grouped[w][name].append((m["value"], m["unit"]))
    out: dict = {}
    for w, metrics in sorted(grouped.items()):
        out[w] = {"seeds": sorted(seeds[w]), "digests": digests[w], "metrics": {}}
        for name, pairs in metrics.items():
            values = [v for v, _ in pairs]
            entry = {"unit": pairs[0][1], "runs": len(values), "median": statistics.median(values)}
            if len(values) >= 2:
                q1, q2, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / q2 if q2 else None)
            out[w]["metrics"][name] = entry
    return {"workloads": out, "versions": versions}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    parser.add_argument("--commit", help="commit the runs measured")
    parser.add_argument("--claim", help="the gain this point claims, stated before measuring")
    args = parser.parse_args(argv)
    paths = sorted((ROOT / ".bench_run" / "results").glob("*-trace[01].json"))
    if not paths:
        print("no run records under .bench_run/results/", file=sys.stderr)
        return 1
    point = summarize([json.loads(p.read_text(encoding="utf-8")) for p in paths])
    point["label"] = args.label
    point["commit"] = args.commit
    point["claim"] = args.claim
    point["src_lines"] = sum(len(p.read_text(encoding="utf-8").splitlines())
                             for p in (ROOT / "src" / "dyckarea").glob("*.py"))
    dest = HERE / "trajectory" / f"{args.label}.json"
    dest.parent.mkdir(exist_ok=True)
    dest.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    for w, data in point["workloads"].items():
        for name, e in data["metrics"].items():
            spread = e.get("spread")
            print(f"{w:15s} {name:48s} median {e['median']:.6g} {e['unit']:6s} "
                  f"spread {spread if spread is None else f'{spread:.3f}'} ({e['runs']} runs)")
    print(f"wrote {dest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
