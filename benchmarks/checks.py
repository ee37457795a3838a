"""Output checks for benchmark ops, and the digest of the computed values.

``parse(op_kind, stdout, out_text)`` turns what an op printed (and the scan
file it wrote) into named fields. ``check(op, fields)`` compares them with
the reference fields stored in the pool:

* floats within the tolerance of the route that produced them, relative to
  max(1, |reference|), so a roundoff-level change passes and a changed
  number does not;
* integers and flags exactly;
* exact tables row by row against stored row digests, plus the invariants
  that hold for every table: row n has n(n-1)/2 + 1 entries, its sum is the
  Catalan number C_n, and c[0][n] = c[max][n] = 1.

``canonical(fields)`` gives the text the run digest is taken over: floats
rounded to ten significant digits, integers exact.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re

# Route tolerances. The cfrac and ratio routes run at EvalSettings' default
# tol = 1e-12; uniform, scaling and truncated-series values are closed
# double-precision formulas, held to the same level. finite_size_phi stops
# at its truncation tol = 1e-6, the t_infinity bisection of a phase-boundary
# scan at tol = 1e-10.
TOL_ROUTE = 1e-12
TOL_FINITE_SIZE = 1e-6
TOL_BOUNDARY = 1e-10

_PARTITION_Q = re.compile(r"^Q_\d+\(.*?\) = (\S+)  \(n <= (\d+), tail ~ (\S+), ok=(\w+)\)$")
_PARTITION_ASYM = re.compile(r"^asymptotic m\^\(-4/3\) phi\(s\) = (\S+)  ratio = \S+$")
_SCALING_F = re.compile(r"^F\(.*?\) = (\S+)$")
_SCALING_SERIES = re.compile(r"^series\(j_max=\d+\) = (\S+)  truncation_bound=(\S+)$")
_SCALING_G = re.compile(r"^G_scaling\(.*?\) = (\S+)  \(t=(\S+)\)$")
_PASS_ROW = re.compile(r"^PASS row n=(\d+) \((\d+) paths\)$")


class CheckError(Exception):
    """An op's output is missing a field or differs from its reference."""


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def row_digest(coeffs) -> str:
    return hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()[:16]


def _match(pattern: re.Pattern, lines: list[str], what: str) -> re.Match:
    for line in lines:
        m = pattern.match(line)
        if m:
            return m
    raise CheckError(f"no {what} line in output")


def _parse_table(stdout: str) -> dict:
    rows: list[list[int]] = []
    passes: list[tuple[int, int]] = []
    lines = stdout.splitlines()
    if not lines or lines[0] != "n,m,c":
        raise CheckError("enumerate output does not start with the n,m,c header")
    for line in lines[1:]:
        m = _PASS_ROW.match(line)
        if m:
            passes.append((int(m.group(1)), int(m.group(2))))
            continue
        n, area, c = (int(x) for x in line.split(","))
        if n == len(rows):
            rows.append([])
        if n != len(rows) - 1 or area != len(rows[n]):
            raise CheckError(f"table entry ({n}, {area}) out of order")
        rows[n].append(c)
    return {"rows": rows, "passes": passes}


def _parse_csv(text: str) -> dict:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    cols: dict[str, list[float]] = {name: [] for name in header}
    for row in reader:
        for name, cell in zip(header, row):
            cols[name].append(float(cell))
    return {"columns": cols}


def parse(kind: str, stdout: str, out_text: str | None) -> dict:
    """Named fields of one op's output; ``kind`` is the pool's op kind."""
    lines = stdout.splitlines()
    if kind in ("ratio", "cfrac", "uniform", "scaling", "series"):
        if len(lines) < 2 or not lines[1].startswith("# method="):
            raise CheckError("eval output lacks its value and provenance lines")
        return {"value": float(lines[0])}
    if kind == "scaling_s":
        fields = {"F": float(_match(_SCALING_F, lines, "F").group(1)),
                  "series": float(_match(_SCALING_SERIES, lines, "series").group(1))}
        fields["G"] = float(_match(_SCALING_G, lines, "G_scaling").group(1))
        return fields
    if kind == "partition":
        q = _match(_PARTITION_Q, lines, "Q_m")
        return {"Q": float(q.group(1)), "n_max": int(q.group(2)), "ok": q.group(4),
                "asym": float(_match(_PARTITION_ASYM, lines, "asymptotic").group(1))}
    if kind == "enumerate":
        return _parse_table(stdout)
    if kind == "validate":
        checks = [line.split(":")[0] for line in lines if line.startswith(("PASS ", "FAIL "))]
        return {"checks": checks, "summary": lines[-1] if lines else ""}
    if kind in ("scaling_fn", "g_vs_t", "scan_partition", "phase_boundary"):
        if out_text is None:
            raise CheckError("scan wrote no output file")
        return _parse_csv(out_text)
    raise CheckError(f"no parser for op kind {kind!r}")


def _close(got: float, ref: float, bound: float) -> bool:
    if not math.isfinite(ref):
        return got == ref or (math.isnan(got) and math.isnan(ref))
    return abs(got - ref) <= bound


def _column_bound(kind: str, name: str, ref: float) -> float:
    """Allowed absolute deviation of one scan column entry."""
    if kind == "phase_boundary" and name == "t_infinity":
        return TOL_BOUNDARY * max(1.0, abs(ref))
    if kind == "scan_partition" and name in ("Q_asymptotic", "tail_estimate"):
        return TOL_FINITE_SIZE * max(1.0, abs(ref))
    if name.startswith("F_from_") and math.isfinite(ref):
        # (G/2 - 1)(1-q)^(-1/3) scales G's error by 1/(2 (1-q)^(1/3))
        omq13 = (1.0 - math.exp(-float(name.rsplit("eps", 1)[1]))) ** (1.0 / 3.0)
        g = 2.0 * (1.0 + ref * omq13)
        return TOL_ROUTE * max(1.0, abs(g)) / (2.0 * omq13)
    return TOL_ROUTE * max(1.0, abs(ref))


def check(op: dict, fields: dict, row_digests: list[str] | None = None) -> None:
    """Raise CheckError unless ``fields`` match the op's reference."""
    kind, ref = op["kind"], op.get("ref")
    if kind == "enumerate":
        _check_table(op, fields, row_digests)
        return
    if kind == "validate":
        if len(fields["checks"]) < 5 or any(c.startswith("FAIL") for c in fields["checks"]):
            raise CheckError(f"validate checks: {fields['checks']}")
        if not fields["summary"].startswith("OK"):
            raise CheckError(f"validate summary: {fields['summary']!r}")
        return
    if "columns" in fields:
        got_cols, ref_cols = fields["columns"], ref["columns"]
        if list(got_cols) != list(ref_cols):
            raise CheckError(f"scan columns {list(got_cols)} != {list(ref_cols)}")
        for name, ref_vals in ref_cols.items():
            got_vals = got_cols[name]
            if len(got_vals) != len(ref_vals):
                raise CheckError(f"column {name}: {len(got_vals)} rows, expected {len(ref_vals)}")
            for i, (g, r) in enumerate(zip(got_vals, ref_vals)):
                bound = _column_bound(kind, name, r)
                if not _close(g, r, bound):
                    raise CheckError(f"column {name} row {i}: {g!r} != {r!r} (bound {bound:.1e})")
        return
    for name, r in ref.items():
        g = fields.get(name)
        if isinstance(r, float):
            tol = TOL_FINITE_SIZE if name == "asym" else TOL_ROUTE
            ok = isinstance(g, float) and _close(g, r, tol * max(1.0, abs(r)))
        else:
            ok = g == r
        if not ok:
            raise CheckError(f"{name}: {g!r} != reference {r!r}")


def _check_table(op: dict, fields: dict, row_digests: list[str] | None) -> None:
    rows = fields["rows"]
    n_max, verify = op["ref"]["n_max"], op["ref"]["verify"]
    if len(rows) != n_max + 1:
        raise CheckError(f"table has {len(rows)} rows, expected {n_max + 1}")
    for n, row in enumerate(rows):
        if len(row) != n * (n - 1) // 2 + 1:
            raise CheckError(f"row {n} has {len(row)} entries")
        if row[0] != 1 or row[-1] != 1:
            raise CheckError(f"row {n}: c[0][n] = {row[0]}, c[max][n] = {row[-1]}")
        if sum(row) != catalan(n):
            raise CheckError(f"row {n} sums to {sum(row)}, not C_{n} = {catalan(n)}")
        if row_digests is None or n >= len(row_digests) or row_digest(row) != row_digests[n]:
            raise CheckError(f"row {n} differs from the reference table")
    expected = [(n, catalan(n)) for n in range(verify + 1)]
    if fields["passes"] != expected:
        raise CheckError(f"brute-force lines {fields['passes'][:3]}... != rows 0..{verify}")


def canonical(fields: dict) -> str:
    """Digest text of an op's fields: floats to ten significant digits."""
    def norm(v):
        if isinstance(v, float):
            return "nan" if math.isnan(v) else f"{v:.9e}"
        if isinstance(v, dict):
            return {k: norm(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [norm(x) for x in v]
        return v
    if "rows" in fields:
        fields = {"rows": [row_digest(r) for r in fields["rows"]], "passes": fields["passes"]}
    return json.dumps(norm(fields), sort_keys=True, separators=(",", ":"))
