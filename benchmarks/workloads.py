"""Workloads of the dyckarea benchmark: which ops a run executes, in what order.

Every op is one ``dyckarea.cli.main(argv)`` call whose argv has the form of
the README commands. The ops come from a stored pool per workload
(``reference/<workload>.json``), written by ``make_reference.py`` together
with the reference outputs the checks compare against and the baseline cost
of each op. The pool is split into cells (op kind x input stratum). A run's
op list is a sequence of rounds; every round takes a fixed number of ops
from each cell, drawn by the run's seed, so every seed sees the same mix of
kinds and input sizes and only the individual inputs change. The number of
rounds is the requested seconds over the pool's mean cost of a round.

The program receives only the generated argv; the seed never reaches it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Placeholder for the output file of scan ops; the child substitutes a path
# inside the checkout's scratch directory.
OUT = "@OUT"

# Ops per round from each cell. Cells are named "<kind>/<stratum>".
ROUNDS = {
    "critical_scans": {
        # Two ops each of the two cells the median lands in (and of the two
        # cheapest cells, to keep it there), so op_p50_ms sits among many
        # ops of like cost.
        **{f"scaling_fn/e{k}": 2 if k == 4 else 1 for k in range(8)},
        **{f"g_vs_t/e{k}": 2 if k in (3, 6, 7) else 1 for k in range(8)},
    },
    "exact_tables": {
        # Three ops of the cell the median lands in (two each of the two
        # cheapest cells keep it centred) and three of the top cell, so
        # op_p50_ms and op_tail_ms sit among many ops of like cost.
        **{f"partition/m{k}": {0: 2, 1: 2, 3: 3, 6: 3}.get(k, 1) for k in range(7)},
        **{f"scan_partition/m{k}": 1 for k in range(3)},
        **{f"full/n{k}": 1 for k in range(3)},
    },
    "point_queries": {
        **{f"ratio/e{k}": 1 for k in range(16)},
        **{f"cfrac/e{k}": 1 for k in range(4)},
        **{f"uniform/e{k}": 1 for k in range(4)},
        **{f"scaling/e{k}": 1 for k in range(4)},
        "scaling_s/all": 2,
    },
}

# Cells drawn once per run, at seeded positions in the first round.
ONCE = {
    "critical_scans": (),
    "exact_tables": (),
    "point_queries": ("phase_boundary/all", "validate/all"),
}

# One untimed op of each kind before timing starts, on inputs outside the
# pool's domain (eps, table keys or q-range disjoint from every timed op),
# so lazy state lands in set-up. ``validate`` takes no input, so it has no
# disjoint warm-up and none is run.
WARMUP = {
    "critical_scans": [
        ["scan", "--kind", "scaling_fn", "--eps-list", "0.002", "--s-min", "-1",
         "--s-max", "1", "--steps", "2", "--out", OUT],
        ["scan", "--kind", "g_vs_t", "--eps", "0.002", "--t-min", "0.2",
         "--t-max", "0.3", "--steps", "2", "--out", OUT],
    ],
    "exact_tables": [
        ["scan", "--kind", "partition", "--t", "0.25", "--m-list", "10",
         "--n-max", "60", "--out", OUT],
        ["partition", "--m", "10", "--t", "0.25", "--n-max", "61"],
        ["enumerate", "--n-max", "8", "--verify-brute-force", "4"],
        ["eval", "--method", "series", "--t", "0.2", "--q", "0.5", "--n-max", "10"],
    ],
    "point_queries": [
        ["eval", "--method", m, "--t", "0.2", "--eps", "0.2"]
        for m in ("ratio", "cfrac", "uniform", "scaling")
    ] + [
        ["scaling", "--s", "0.5", "--eps", "0.2"],
        ["scan", "--kind", "phase_boundary", "--q-min", "0.1", "--q-max", "0.15",
         "--steps", "2", "--out", OUT],
    ],
}

NAMES = tuple(ROUNDS)
DEFAULT_SEED = 1
# Kept for confirming a claim on a seed not used while the change was made.
HELD_OUT_SEED = 20141219


def load_pool(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def build_op_list(workload: str, seed: int, seconds: float, pool: dict | None = None) -> list[dict]:
    """The run's fixed op list for ``seed``, sized to ``seconds`` of baseline cost.

    Table keys (n_max, m_max) never repeat within a list, so the table
    builder's cache cannot hide a build. A cell whose ops all carry used
    keys stops contributing; the other kinds go on.
    """
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    pool = pool or load_pool(workload)
    rng = random.Random(f"{workload}/{seed}")
    cells = pool["cells"]
    order = {}
    for name in sorted(cells):
        idx = list(range(len(cells[name])))
        rng.shuffle(idx)
        order[name] = idx
    cursor = {name: 0 for name in cells}
    used_keys: set = set()

    def draw(name: str) -> dict | None:
        ops, idx = cells[name], order[name]
        for _ in range(len(idx)):
            op = ops[idx[cursor[name] % len(idx)]]
            cursor[name] += 1
            key = op.get("key")
            if key is None:
                return op
            key = tuple(key)
            if key not in used_keys:
                used_keys.add(key)
                return op
        return None

    # Every seed gets the same number of rounds: the budget over the pool's
    # mean cost of a round.
    round_ms = sum(count * sum(op["cost_ms"] for op in cells[name]) / len(cells[name])
                   for name, count in ROUNDS[workload].items())
    ops: list[dict] = []
    for r in range(max(1, round(seconds * 1000.0 / round_ms))):
        batch = [op for name, count in ROUNDS[workload].items()
                 for op in (draw(name) for _ in range(count)) if op is not None]
        rng.shuffle(batch)
        if r == 0:
            for name in ONCE[workload]:
                batch.insert(rng.randrange(len(batch) + 1), draw(name))
        ops.extend(batch)
    return ops
