"""The alternating-pairs summary and report of ``tools/measure.py``, on canned
samples; no benchmark run is started."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("measure", ROOT / "tools" / "measure.py")
measure = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(measure)

END_TO_END = [{"name": "op_p50_ms", "better": "lower", "bound": 0.24},
              {"name": "ops_per_s", "better": "higher", "bound": 0.2}]


def _pairs(parent, change, name="op_p50_ms"):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def _verdict(parent, change, name="op_p50_ms"):
    metric = [m for m in END_TO_END if m["name"] == name]
    return measure.summarize_pairs(_pairs(parent, change, name), metric)[name]


def test_quartiles_wins_and_median_change():
    parent = [0.15, 0.16, 0.14, 0.15, 0.17, 0.15, 0.16, 0.14, 0.15, 0.16]
    change = [0.11, 0.12, 0.10, 0.11, 0.12, 0.16, 0.11, 0.10, 0.11, 0.12]
    m = _verdict(parent, change)
    assert m["parent_quartiles"] == pytest.approx([0.15, 0.15, 0.16])
    assert m["change_quartiles"] == pytest.approx([0.11, 0.11, 0.12])
    assert m["median_change"] == pytest.approx(0.11 / 0.15 - 1.0)
    assert (m["wins"], m["pairs"]) == (9, 10)  # pair 6 ties: it counts for neither side
    assert m["verdict"] == "better"


def test_direction_follows_the_metric():
    # a higher ops_per_s is the better one; eight wins in ten claim nothing
    assert _verdict([100.0] * 10, [130.0] * 10, "ops_per_s")["verdict"] == "better"
    assert _verdict([100.0] * 10, [70.0] * 10, "ops_per_s")["verdict"] == "worse"
    assert _verdict([100.0] * 10, [130.0] * 8 + [90.0] * 2, "ops_per_s")["verdict"] == "within bound"


def test_a_gain_inside_the_parent_spread_is_not_claimed():
    # ten wins, but the medians differ by less than the parent's quartile distance
    parent = [1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2]
    change = [p - 0.05 for p in parent]
    m = _verdict(parent, change)
    assert m["wins"] == 10 and m["verdict"] == "within bound"


def test_spread_past_the_bound_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    change = [2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.5, 1.0]
    m = _verdict(parent, change)
    assert m["spread"] > m["bound"] and m["verdict"] == "unresolved"
    # unless every run of the change is better than every run of the parent;
    # the gain, 1.3, is still inside the parent's quartile distance, 2
    m = _verdict([2.0, 4.0] * 5, [1.5, 1.9] * 5)
    assert m["spread"] > m["bound"] and m["verdict"] == "within bound"


def test_worse_beyond_the_bound():
    assert _verdict([1.0] * 10, [1.3] * 10)["verdict"] == "worse"
    assert _verdict([1.0] * 10, [1.2] * 10)["verdict"] == "within bound"


def test_fewer_than_ten_pairs_claim_nothing():
    m = _verdict([1.0], [0.5])
    assert m["parent_quartiles"] == [1.0, 1.0, 1.0] and m["wins"] == 1 and m["verdict"] == "within bound"
    assert _verdict([1.0] * 9, [0.5] * 9)["verdict"] == "within bound"
    assert _verdict([1.0], [1.5])["verdict"] == "worse"


# one canned sample of tools/measure.py's sample(): a README command, the
# import, tier-1, phi and one workload, every timed reading scaled by `scale`
COMMAND = "eval --t 0.2 --q 0.5 --method cfrac"
OWN_READINGS = [f"{COMMAND}: cpu_ms", f"{COMMAND}: max_rss_mb", "import dyckarea.cli: cpu_ms",
                "tier-1: wall_s", "finite_size_phi: us_per_call", "finite_size_phi: first_call_cpu_ms"]


def _sample(scale=1.0, stdout="f2d6", passed=945):
    return {
        "seed": 1,
        "readme_commands": [{"command": COMMAND, "exit": 0, "cpu_ms": 30.0 * scale, "wall_ms": 60.0,
                             "max_rss_mb": 20.0 * scale, "stdout_sha256": stdout, "files_sha256": {},
                             "loads_numpy": False}],
        "import_dyckarea_cli": {"cpu_ms": 9.0 * scale, "wall_ms": 40.0, "cumulative_ms": 19.0,
                                "loads_numpy": False},
        "finite_size_phi": {"first_call_cpu_ms": 0.35 * scale, "block_s": 0.6 * scale,
                            "us_per_call": 20.0 * scale, "values_sha256": "9847"},
        "workloads": {"point_queries": {"metrics": {"ops_per_s": {"value": 4000.0 / scale, "unit": "1/s"}},
                                        "attempted": 1000, "failed": 0, "digest": "e3ff"}},
        "tier1": {"wall_s": 40.0 * scale, "exit": 0, "passed": passed, "failed": 0, "summary": ""},
    }


BENCHMARK = [{"name": "ops_per_s", "better": "higher", "bound": 0.2}]
JITTER = [1.00, 1.02, 0.99, 1.01, 1.00, 0.98, 1.01, 1.00, 0.99, 1.02]


def _compare(change_scale, parent_scale=1.0, **change):
    return measure.compare([(_sample(parent_scale * j), _sample(change_scale * j, **change)) for j in JITTER],
                           BENCHMARK)


@pytest.mark.parametrize("name", OWN_READINGS)
def test_readings_without_a_benchmark_entry_are_lower_is_better(name):
    # README walls and RSS, the import, tier-1 and phi: lower is better,
    # within measure.OWN_BOUND, by the verdict rules of the workload metrics
    assert _compare(0.7)["summary"][name]["verdict"] == "better"
    assert _compare(1.3)["summary"][name]["verdict"] == "worse"
    assert _compare(1.1)["summary"][name]["verdict"] == "within bound"
    m = _compare(1.0)["summary"][name]
    assert m["bound"] == measure.OWN_BOUND and m["wins"] == 0 and m["verdict"] == "within bound"
    spread = measure.compare([(_sample(s), _sample(2.5 - s)) for s in (1.0, 1.5) * 5], BENCHMARK)
    assert spread["summary"][name]["verdict"] == "unresolved"


def test_workload_readings_follow_benchmark_json():
    m = _compare(0.7)["summary"]["point_queries: ops_per_s"]
    assert m["bound"] == 0.2 and m["median_change"] == pytest.approx(1 / 0.7 - 1) and m["verdict"] == "better"
    assert set(_compare(1.0)["summary"]) == {*OWN_READINGS, "point_queries: ops_per_s"}


def test_outputs_agree_or_are_reported():
    result = _compare(1.0)
    assert all(s["agree"] for s in result["outputs"].values())
    assert f"{COMMAND}: outputs agree" in measure.report(result)
    # one change sample prints other bytes: the command's outputs differ
    # between the sides, and the report names both digests
    pairs = [(_sample(j), _sample(j, stdout="0bad" if i == 3 else "f2d6")) for i, j in enumerate(JITTER)]
    result = measure.compare(pairs, BENCHMARK)
    s = result["outputs"][COMMAND]
    assert not s["agree"] and len(s["parent"]) == 1 and len(s["change"]) == 2
    line = next(line for line in measure.report(result) if line.startswith(f"{COMMAND}: outputs"))
    assert "DIFFER" in line and "0bad" in line and "f2d6" in line
    assert [s["agree"] for part, s in result["outputs"].items() if part != COMMAND] == [True] * 4
    # tier-1 counts that differ between the sides are reported the same way
    assert not _compare(1.0, passed=950)["outputs"]["tier-1"]["agree"]


def test_report_prints_every_reading_under_its_part():
    lines = measure.report(_compare(0.7))
    assert lines[0] == f"{COMMAND}: outputs agree"
    assert lines[1].startswith("  cpu_ms") and "wins 10/10" in lines[1] and lines[1].endswith("better")
    assert sum(line.startswith("  ") for line in lines) == len(OWN_READINGS) + 1


def test_readme_commands_are_read_from_the_block():
    readme = "# x\n\n## Command line\n\n```\ndyckarea eval --t 0.2   # a comment\nother\ndyckarea validate\n```\n"
    assert measure.readme_commands(readme) == [["eval", "--t", "0.2"], ["validate"]]
