"""The alternating-pairs summary of ``tools/measure.py``, on canned numbers;
no benchmark run is started."""

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
