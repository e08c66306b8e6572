"""The summary of ``tools/bench_pairs.py`` on canned benchmark results.

No benchmark runs here: each pair is a hand-written result of the shape
``perfbench/run.py`` prints as its last line.
"""

import argparse
import types
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_tool():
    module = types.ModuleType("bench_pairs")
    module.__file__ = str(TOOL)
    exec(compile(TOOL.read_text(encoding="utf-8"), str(TOOL), "exec"), module.__dict__)
    return module


def result(ops, p50, failed=0, attempted=100, correct=True):
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"}, "op_p50_ms": {"value": p50, "unit": "ms"}}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


BETTER = {"ops_per_s": "higher", "op_p50_ms": "lower"}
# (parent ops, change ops, parent p50, change p50) per pair.
CANNED = [(50.0, 55.0, 20.0, 18.0), (52.0, 51.0, 19.0, 19.5), (51.0, 56.0, 19.5, 18.5),
          (49.0, 54.0, 20.5, 18.0), (53.0, 53.0, 18.5, 18.5)]


def canned_pairs():
    return [
        {"seed": 11 + i, "first": "parent" if i % 2 == 0 else "change",
         "parent": result(po, pp, failed=i % 2), "change": result(co, cp, correct=i != 4)}
        for i, (po, co, pp, cp) in enumerate(CANNED)
    ]


def test_summary_of_canned_pairs():
    out = load_tool().summarise(canned_pairs(), BETTER)
    assert out["seeds"] == [11, 12, 13, 14, 15]
    assert out["first"] == ["parent", "change", "parent", "change", "parent"]
    assert out["parent"]["failed"] == [0, 1, 0, 1, 0]
    assert out["parent"]["attempted"] == [100] * 5
    assert out["parent"]["correct"] and not out["change"]["correct"]
    ops = out["parent"]["metrics"]["ops_per_s"]
    # Sorted 49, 50, 51, 52, 53: inclusive quartiles at positions 1 and 3.
    assert (ops["q1"], ops["median"], ops["q3"]) == (50.0, 51.0, 52.0)
    assert ops["runs"] == [50.0, 52.0, 51.0, 49.0, 53.0]
    summary = out["summary"]
    # Higher is better for throughput: 3 wins, one loss, one tie.
    assert summary["ops_per_s"] == {
        "parent_median": 51.0, "parent_iqr": 2.0, "change_median": 54.0,
        "ratio": round(54.0 / 51.0, 4), "change_wins_of_pairs": 3,
    }
    # Lower is better for latency: 3 wins, one loss, one tie.
    assert summary["op_p50_ms"]["change_wins_of_pairs"] == 3
    assert summary["op_p50_ms"]["change_median"] == 18.5


def test_seed_range():
    tool = load_tool()
    assert tool.seed_range("3-6") == [3, 4, 5, 6]
    assert tool.seed_range("9") == [9]
    with pytest.raises(argparse.ArgumentTypeError):
        tool.seed_range("6-3")
