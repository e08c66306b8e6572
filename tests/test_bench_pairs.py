"""The summary of ``tools/bench_pairs.py`` on canned benchmark results.

No benchmark runs here: each pair is a hand-written result of the shape
``perfbench/run.py`` prints as its last line.
"""

import argparse
import json
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
    tool = load_tool()
    bounds = {"ops_per_s": 0.05, "op_p50_ms": 0.06}
    out = tool.summarise(canned_pairs(), BETTER, bounds)
    assert out["seeds"] == [11, 12, 13, 14, 15]
    assert out["first"] == ["parent", "change", "parent", "change", "parent"]
    assert out["parent"]["failed"] == [0, 1, 0, 1, 0]
    assert out["parent"]["attempted"] == [100] * 5
    assert out["parent"]["correct"] and not out["change"]["correct"]
    # The parent failed 2 of 500 operations, the change none.
    assert out["failure_share"] == {"parent": 0.004, "change": 0.0}
    assert out["more_failures"] is False
    ops = out["parent"]["metrics"]["ops_per_s"]
    # Sorted 49, 50, 51, 52, 53: inclusive quartiles at positions 1 and 3.
    assert (ops["q1"], ops["median"], ops["q3"]) == (50.0, 51.0, 52.0)
    assert ops["runs"] == [50.0, 52.0, 51.0, 49.0, 53.0]
    summary = out["summary"]
    # Higher is better for throughput: 3 wins, one loss, one tie.
    assert summary["ops_per_s"] == {
        "parent_median": 51.0, "parent_iqr": 2.0, "change_median": 54.0,
        "ratio": round(54.0 / 51.0, 4), "change_wins_of_pairs": 3,
        "meets_gain_rule": False, "worse_than_bound": False,
    }
    # Lower is better for latency: 3 wins, one loss, one tie.
    assert summary["op_p50_ms"]["change_wins_of_pairs"] == 3
    assert summary["op_p50_ms"]["change_median"] == 18.5
    assert not summary["op_p50_ms"]["worse_than_bound"]
    # Swapped sides: ops_per_s falls 54 -> 51, by 5.6% of the parent's
    # median, beyond its 5% bound; op_p50_ms rises 18.5 -> 19.5, by 5.4%,
    # inside its 6% bound.
    swapped = [dict(p, parent=p["change"], change=p["parent"]) for p in canned_pairs()]
    swapped_out = tool.summarise(swapped, BETTER, bounds)
    assert swapped_out["more_failures"] is True
    summary = swapped_out["summary"]
    assert summary["ops_per_s"]["worse_than_bound"]
    assert not summary["op_p50_ms"]["worse_than_bound"]
    # Equal shares are not more failures, whatever the counts.
    even = [dict(p, change=dict(p["parent"], failed=2 * p["parent"]["failed"], attempted=200))
            for p in canned_pairs()]
    assert tool.summarise(even, BETTER, bounds)["more_failures"] is False
    # A metric without a bound carries no flag.
    summary = tool.summarise(swapped, BETTER, {"op_p50_ms": 0.01})["summary"]
    assert "worse_than_bound" not in summary["ops_per_s"]
    assert summary["op_p50_ms"]["worse_than_bound"]


def gain_rule(parent_ops, change_ops):
    """``meets_gain_rule`` of ``ops_per_s`` over pairs of the given runs."""
    pairs = [{"seed": i, "first": "parent", "parent": result(p, 20.0), "change": result(c, 20.0)}
             for i, (p, c) in enumerate(zip(parent_ops, change_ops))]
    return load_tool().summarise(pairs, BETTER)["summary"]["ops_per_s"]["meets_gain_rule"]


def test_gain_rule_needs_nine_tenths_of_the_pairs_and_a_gap_above_the_iqr():
    # Parent runs 100..109: inclusive quartiles 102.25 and 106.75, IQR 4.5.
    parent = [100.0 + i for i in range(10)]
    ahead = [p + 10.0 for p in parent]
    # 9 of 10 pairs won, the median gap 9.0 above the IQR.
    assert gain_rule(parent, ahead[:9] + [parent[9] - 1.0])
    # 8 of 10: one pair lost and one tied, which counts for neither side.
    assert not gain_rule(parent, ahead[:8] + [parent[8] - 1.0, parent[9]])
    # 10 of 10, but the median gap of 1.0 lies within the IQR.
    assert not gain_rule(parent, [p + 1.0 for p in parent])
    # Lower is better for latency: the same rule on op_p50_ms.
    pairs = [{"seed": i, "first": "parent", "parent": result(50.0, 20.0 + i),
              "change": result(50.0, 10.0 + i)} for i in range(10)]
    assert load_tool().summarise(pairs, BETTER)["summary"]["op_p50_ms"]["meets_gain_rule"]


def test_bound_use_reports_the_ratio_and_the_share_of_the_bound():
    tool = load_tool()
    entry = lambda parent, change: {"parent_median": parent, "change_median": change}
    # Peak memory up 1.4%, lower better: 28% of a 5% bound.
    assert (tool.bound_use("peak_rss_mb", entry(42.45, 43.0443), "lower", 0.05)
            == "peak_rss_mb x1.014, 28% of its 0.05 bound")
    # Throughput up 9%, higher better: the share is negative.
    assert (tool.bound_use("ops_per_s", entry(75.8, 82.622), "higher", 0.25)
            == "ops_per_s x1.090, -36% of its 0.25 bound")
    # Throughput down by its whole bound uses all of it.
    assert (tool.bound_use("ops_per_s", entry(80.0, 60.0), "higher", 0.25)
            == "ops_per_s x0.750, 100% of its 0.25 bound")
    assert (tool.bound_use("setup_s", entry(0.0, 0.1), "lower", 0.25)
            == "setup_s parent median 0, against its 0.25 bound")


def test_seed_range():
    tool = load_tool()
    assert tool.seed_range("3-6") == [3, 4, 5, 6]
    assert tool.seed_range("9") == [9]
    with pytest.raises(argparse.ArgumentTypeError):
        tool.seed_range("6-3")


def traced(global_self_s, verdict_self_s, untraced_ops):
    """A canned ``--trace 1`` result: per-layer metrics only."""
    values = {"local_search.global_form.self_s": (global_self_s, "s"),
              "local_search.local_verdict.self_s": (verdict_self_s, "s"),
              "trace.untraced_ops_per_s": (untraced_ops, "1/s")}
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    return {"correct": True, "attempted": 20, "failed": 0, "metrics": metrics}


def test_traced_pairs_summarise_the_per_layer_metrics():
    tool = load_tool()
    spec = {"end_to_end": [{"name": "ops_per_s", "better": "higher"}],
            "per_layer": [{"name": "local_search.global_form.self_s", "better": "lower"},
                          {"name": "local_search.local_verdict.self_s", "better": "lower"},
                          {"name": "trace.untraced_ops_per_s", "better": "higher"}]}
    assert tool.directions(spec, 0) == {"ops_per_s": "higher"}
    better = tool.directions(spec, 1)
    assert list(better) == [m["name"] for m in spec["per_layer"]]
    # (parent, change) per pair of each metric, in the order of traced().
    canned = [((0.30, 0.25), (0.10, 0.09), (60.0, 66.0)),
              ((0.28, 0.26), (0.11, 0.12), (61.0, 65.0)),
              ((0.32, 0.27), (0.10, 0.08), (59.0, 59.0))]
    pairs = [{"seed": 21 + i, "first": "parent" if i % 2 == 0 else "change",
              "parent": traced(*(p for p, _ in row)), "change": traced(*(c for _, c in row))}
             for i, row in enumerate(canned)]
    out = tool.summarise(pairs, better)
    global_form = out["summary"]["local_search.global_form.self_s"]
    assert global_form == {"parent_median": 0.30, "parent_iqr": round(0.31 - 0.29, 6),
                           "change_median": 0.26, "ratio": round(0.26 / 0.30, 4),
                           "change_wins_of_pairs": 3, "meets_gain_rule": True}
    assert out["parent"]["metrics"]["local_search.global_form.self_s"]["runs"] == [0.3, 0.28, 0.32]
    # Lower self time wins; one pair lost.
    assert out["summary"]["local_search.local_verdict.self_s"]["change_wins_of_pairs"] == 2
    # Higher throughput wins; a tie is no win.
    assert out["summary"]["trace.untraced_ops_per_s"]["change_wins_of_pairs"] == 2
    assert out["change"]["metrics"]["trace.untraced_ops_per_s"]["median"] == 65.0


def test_every_benchmark_metric_has_a_direction():
    tool = load_tool()
    spec = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        better = tool.directions(spec, trace)
        assert len(better) == len(spec[key]) and set(better.values()) <= {"higher", "lower"}
    assert tool.directions(spec, 1)["local_search.global_form.self_s"] == "lower"
