"""Tests of the benchmark itself: its oracle and its failure accounting.

Run from the root of the repository: python3 -m pytest perfbench
"""

import copy
import json
import math
import time
from pathlib import Path

import pytest

import oracle
import run
import speed
from workloads import SELFTEST_SEEDS, WORKLOADS, Op, holonomy_cycle, selftest_cycle

PAPER_REPORT = {
    "schema": "equihol-report/1",
    "command": "verdict",
    "scenario": "paper_example_Z_on_R",
    "result": {
        "outcome": "CANCELS",
        "kappa": {"g": 0.5},
        "certificate": {"candidate_lambdas": {"dt": 0.5}, "primitive_coefficients": {}},
        "witness": None,
        "obstructed_stage": None,
    },
}

SELFTEST_REPORT = {
    "command": "selftest",
    "result": {
        "seed": 7,
        "ok": True,
        "scenarios": {name: {"bundle": {"ok": True}} for name in oracle.SCENARIOS},
    },
}


def _text(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _fake_main(outputs):
    """A stand-in for equihol.cli.main that prints the given (code, report) pairs in turn."""
    queue = list(outputs)

    def main(argv):
        code, text = queue.pop(0)
        print(text, end="")
        return code

    return main


def _verdict_op(scenario="paper_example_Z_on_R"):
    return Op("verdict", scenario, ("verdict", scenario),
              lambda code, out: oracle.check_verdict(scenario, code, out))


def _selftest_op():
    return Op("selftest", "", ("selftest", "--seed", "7"),
              lambda code, out: oracle.check_selftest(7, code, out))


def test_correct_verdict_passes():
    assert oracle.check_verdict("paper_example_Z_on_R", 0, _text(PAPER_REPORT)) == []


def test_flipped_outcome_is_wrong():
    report = copy.deepcopy(PAPER_REPORT)
    report["result"]["outcome"] = "OBSTRUCTED"
    result = run.run_op(_fake_main([(2, _text(report))]), _verdict_op(), {})
    assert result.status == "wrong"
    assert "outcome" in result.detail and "exit code 2" in result.detail


def test_quarter_candidate_coefficient_is_wrong():
    report = copy.deepcopy(PAPER_REPORT)
    report["result"]["certificate"]["candidate_lambdas"]["dt"] = 0.25
    problems = oracle.check_verdict("paper_example_Z_on_R", 0, _text(report))
    assert any("dt" in p for p in problems)


def test_selftest_report_with_one_byte_changed_is_wrong():
    text = _text(SELFTEST_REPORT)
    assert oracle.check_selftest(7, 0, text) == []
    # One space of indentation becomes a tab: still valid, equal JSON.
    changed = text.replace("\n  ", "\n\t ", 1)
    assert len(changed) == len(text) and oracle.check_selftest(7, 0, changed) == []
    main = _fake_main([(0, text), (0, changed)])
    seen = {}
    first = run.run_op(main, _selftest_op(), seen)
    second = run.run_op(main, _selftest_op(), seen)
    assert first.status == "ok"
    assert second.status == "wrong"
    assert "differs" in second.detail


def test_failing_selftest_is_a_failure_not_a_wrong_answer():
    report = copy.deepcopy(SELFTEST_REPORT)
    report["result"]["ok"] = False
    report["result"]["scenarios"]["torus_shift"]["holonomy"] = {"ok": False}
    result = run.run_op(_fake_main([(1, _text(report))]), _selftest_op(), {})
    assert result.status == "failed"
    assert "torus_shift.holonomy" in result.detail


def test_untyped_exception_fails_one_operation_and_the_run_goes_on():
    calls = []

    def main(argv):
        calls.append(argv)
        if len(calls) == 2:
            raise RuntimeError("planted")
        print(_text(PAPER_REPORT), end="")
        return 0

    ops = [_verdict_op(), _verdict_op(), _verdict_op()]
    results, cycles, _ = run.run_cycles(main, ops, {}, seconds=0, min_cycles=1)
    assert cycles == 1 and len(results) == 3
    assert [r.status for r in results] == ["ok", "failed", "ok"]
    assert "RuntimeError: planted" in results[1].detail
    metrics = run.end_to_end_metrics(results, [0.5])
    assert metrics["ops_per_s"][0] == pytest.approx(3 / sum(r.seconds for r in results))


def test_holonomy_oracle_values():
    r2 = (("r", -1), ("r", -1))
    report = {"result": {"value": (0.1 * math.sin(-1.4)) % 1.0}}
    assert oracle.check_holonomy("rotation", r2, 0, json.dumps(report)) == []
    report = {"result": {"value": 0.25}}
    assert oracle.check_holonomy("paper_example_Z_on_R", (("g", 1),), 0, json.dumps(report))
    # Shift by 0.9 on the unit circle is the minimal image -0.1.
    g3 = (("g", 1),) * 3
    assert oracle.SCENARIOS["torus_shift"].holonomy(g3) == pytest.approx(0.4 * -0.1 - 0.75)


def test_words_and_cycle_shape():
    assert len(list(oracle.reduced_words(("t1", "s1"), 3))) == 4 + 12 + 36
    assert oracle.word_text((("g", 1), ("g", 1), ("h", -1))) == "g^2 h^-1"
    argvs = [op.argv for op in holonomy_cycle(3)]
    assert len(argvs) == len(set(argvs))
    assert argvs == [op.argv for op in holonomy_cycle(3)]
    assert argvs != [op.argv for op in holonomy_cycle(4)]


def test_selftest_cycle_runs_the_same_seeds_for_every_workload_seed():
    # The failed share on selftest must not depend on the workload seed.
    expected = sorted(("selftest", "--seed", str(s), "--format", "json-like")
                      for s in SELFTEST_SEEDS)
    for seed in (1, 2, 3, 101):
        assert sorted(op.argv for op in selftest_cycle(seed)) == expected


def test_benchmark_file_matches_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e = run.end_to_end_metrics([run.Result(_verdict_op(), 1.0, 0, "ok")] * 2, [1.0])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metric_names()


def test_speed_probe_scales_by_its_nominal_time():
    assert speed.at_nominal(1.0, [2 * speed.NOMINAL_PROBE_S] * 3) == pytest.approx(0.5)
    # Half the time at full speed, half at a quarter: the mean speed, not the median probe.
    assert speed.at_nominal(1.0, [speed.NOMINAL_PROBE_S, 4 * speed.NOMINAL_PROBE_S]) == \
        pytest.approx(0.625)
    with speed.Sampler() as sampler:
        mark = sampler.mark()
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * speed.INTERVAL_S:
            pass
        raw_s = time.perf_counter() - start
        scaled = sampler.scaled(mark, raw_s)
    assert sampler.mark()[0] - mark[0] >= 3  # samples during the loop, and one after
    assert scaled > 0
