import subprocess
import sys

import pytest

from equihol.cli import main as cli_main
from equihol.errors import ExpressionNameError, ExpressionSyntaxError, ScenarioError
from equihol.scenario import (
    bundled_dir,
    bundled_names,
    format_scenario,
    load_scenario,
    parse_scenario,
)

MINIMAL = """
schema_version = 1

[space]
dimension = 1
topology = euclidean-box
lower = [-4]
upper = [4]

[group.g]
forward = [x1 + 1]
inverse = [x1 - 1]

[cocycle]
g = 0.25
"""


def test_bundled_scenarios_parse_and_round_trip():
    assert len(bundled_names()) == 10
    for name in bundled_names():
        scenario = load_scenario(name)
        printed = format_scenario(scenario)
        again = parse_scenario(printed, name=name)
        assert format_scenario(again) == printed, name
        # expression nodes compare structurally, positions excluded
        assert again.cocycle_exprs == scenario.cocycle_exprs or scenario.kind == "lattice"


def test_minimal_scenario_builds():
    scenario = parse_scenario(MINIMAL, name="minimal")
    model = scenario.build_model()
    assert model.bundle.action.labels == ["g"]


def test_missing_schema_version_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("[space]\ndimension = 1\n")


def test_unknown_section_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "\n[mystery]\nkey = 1\n")


def test_unknown_key_rejected_with_line():
    text = MINIMAL + "\n[solver]\nbogus_knob = 3\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.line is not None


def test_empty_group_rejected():
    text = """
schema_version = 1

[space]
dimension = 1
topology = euclidean-box
lower = [-4]
upper = [4]

[cocycle]
g = 0
"""
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert "at least one generator" in str(err.value)


def test_expression_syntax_error_has_column():
    text = MINIMAL.replace("g = 0.25", "g = sin(x1")
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_scenario(text)
    assert err.value.line is not None
    assert err.value.column is not None


def test_unresolved_name_is_semantic_error():
    text = MINIMAL.replace("g = 0.25", "g = x2 + 1")  # dimension is one
    with pytest.raises(ExpressionNameError):
        parse_scenario(text)


def test_duplicate_key_rejected():
    text = MINIMAL + "\n[solver]\nseed = 1\nseed = 2\n"
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_cocycle_for_unknown_generator_rejected():
    text = MINIMAL + "\n"  # then patch cocycle
    text = text.replace("[cocycle]\ng = 0.25", "[cocycle]\ng = 0.25\nh = 0.5")
    with pytest.raises(ScenarioError):
        parse_scenario(text)


# ---------------------------------------------------------------------------
# CLI


def run_cli(args):
    return cli_main(args)


def test_cli_holonomy_worked_example(capsys):
    code = run_cli(["holonomy", "paper_example_Z_on_R", "--word", "g^1", "--path", "unit"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.500000000" in out


def test_cli_verdict_exit_codes(capsys, tmp_path):
    assert run_cli(["verdict", "paper_example_Z_on_R"]) == 0
    assert run_cli(["verdict", "rotation_anomalous"]) == 2
    out = capsys.readouterr().out
    assert "OBSTRUCTED" in out


def test_cli_verdict_inconclusive_exit(capsys):
    code = run_cli(["verdict", "lattice_zero_mode", "--local"])
    assert code == 3


def test_cli_check_cocycle_witness_exit(tmp_path, capsys):
    # Corrupted cocycle data fails the construction probes already; the
    # command exits 1 and the message carries the witness point.
    corrupted = tmp_path / "corrupted.scn"
    base = (bundled_dir() / "paper_example_Z_on_R.scn").read_text()
    corrupted.write_text(base.replace("family = 0.5*n1", "family = 0.5*n1 + 0.1*x1"))
    code = run_cli(["check-cocycle", str(corrupted)])
    captured = capsys.readouterr()
    assert code == 1
    assert "cocycle residual" in captured.err
    assert "point" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verdict", "paper_example_Z_on_R", "--probes", "0"], "--probes"),
        (["holonomy", "trivial", "--word", "q"], "unknown generator 'q'"),
        (["holonomy", "trivial", "--word", "g", "--path", "wiggle:x"], "wiggle:x"),
    ],
)
def test_cli_bad_input_is_typed_error(argv, message, capsys):
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize(
    "line, message",
    [
        ("probes = 0", "[solver] probes"),
        ("holdout = 0", "[solver] holdout"),
        ("path_samples = 1", "[solver] path_samples"),
        ("paths = 0", "[solver] paths"),
        ("basepoints = 0", "[solver] basepoints"),
        ("slack_bound = -1", "[solver] slack_bound"),
    ],
)
def test_cli_bad_solver_value_is_typed_error(line, message, tmp_path, capsys):
    key = line.split(" = ")[0]
    text = (bundled_dir() / "paper_example_Z_on_R.scn").read_text()
    kept = [row for row in text.splitlines() if not row.startswith(f"{key} =")]
    scenario = tmp_path / "bad_solver.scn"
    scenario.write_text("\n".join(kept).replace("[solver]", f"[solver]\n{line}") + "\n")
    assert run_cli(["verdict", str(scenario)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


def test_cli_missing_scenario_is_error(capsys):
    assert run_cli(["verdict", "no_such_scenario"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_anomaly_on_discrete_scenario(capsys):
    code = run_cli(["anomaly", "paper_example_Z_on_R"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no one-parameter generators" in out


def test_cli_curvature_report(capsys):
    assert run_cli(["curvature", "rotation"]) == 0


def test_cli_structured_report_deterministic(tmp_path):
    # Identical scenario and seed produce byte-identical structured output.
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["verdict", "trivial", "--seed", "5", "--out", str(out1)]) == 0
    assert run_cli(["verdict", "trivial", "--seed", "5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_report_schema_fields(tmp_path):
    import json

    out = tmp_path / "report.json"
    run_cli(["verdict", "paper_example_Z_on_R", "--out", str(out), "--format", "json-like"])
    report = json.loads(out.read_text())
    assert report["schema"] == "equihol-report/1"
    assert report["command"] == "verdict"
    assert report["config"]["seed"] == 7
    assert report["assumptions"] == {"a1": True, "a2": True, "a3": True}
    assert report["result"]["outcome"] == "CANCELS"
    stage_names = [s["name"] for s in report["result"]["stages"]]
    assert "character_membership" in stage_names
    assert report["result"]["ansatz"]


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "equihol.cli", "check-cocycle", "trivial"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
