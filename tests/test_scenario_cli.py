import subprocess
import sys
import warnings

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


def test_lattice_slots_must_be_integers():
    text = (bundled_dir() / "lattice_fiber_shift.scn").read_text()
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text.replace("[solver]", "[solver]\nslots = [1, x]"))
    assert "expected an integer, found 'x'" in str(err.value)
    assert err.value.line is not None
    assert err.value.column is not None


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
        (["verdict", "trivial", "--tol", "nan"], "--tol must be finite and positive"),
        (["verdict", "trivial", "--tol", "inf"], "--tol must be finite and positive"),
        (["check-cocycle", "trivial", "--tol", "-0.5"], "--tol must be finite and positive"),
        (["check-cocycle", "trivial", "--tol", "-1e-5"], "--tol must be finite and positive"),
        (["check-cocycle", "trivial", "--max-word-len", "7"], "--max-word-len must be at most 6"),
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
        ("holdout_tol = nan", "[solver] holdout_tol"),
        ("fit_tol = 0", "[solver] fit_tol"),
        ("fit_tol = inf", "[solver] fit_tol"),
        ("max_word_len = 7", "[solver] max_word_len"),
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


@pytest.mark.parametrize(
    "line, edited, message",
    [
        ("g = 0.5\n", "g = 0.5 + 1/(x1 - x1)\n", "non-finite circle value inf on word 'g' at "),
        ("g = 0.5\n", "g = 1/0\n", "non-finite circle value inf on word 'g' at "),
        ("forward = [x1 + 1]", "forward = [x1 + exp(1000*x1)]", "non-finite point coordinates"),
    ],
    ids=["cocycle", "constant", "map"],
)
def test_cli_non_finite_scenario_value_is_typed_error(line, edited, message, tmp_path, capsys):
    # The construction checks evaluate cocycle values and group maps on
    # whole probe stacks; a non-finite row still ends in an EvaluationError.
    text = (bundled_dir() / "paper_example_Z_on_R.scn").read_text()
    assert text.count(line) == 1
    scenario = tmp_path / "non_finite.scn"
    scenario.write_text(text.replace(line, edited))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["check-cocycle", str(scenario)]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    # In a fresh interpreter stderr is exactly the typed error line: no
    # numpy warning and no traceback before it.
    proc = subprocess.run(
        [sys.executable, "-m", "equihol.cli", "check-cocycle", str(scenario)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == err


@pytest.mark.parametrize(
    "name, line, edited, message",
    [
        ("lattice_fiber_shift", "sites = 32", "sites = 4", "[lattice] a lattice needs at least 8 sites"),
        ("lattice_fiber_shift", "period = 1.0", "period = -1",
         "[lattice] period must be finite and positive"),
        ("lattice_fiber_shift", "period = 1.0", "period = 1e400",
         "[lattice] period must be finite and positive"),
        ("lattice_fiber_shift", "density_degree = 2", "density_degree = 2\nhalfwidth = -1",
         "[lattice] upper bounds must exceed lower bounds"),
        ("rotation", "upper = [6, 6]", "upper = [6]", "[space] bounds must have one entry per axis"),
        ("rotation", "upper = [6, 6]", "upper = [1e400, 6]", "[space] bounds must be finite"),
        ("lattice_fiber_shift", "density_degree = 2", "density_degree = 2\nhalfwidth = 1e400",
         "[lattice] bounds must be finite"),
        ("lattice_fiber_shift", "jet_order = 2", "jet_order = 9",
         "[lattice] jet_order must lie in 0..6 (line 10)"),
        ("lattice_planted_local", "jet_order = 2", "jet_order = -1",
         "[lattice] jet_order must lie in 0..6 (line 9)"),
        ("lattice_fiber_shift", "path_samples = 192", "path_samples = 192\nslots = [3]",
         "[solver] slots must be variation slots in 0..2 (line 34)"),
        ("lattice_fiber_shift", "path_samples = 192", "path_samples = 192\nslots = []",
         "[solver] slots must be variation slots in 0..2 (line 34)"),
    ],
    ids=["sites", "period", "infinite_period", "halfwidth", "upper", "infinite_upper",
         "infinite_halfwidth", "jet_order", "jet_order_negative",
         "slot_above_jet_order", "no_slots"],
)
def test_cli_rejected_model_value_is_typed_error(name, line, edited, message, tmp_path, capsys):
    # Values the lattice and parameter-space constructors reject, and jet
    # orders and slots out of range, end in one typed error line.
    text = (bundled_dir() / f"{name}.scn").read_text()
    assert text.count(line + "\n") == 1
    scenario = tmp_path / "rejected.scn"
    scenario.write_text(text.replace(line + "\n", edited + "\n"))
    assert run_cli(["check-cocycle", str(scenario)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_cli_unwritable_out_is_typed_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    argv = ["holonomy", "paper_example_Z_on_R", "--word", "g", "--out", str(out)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(out) in err


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
