import argparse
import ast
import contextlib
import dataclasses
import io
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from equihol import cli
from equihol.bundle import CocycleReport
from equihol.cli import main as cli_main
from equihol.errors import ExpressionNameError, ExpressionSyntaxError, ScenarioError
from equihol.holonomy import HolonomyResult
from equihol.scenario import (
    _SCHEMA,
    _pattern,
    bundled_dir,
    bundled_names,
    format_scenario,
    load_scenario,
    parse_scenario,
)
from equihol.solvers import Verdict

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
        assert again.sections == scenario.sections, name


def test_format_doc_names_the_schema_keys():
    # The code blocks of the format document and the schema table name the
    # same (section, key) pairs: a labelled section stands for its
    # ``kind.*`` entry, and any key of a ``*`` section for ``*``.
    doc = (Path(__file__).resolve().parents[1] / "docs" / "scenario-format.md").read_text()
    pairs, section = set(), None
    for block in doc.split("```")[1::2]:
        for row in block.splitlines():
            row = row.split("#", 1)[0].strip()
            if row.startswith("["):
                section = _pattern(row[1:-1])
            elif " = " in row:
                key = row.split(" = ", 1)[0]
                pairs.add((section, "*" if "*" in _SCHEMA[section] else key))
    assert pairs == {(section, key) for section, keys in _SCHEMA.items() for key in keys}


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


def _printed(call, argv):
    """Exit code, stdout and stderr of one CLI call; usage errors exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cli_reuses_one_parser_across_calls(monkeypatch):
    # The parser is built once per process; each call parses its own argv,
    # and a usage error leaves nothing behind for the calls after it.
    holonomy = ["holonomy", "paper_example_Z_on_R", "--word", "g^2", "--format", "json-like"]
    argvs = [holonomy, ["holonomy", "trivial", "--probes", "x"],
             ["verdict", "trivial", "--seed", "5"], holonomy]
    first = [_printed(lambda a: cli._run(cli.build_parser()[0].parse_args(a)), a) for a in argvs]
    assert [code for code, _, _ in first] == [0, 2, 0, 0]
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__",
        lambda self, *a, **k: built.append(1) or init(self, *a, **k),
    )
    assert [_printed(cli_main, a) for a in argvs] == first
    assert built == []


def test_cli_holonomy_worked_example(capsys):
    code = run_cli(["holonomy", "paper_example_Z_on_R", "--word", "g^1", "--path", "unit"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.500000000" in out


def test_cli_holonomy_reads_the_identity_as_it_prints_it(capsys):
    # The report names the empty word 1, and --word 1 reads it back.
    assert run_cli(["holonomy", "trivial", "--word", "1"]) == 0
    assert capsys.readouterr().out == "holonomy(1; unit) = 0.000000000\n"


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
        # The letter count is checked before the word is expanded.
        (["holonomy", "trivial", "--word", "g^99999999999"],
         "word 'g^99999999999' has more than 10000 letters"),
        (["check-cocycle", "trivial", "--max-word-len", "1"], "--max-word-len must be at least 2"),
        (["verdict", "trivial", "--max-word-len", "1"], "--max-word-len must be at least 2"),
        (["holonomy", "trivial", "--word", "g", "--max-word-len", "1"],
         "--max-word-len must be at least 2"),
        # The ceiling is checked before any probe stack is allocated.
        (["verdict", "trivial", "--probes", "100000000"], "--probes must be at most 4096"),
        # A seed outside 0..2**31 - 1 is rejected, not folded onto one inside.
        (["verdict", "trivial", "--seed", "2147483651"], "--seed must be at most 2147483647"),
        (["verdict", "trivial", "--seed", "-5"], "--seed must be at least 0, got -5"),
        (["holonomy", "trivial", "--word", "g", "--seed", "-1"], "--seed must be at least 0"),
        (["selftest", "--seed", "-5"], "seed must lie in 0..2147483647, got -5"),
        (["selftest", "--seed", "2147483648"], "seed must lie in 0..2147483647, got 2147483648"),
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
        ("paths = 8", "unknown key 'paths' in [solver]"),
        ("basepoints = 3", "unknown key 'basepoints' in [solver]"),
        ("slack_bound = 16", "unknown key 'slack_bound' in [solver]"),
        ("holdout_tol = nan", "[solver] holdout_tol"),
        ("fit_tol = 0", "[solver] fit_tol"),
        ("fit_tol = inf", "[solver] fit_tol"),
        ("max_word_len = 7", "[solver] max_word_len"),
        ("max_word_len = 1", "[solver] max_word_len"),
        ("degree = -1", "[solver] degree must be at least 0"),
        ("probes = 4097", "[solver] probes or --probes must be at most 4096"),
        ("holdout = 4097", "[solver] holdout or --probes must be at most 4096"),
        ("path_samples = 8193", "[solver] path_samples must be at most 8192"),
        ("degree = 9", "[solver] degree must be at most 8"),
        ("seed = -1", "[solver] seed or --seed must be at least 0, got -1"),
        ("seed = 2147483648", "[solver] seed or --seed must be at most 2147483647"),
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
        ("forward = [x1 + 1]", "forward = [x1 + exp(1000*x1)]",
         "image of generator 'g' is non-finite at ["),
        # A literal that overflows is rejected where it stands.
        ("forward = [x1 + 1]", "forward = [x1 + 0*x1^1e999 + 1]",
         "number '1e999' is not finite (line 16, "),
        ("g = 0.5\n", "g = 0.5 + 0*1e999\n", "number '1e999' is not finite (line 21, column 13)"),
    ],
    ids=["cocycle", "constant", "map", "exponent_literal", "literal"],
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
    "name, line, edited, argv, message",
    [
        ("affine_line", "rho = [0.6*x1]", "rho = [0.6*x1/0]", ["verdict"],
         r"error: one-form 'rho' non-finite at point \[-?\d\.\d+(e-?\d+)?\]\n"),
        ("lattice_zero_mode", "rho_zmode = zmode^2", "rho_zmode = zmode^2/0",
         ["verdict", "--local"],
         r"error: one-form 'rho_zmode' non-finite at point \[(-?\d\.\d+(e-?\d+)?, ){31}"
         r"-?\d\.\d+(e-?\d+)?\]\n"),
    ],
    ids=["chart", "lattice"],
)
def test_cli_non_finite_form_names_its_point(name, line, edited, argv, message, tmp_path, capsys):
    text = (bundled_dir() / f"{name}.scn").read_text()
    assert text.count(line) == 1
    scenario = tmp_path / "non_finite_form.scn"
    scenario.write_text(text.replace(line, edited))
    assert run_cli([argv[0], str(scenario), *argv[1:]]) == 1
    assert re.fullmatch(message, capsys.readouterr().err)


def test_cli_trivial_first_cohomology_on_a_torus_is_rejected_at_its_line(tmp_path, capsys):
    text = (bundled_dir() / "torus_shift.scn").read_text()
    line = text.splitlines().index("a1 = false") + 1
    scenario = tmp_path / "torus_a1.scn"
    scenario.write_text(text.replace("a1 = false", "a1 = true"))
    assert run_cli(["check-cocycle", str(scenario)]) == 1
    assert capsys.readouterr().err == (
        "error: [assumptions] a1 = true asserts a trivial first cohomology, "
        f"which a torus does not have (line {line})\n"
    )


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
        ("lattice_fiber_shift", "density_degree = 2", "density_degree = -1",
         "[lattice] density_degree must be at least 0 (line 11)"),
        ("lattice_fiber_shift", "path_samples = 192", "path_samples = 192\nslots = [3]",
         "[solver] slots must be variation slots in 0..2 (line 34)"),
        ("lattice_fiber_shift", "path_samples = 192", "path_samples = 192\nslots = []",
         "[solver] slots must be variation slots in 0..2 (line 34)"),
        ("lattice_fiber_shift", "path_samples = 192", "path_samples = 192\nslots = [0, 0]",
         "[solver] slots must not repeat a slot (line 34)"),
        ("rotation", "field = [-x2, x1]", "field = [-x2]",
         "expected 2 expressions (one per axis), found 1 (line 27, column 9)"),
        ("rotation", "field = [-x2, x1]", "field = [-x2, x1, 0]",
         "expected 2 expressions (one per axis), found 3 (line 27, column 9)"),
        ("rotation", "flow = [cos(t)*x1 - sin(t)*x2, sin(t)*x1 + cos(t)*x2]",
         "flow = [cos(t)*x1 - sin(t)*x2]",
         "expected 2 expressions (one per axis), found 1 (line 28, column 8)"),
        ("rotation", "forward = [cos(0.7)*x1 - sin(0.7)*x2, sin(0.7)*x1 + cos(0.7)*x2]",
         "forward = [cos(0.7)*x1 - sin(0.7)*x2]",
         "expected 2 expressions (one per axis), found 1 (line 16, column 11)"),
        ("trivial", "[cocycle]", "[relations]\nr = g^99999999999\n\n[cocycle]",
         "word 'g^99999999999' has more than 10000 letters (line 19, column 5)"),
        ("trivial", "[cocycle]", "[relations]\nr = g^x\n\n[cocycle]",
         "bad exponent in word chunk 'g^x' (line 19, column 5)"),
        # A generator label is read back from word text, where a^b is a
        # power and 1 is the identity.
        ("trivial", "[group.g]", "[group.a^b]",
         "[group.a^b] label 'a^b' must be an identifier: a letter or '_', "
         "then letters, digits or '_' (line 13)"),
        ("lattice_fiber_shift", "[fieldgroup.g]", "[fieldgroup.1]",
         "[fieldgroup.1] label '1' must be an identifier: a letter or '_', "
         "then letters, digits or '_' (line 13)"),
        # An item of a list reports its own column, not the list's.
        ("rotation", "rho = [-0.1*x2, 0.1*x1]", "rho = [-0.1*x2, 0.1*bogus]",
         "unknown name 'bogus' (line 32, column 21)"),
        ("paper_example_Z_on_R", "forward = [x1 + 1]", "forward = [x1 + .]",
         "malformed number '.' (line 16, column 17)"),
        ("rotation", "upper = [6, 6]", "upper = [6, 6x]",
         "expected a number, found '6x' (line 10, column 13)"),
        ("lattice_fiber_shift", "path_samples = 192", "path_samples = 192\nslots = [1, x]",
         "expected an integer, found 'x' (line 34, column 13)"),
        # A point entry has one number per axis, and a probe box a positive
        # extent on every axis.
        ("rotation", "basepoint = [1, 0]", "basepoint = [1]",
         "expected 2 numbers (one per axis), found 1 (line 13, column 13)"),
        ("rotation_anomalous", "fixed_point = [0, 0]", "fixed_point = [0]",
         "expected 2 numbers (one per axis), found 1 (line 30, column 15)"),
        ("rotation_anomalous", "fixed_point = [0, 0]", "fixed_point = [0, 0, 0]",
         "expected 2 numbers (one per axis), found 3 (line 30, column 15)"),
        ("rotation", "probe_upper = [1.5, 1.5]", "probe_upper = [1.5]",
         "expected 2 numbers (one per axis), found 1 (line 12, column 15)"),
        ("rotation_anomalous", "probe_upper = [1.5, 1.5]", "probe_upper = [-2, 1.5]",
         "[space] probe_upper must exceed probe_lower on every axis"),
        ("paper_example_Z_on_R", "probe_lower = [-2]", "probe_lower = [2]",
         "[space] probe_upper must exceed probe_lower on every axis"),
    ],
    ids=["sites", "period", "infinite_period", "halfwidth", "upper", "infinite_upper",
         "infinite_halfwidth", "jet_order", "jet_order_negative", "density_degree_negative",
         "slot_above_jet_order", "no_slots", "repeated_slot",
         "short_field", "long_field", "short_flow", "short_forward", "huge_relation",
         "bad_relation_exponent", "power_label", "identity_label", "expr_item_name",
         "expr_item_number", "float_item",
         "int_item", "short_basepoint", "short_fixed_point", "long_fixed_point",
         "short_probe_upper", "inverted_probe_box", "empty_probe_box"],
)
def test_cli_rejected_model_value_is_typed_error(name, line, edited, message, tmp_path, capsys):
    # Values the lattice and parameter-space constructors reject, jet orders,
    # density degrees and slots out of range, repeated slots, expression lists
    # and points without one entry per axis, inverted probe boxes and relator
    # words too long to expand or with a bad exponent end in one typed error
    # line; a word or point names its position. Every command reads the
    # scenario whole, so a point that only holonomy or verdict reads stops
    # check-cocycle too.
    text = (bundled_dir() / f"{name}.scn").read_text()
    assert text.count(line + "\n") == 1
    scenario = tmp_path / "rejected.scn"
    scenario.write_text(text.replace(line + "\n", edited + "\n"))
    assert run_cli(["check-cocycle", str(scenario)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv", [["check-cocycle"], ["holonomy", "--word", "g"], ["anomaly"], ["verdict", "--local"]]
)
@pytest.mark.parametrize("section", ["[fieldgroup.g]", "[fieldlie.Z]"])
def test_cli_non_finite_chi_fails_at_model_build(argv, section, tmp_path, capsys):
    # A fiber shift is evaluated on the sites when the model is built, so a
    # non-finite chi fails every command, not only the local verdict; the
    # error names the entry and its line.
    text = (bundled_dir() / "lattice_zero_mode.scn").read_text()
    head, _, rest = text.partition(section + "\n")
    assert rest.count("chi = 1\n") >= 1
    line = (head + section + "\n" + rest.partition("chi = 1\n")[0]).count("\n") + 1
    scenario = tmp_path / "chi.scn"
    scenario.write_text(head + section + "\n" + rest.replace("chi = 1\n", "chi = 1/0\n", 1))
    assert run_cli([argv[0], str(scenario)] + argv[1:]) == 1
    assert capsys.readouterr().err == (
        f"error: {section} chi: non-finite field configuration (line {line})\n"
    )


@pytest.mark.parametrize(
    "name, extra, message",
    [
        ("lattice_fiber_shift", "[connection]\nrho = [x1 + bogus]\n",
         "[connection] has no place in a lattice scenario"),
        ("lattice_fiber_shift", "[lie.X]\nfield = []\n", "[lie.X] has no place in a lattice scenario"),
        ("trivial", "[fieldlie.Z]\nkind = shift\n", "[fieldlie.Z] has no place in a chart scenario"),
    ],
    ids=["chart_connection", "chart_lie", "lattice_lie"],
)
def test_cli_section_of_the_other_shape_is_rejected(name, extra, message, tmp_path, capsys):
    # A chart-only section in a lattice scenario, or the reverse, is never
    # read by the model; it is rejected at its header line.
    text = (bundled_dir() / f"{name}.scn").read_text() + "\n"
    header = text.count("\n") + 1
    scenario = tmp_path / "other_shape.scn"
    scenario.write_text(text + extra)
    assert run_cli(["check-cocycle", str(scenario)]) == 1
    assert capsys.readouterr().err == f"error: {message} (line {header})\n"


def test_cli_unwritable_out_is_typed_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    argv = ["holonomy", "paper_example_Z_on_R", "--word", "g", "--out", str(out)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(out) in err


def test_cli_missing_scenario_is_error(capsys):
    """A bare name is looked up as a file and as a bundled scenario, and
    the error says both."""
    assert run_cli(["verdict", "no_such_scenario"]) == 1
    err = capsys.readouterr().err
    assert err == "error: no scenario file or bundled scenario 'no_such_scenario'\n"


def test_cli_bare_bundled_name_ignores_a_file_of_that_name(tmp_path, monkeypatch):
    """A bare bundled name reads the bundled file, whatever the working
    directory holds; ``./<name>`` reads the file there."""
    argv = ["holonomy", "trivial", "--word", "g", "--path", "wiggle:3"]
    expected = _printed(cli_main, argv)
    assert expected[0] == 0
    (tmp_path / "trivial").write_text("junk\n")
    monkeypatch.chdir(tmp_path)
    assert _printed(cli_main, argv) == expected
    assert _printed(cli_main, ["holonomy", "./trivial", "--word", "g"]) == (
        1, "", "error: expected 'key = value' (line 1)\n"
    )


def test_cli_path_with_a_directory_part_is_opened_as_given(tmp_path, monkeypatch, capsys):
    """An absolute or relative path is the one file read: no ``.scn`` is
    added, the bundled directory is not searched, and the error for a
    missing file does not say it was."""
    (tmp_path / "abs.scn").write_text(format_scenario(load_scenario("trivial")))
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    for arg in (str(tmp_path / "abs"), "sub/trivial", "./trivial"):
        assert run_cli(["holonomy", arg, "--word", "g"]) == 1
        assert capsys.readouterr().err == f"error: no scenario file {arg!r}\n"
    assert load_scenario(str(tmp_path / "abs.scn")).name == "abs"


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_cli_unreadable_scenario_is_typed_error(kind, tmp_path, capsys):
    """A path that exists but holds no readable scenario text: one error
    line naming the path, exit 1, no traceback."""
    if kind == "directory":
        path, reason = tmp_path, "cannot read scenario {path!r}: Is a directory"
    else:
        path = tmp_path / "latin1.scn"
        path.write_bytes(format_scenario(load_scenario("rotation")).encode() + b"# caf\xe9\n")
        reason = "scenario {path!r} is not UTF-8 text: invalid continuation byte at byte"
    with pytest.raises(ScenarioError, match=re.escape(reason.format(path=str(path)))):
        load_scenario(str(path))
    assert run_cli(["holonomy", str(path), "--word", "r"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {reason.format(path=str(path))}")
    assert out.err.count("\n") == 1


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


@pytest.mark.parametrize(
    "argv, cls, extra",
    [
        (["verdict", "paper_example_Z_on_R"], Verdict, []),
        (["verdict", "lattice_zero_mode", "--local"], Verdict, []),
        (["check-cocycle", "trivial"], CocycleReport, ["pass"]),
        (["holonomy", "paper_example_Z_on_R", "--word", "g"], HolonomyResult,
         ["path", "formula_value"]),
    ],
    ids=["verdict", "local_verdict", "check_cocycle", "holonomy"],
)
def test_cli_result_keys_are_the_result_fields(argv, cls, extra, tmp_path):
    # A command's result is its object's fields, plus what the command
    # adds; a renamed field renames its report key.
    out = tmp_path / "report.json"
    run_cli(argv + ["--out", str(out)])
    keys = json.loads(out.read_text())["result"]
    assert sorted(keys) == sorted([f.name for f in dataclasses.fields(cls)] + extra)


@pytest.mark.parametrize(
    "name, old, new, message, line",
    [
        ("trivial", "[space]", "[space", "unterminated section header", 4),
        ("trivial", "[space]", "[ ]", "empty section name", 4),
        ("rotation_anomalous", "a2 = true", "a2 true", "expected 'key = value'", 40),
        ("rotation_anomalous", "a2 = true", "= true", "missing key before '='", 40),
        ("trivial", "schema_version = 1", "schema_version = one",
         "schema_version must be an integer", 2),
        ("rotation_anomalous", "lower = [-6, -6]", "lower = [-6, -6", "unterminated list value", 9),
        ("rotation_anomalous", "field = [-x2, x1]", "field = [-x2), x1]",
         "unbalanced parentheses in list", 27),
        ("rotation_anomalous", "identity_component = true", "identity_component = yes",
         "expected true or false", 18),
        ("lattice_fiber_shift", "path_samples = 192", "path_samples = 192\nslots = 1",
         "expected a bracketed list of integers", 34),
        ("torus_shift", "periods = [1]", "", "torus space needs periods", None),
        ("rotation_anomalous", "upper = [6, 6]", "", "box space needs lower and upper bounds",
         None),
        ("lattice_zero_mode", "[assumptions]", "[space]\n\n[assumptions]",
         "a scenario declares either [space] or [lattice]", None),
        ("lattice_zero_mode", "rho_zmode = zmode^2", "rho_zmode = zmode^2\nrho = [0, 0, 0]",
         "[fieldconnection] takes exactly one of rho and rho_zmode", None),
        ("trivial", "path_samples = 384", "path_samples = 384\n\n[bogus]",
         "unknown section [bogus]", 51),
        # The named section affine_line once declared: the format has none.
        ("affine_line", "[assumptions]", "[section.planted]\nlambda = 0.3*x1^2\n\n[assumptions]",
         "unknown section [section.planted]", 46),
    ],
    ids=["open_header", "empty_header", "no_equals", "no_key", "schema_version", "open_list",
         "parentheses", "bool", "ints", "torus_periods", "box_bounds", "space_and_lattice",
         "two_connections", "unknown_section", "named_section"],
)
def test_cli_scenario_parse_errors(name, old, new, message, line, tmp_path, capsys):
    # One edit of a bundled scenario per parser message: the error names
    # its line where it has one, and the CLI prints it as one error line.
    text = (bundled_dir() / f"{name}.scn").read_text()
    assert text.count(old + "\n") == 1
    edited = text.replace(old + "\n", new + "\n" if new else "")
    with pytest.raises(ScenarioError, match=re.escape(message)) as info:
        parse_scenario(edited)
    assert info.value.line == line
    scenario = tmp_path / "edited.scn"
    scenario.write_text(edited)
    assert run_cli(["check-cocycle", str(scenario)]) == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "equihol.cli", "check-cocycle", "trivial"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# Text summaries and exit codes of each command


def _summary(argv):
    code, out, err = _printed(cli_main, argv)
    assert err == ""
    return code, out.splitlines()


def test_cli_verdict_summary_cancels():
    code, lines = _summary(["verdict", "paper_example_Z_on_R"])
    assert code == 0
    assert lines[:10] == [
        "verdict: CANCELS",
        "  cocycle: pass",
        "  equivariant_curvature: pass",
        "  equivariant_primitive: certificate",
        "  invariance_obstruction: skipped",
        "  flatten: pass",
        "  flat_character: pass",
        "  character_membership: certificate",
        "  revalidation: pass",
        "  character: {'g': 0.5}",
    ]
    assert len(lines) == 11 and lines[10].startswith("  certificate: ")
    # The residuals are rounding noise; the rest of the certificate is exact.
    certificate = ast.literal_eval(lines[10][len("  certificate: "):])
    assert certificate.pop("holonomy_residual") < 1e-12
    assert certificate.pop("curvature_residual") < 1e-12
    assert certificate == {"primitive_coefficients": {}, "candidate_lambdas": {"dt": 0.5}}


def test_cli_verdict_summary_obstructed():
    code, lines = _summary(["verdict", "rotation_anomalous"])
    assert code == 2
    assert lines[:4] == [
        "verdict: OBSTRUCTED",
        "  cocycle: pass",
        "  equivariant_curvature: pass",
        "  equivariant_primitive: obstructed",
    ]
    assert len(lines) == 5 and lines[4].startswith("  witness: ")
    witness = ast.literal_eval(lines[4][len("  witness: "):])
    assert witness.pop("anomaly") == pytest.approx(0.25, abs=1e-9)
    assert witness == {"kind": "fixed-point", "generator": "X", "point": [0.0, 0.0]}


def test_cli_verdict_without_a_candidate_is_a_global_anomaly(tmp_path):
    # The paper's example with its candidate dt removed: the flat character
    # kappa(g) = 1/2 is the period of no candidate form, so the verdict stops
    # at character membership with kappa as its witness.
    text = (bundled_dir() / "paper_example_Z_on_R.scn").read_text()
    edited = text.replace("[candidate.dt]\nform = [1]\n", "", 1)
    assert edited != text
    scenario = tmp_path / "no_candidate.scn"
    scenario.write_text(edited)
    code, lines = _summary(["verdict", str(scenario)])
    assert code == 2
    assert lines[:9] == [
        "verdict: OBSTRUCTED",
        "  cocycle: pass",
        "  equivariant_curvature: pass",
        "  equivariant_primitive: certificate",
        "  invariance_obstruction: skipped",
        "  flatten: pass",
        "  flat_character: pass",
        "  character_membership: no_certificate",
        "  character: {'g': 0.5}",
    ]
    assert len(lines) == 10 and lines[9].startswith("  witness: ")
    witness = ast.literal_eval(lines[9][len("  witness: "):])
    assert witness == {"kappa": {"g": 0.5}, "periods": {"g": {}}}


CAPTURE_TOOL = Path(__file__).resolve().parents[1] / "tools" / "capture_reports.py"


def edited_cases():
    """The edited scenarios of ``tools/capture_reports.py`` by file name,
    read from its source without writing a bytecode cache."""
    tool = {}
    exec(compile(CAPTURE_TOOL.read_text(encoding="utf-8"), str(CAPTURE_TOOL), "exec"), tool)
    return {case[0]: case[1:] for case in tool["EDITED_CASES"]}


# Stopping paths of the verdict scaffold, each reached by one edited
# scenario whose report the digests pin: (file name, outcome, stopping
# stage, exit code, entries of the stopping stage's data). A verdict that
# ends in a typed error has outcome "error" and its printed line as the
# data's "stderr".
@pytest.mark.parametrize(
    "file_name, outcome, stage, code, data",
    [
        # The chart cocycle stage names its witness in the stage data too.
        ("torus_order5.scn", "OBSTRUCTED", "cocycle", 2,
         {"max_residual": 0.25, "checks": 256, "witness_words": ["g^2", "g^-3"]}),
        # The lattice cocycle stage does not.
        ("lattice_order5.scn", "OBSTRUCTED", "cocycle", 2, {"max_residual": 0.5, "checks": 128}),
        ("no_candidate.scn", "OBSTRUCTED", "character_membership", 2,
         {"decision": "non-member-within-candidates"}),
        # --tol 0.6 does not move the membership bound: the empty candidate
        # list, 0.5 away from the character on the circle, is no member.
        ("no_candidate_tol.scn", "OBSTRUCTED", "character_membership", 2,
         {"decision": "non-member-within-candidates", "residual": 0.5}),
        # Neither the fully invariant search nor the identity-component one
        # finds a constant primitive of the shear curvature.
        ("primitive_deg0.scn", "INCONCLUSIVE", "equivariant_primitive", 3,
         {"found": False, "best_residual": 1.9915980795610426}),
        # The identity-component primitive has a defect under g that is not
        # closed: the verdict ends in the typed error it prints.
        ("noninvariant_rho.scn", "error", None, 1,
         {"stderr": "error: invariance defect of 'g' is not closed; "
                    "the curvature is not invariant under the full group\n"}),
        # The symmetric gauge, the identity-component primitive of the
        # magnetic translations, has closed defects under both shifts.
        ("magnetic.scn", "INCONCLUSIVE", "invariance_obstruction", 3,
         {"note": "the invariance defects of the identity-component primitive are closed; "
                  "no invariant primitive lies in this ansatz"}),
        # Without the value slot du, which carries the bundled certificate,
        # no local one-form of the ansatz matches the holonomies.
        # The design is rank-deficient (the constant densities on du1 and
        # du2 sum to zero over the circle), and float noise of the form
        # columns reaches the seventh digit of the residuals, so seven
        # digits are pinned.
        ("lattice_slots.scn", "INCONCLUSIVE", "local_global_form", 3,
         {"found": False, "best_residual": 0.0523424, "holdout_residual": 0.4899904,
          "basis": "local one-form densities: 20 members, degree <= 2, slots [1, 2]"}),
        # Looser bounds on the same slots: the weak local form certifies
        # within the bound of 1.0 that the tolerances give, and the fresh
        # paths of revalidation reject it.
        ("lattice_reval.scn", "INCONCLUSIVE", "revalidation", 3,
         {"holonomy_residual": 0.4996974, "paths": 8}),
    ],
)
def test_cli_verdict_stopping_paths(file_name, outcome, stage, code, data, tmp_path):
    name, old, new, command = edited_cases()[file_name]
    text = (bundled_dir() / f"{name}.scn").read_text()
    assert old in text
    scenario = tmp_path / file_name
    scenario.write_text(text.replace(old, new, 1))
    command, *flags = command.split()
    got, out, err = _printed(cli_main, [command, str(scenario), *flags, "--format", "json-like"])
    if outcome == "error":
        assert (got, out, err) == (code, "", data["stderr"])
        return
    assert (got, err) == (code, "")
    result = json.loads(out)["result"]
    assert (result["outcome"], result["obstructed_stage"]) == (outcome, stage)
    stopped = result["stages"][-1]
    assert stopped["name"] == stage
    assert {key: stopped["data"].get(key) for key in data} == pytest.approx(data)
    if stage == "cocycle":
        assert result["witness"]["words"] == ["g^2", "g^-3"]
        assert ("witness_words" in stopped["data"]) == (name == "torus_shift")


def test_cli_verdict_blames_a_loose_fit_for_the_flattened_closedness():
    # With --tol 1 a primitive fits from two probes too loosely to flatten
    # the curvature, and the closedness check inside flat_character fails
    # on the flattened connection; the scenario itself is consistent.
    got = _printed(cli_main, ["verdict", "rotation", "--probes", "2", "--tol", "1"])
    assert got == (1, "", "error: equivariant closedness defect 4.825e-02 exceeds 0.0001; "
                          "the flattened connection, the scenario's rho minus the fitted "
                          "primitive, is not closed: the fit is at fault, not the scenario\n")


def test_cli_anomaly_summary_names_generators():
    assert _summary(["anomaly", "rotation"]) == (0, ["anomaly report: X: sample 0"])


def test_cli_curvature_summary():
    code, lines = _summary(["curvature", "rotation"])
    assert code == 0 and len(lines) == 1
    prefix = "curvature report: residuals "
    assert lines[0].startswith(prefix)
    residuals = ast.literal_eval(lines[0][len(prefix):])
    assert list(residuals) == ["d_omega", "moment"]
    assert residuals["d_omega"] == 0.0 and residuals["moment"] < 1e-10


def test_cli_check_cocycle_pass_line():
    # trivial has no relator among its words up to length 3 and no declared
    # relation: the checks are its family against the law on six words at
    # 96 probes.
    assert _summary(["check-cocycle", "trivial"]) == (
        0, ["cocycle residual 0.000e+00 over 576 checks: pass"]
    )


def test_cli_selftest_summary_lines():
    code, lines = _summary(["selftest"])
    assert code == 0
    assert lines == (
        ["selftest over 10 scenarios, seed 7"]
        + [f"  {name}: pass" for name in bundled_names()]
        + ["ok"]
    )


def test_cli_config_echo_key_order(monkeypatch):
    # The canonical JSON sorts keys; the echo itself keeps the order in
    # which the settings were always listed.
    seen = []
    envelope = cli.reports.envelope
    monkeypatch.setattr(
        cli.reports, "envelope", lambda *a: seen.append(a[2]) or envelope(*a)
    )
    assert _printed(cli_main, ["check-cocycle", "trivial", "--seed", "3"])[0] == 0
    assert list(seen[0].items()) == [
        ("seed", 3), ("probes", 96), ("holdout", 96), ("fit_tol", 1e-06),
        ("holdout_tol", 1e-05), ("degree", 2), ("max_word_len", 3),
        ("path_samples", 384), ("candidates_complete", False),
    ]
