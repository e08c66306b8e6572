"""Planted faults and the checks that must catch them.

Each row edits the canonical text of a bundled scenario (the
``format_scenario`` round trip), runs one CLI command on the edited copy
and names the typed outcome it must produce: the exit code and a pattern
for the one line the command prints. A row's ``check`` names the check
that catches the fault; with that check disabled the row fails.

The cocycle check has three facts, one row each (``check_cocycle``):
coincident-image relators, the family against the law, and declared
relators. A declared relator of length up to twice the check length also
shows as a coincident pair, which comes first; the quarter-turn row shows
this, and the declared-relator row declares a relator beyond that reach.
The bundle's construction check runs at length 2, so a relator of up to 4
letters stops every command when the model is built, declared or not.
"""

import contextlib
import io
import re
from dataclasses import dataclass

import pytest

from equihol.cli import main
from equihol.scenario import format_scenario, load_scenario, parse_scenario


@dataclass(frozen=True)
class Fault:
    check: str
    scenario: str
    edits: dict  # {(section, key): value}; a missing key or section is added
    argv: tuple  # the command and its flags; the scenario path goes second
    code: int
    output: str  # a pattern the printed line must match from its start


def edited_text(name: str, edits: dict) -> str:
    """The canonical text of a bundled scenario with ``edits`` applied:
    an entry replaces its key's line, or is added at the end of its section,
    and a missing section is added at the end of the file."""
    lines = format_scenario(load_scenario(name)).splitlines() + [""]
    for (section, key), value in edits.items():
        if f"[{section}]" not in lines:
            lines += [f"[{section}]", ""]
        start = lines.index(f"[{section}]") + 1
        end = lines.index("", start)
        keys = [line.split(" = ", 1)[0] for line in lines[start:end]]
        entry = f"{key} = {value}"
        if key in keys:
            lines[start + keys.index(key)] = entry
        else:
            lines.insert(end, entry)
    return "\n".join(lines)


# The rigid circle shift of torus_shift by a quarter or an eighth turn,
# with a constant generator value, its family, and, when given, a declared
# relator of the action that the value does not satisfy.
def _turn(step: str, value: str, relator: str = "") -> dict:
    edits = {
        ("group.g", "forward"): f"[x1 + {step}]",
        ("group.g", "inverse"): f"[x1 - {step}]",
        ("cocycle", "g"): value,
        ("cocycle_family", "family"): f"{value}*n1",
    }
    if relator:
        edits[("relations", "r")] = relator
    return edits


FAULTS = {
    # s1^-1 t1 s1 commutes with t1, so their commutator, a relator of 8
    # letters, is first seen at word length 4; a cubic t1 value gives it a
    # nonzero law value. The bundle's own check at length 2 passes it.
    "commutator_relator": Fault(
        "coincident images", "affine_line", {("cocycle", "t1"): "0.1*x1^3"},
        ("check-cocycle", "--max-word-len", "4"), 1,
        r"cocycle residual 4\.992e-01 over 768 checks: "
        r"FAIL at \('t1\^-1 s1\^-1 t1\^-1 s1', 's1\^-1 t1\^-1 s1 t1\^-1'\) \[",
    ),
    "family_off_law": Fault(
        "family against law", "paper_example_Z_on_R",
        {("cocycle_family", "family"): "0.5*n1 + 0.1*x1"}, ("check-cocycle",), 1,
        r"error: cocycle residual 1\.913e-01 exceeds 1e-06 at word pair \('g', 'g'\), point \[",
    ),
    # g^4 is within the reach of the construction check at length 2: g^2
    # and g^-2 coincide, and their pair comes before the declared relator.
    "quarter_turn_relator": Fault(
        "coincident images", "torus_shift", _turn("0.25", "0.3", "g^4"), ("check-cocycle",), 1,
        r"error: cocycle residual 2\.000e-01 exceeds 1e-06 at word pair \('g\^2', 'g\^-2'\), ",
    ),
    # The construction check at length 2 sees g^4 whether or not it is
    # declared, so every command stops when the model is built.
    "quarter_turn_undeclared": Fault(
        "coincident images", "torus_shift", _turn("0.25", "0.3"), ("curvature",), 1,
        r"error: cocycle residual 2\.000e-01 exceeds 1e-06 at word pair \('g\^2', 'g\^-2'\), ",
    ),
    # g^8 lies beyond the coincidences of words up to length 3.
    "eighth_turn_relator": Fault(
        "declared relators", "torus_shift", _turn("0.125", "0.1", "g^8"),
        ("check-cocycle", "--max-word-len", "3"), 1,
        r"error: cocycle residual 2\.000e-01 exceeds 1e-06 at word pair \('g\^8', '1'\), ",
    ),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


@pytest.mark.parametrize("name", FAULTS)
def test_planted_fault_is_caught(name, tmp_path):
    fault = FAULTS[name]
    parsed = parse_scenario(edited_text(fault.scenario, fault.edits), name)
    for section, key in fault.edits:
        assert key in parsed.sections[section], (section, key)
    text = format_scenario(parsed)
    assert format_scenario(parse_scenario(text, name)) == text
    path = tmp_path / f"{name}.scn"
    path.write_text(text)
    command, *flags = fault.argv
    code, printed = _run([command, str(path), *flags])
    assert code == fault.code, printed
    assert printed.count("\n") == 1 and re.match(fault.output, printed), printed


def test_unedited_scenarios_pass_the_fault_commands(tmp_path):
    for fault in FAULTS.values():
        path = tmp_path / f"{fault.scenario}.scn"
        path.write_text(edited_text(fault.scenario, {}))
        command, *flags = fault.argv
        code, printed = _run([command, str(path), *flags])
        assert code == 0 and not printed.startswith("error:"), (fault.scenario, printed)
        if command == "check-cocycle":
            assert printed.endswith(": pass\n"), (fault.scenario, printed)
