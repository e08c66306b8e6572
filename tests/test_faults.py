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

A row may instead, or also, replace one ``src`` function by a faulty copy
for the test's duration, in its module and in every ``equihol`` module that
imported it. A row with no scenario runs its command as it stands. A
command named ``<name>_suite`` runs that selftest suite of
``equihol.suites`` on the one scenario at the given seed and prints its
entries on one line, exiting 1 when the suite fails.
"""

import contextlib
import importlib
import io
import re
import sys
from dataclasses import dataclass
from typing import Optional

import pytest

from equihol import suites
from equihol.cli import main
from equihol.scenario import format_scenario, load_scenario, parse_scenario


@dataclass(frozen=True)
class Fault:
    check: str
    scenario: Optional[str]  # None: the command takes no scenario
    edits: dict  # {(section, key): value}; a missing key or section is added
    argv: tuple  # the command and its flags; the scenario path goes second
    code: int
    output: str  # a pattern the printed line must match from its start
    patch: tuple = ()  # (module, function name, faulty copy)


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


def _heavy_simpson(form, path):
    """``geometry.simpson_terms`` with the midpoint weight 4.1 in place of 4."""
    d = path.space.dimension
    starts = path.points[..., :-1, :].reshape(-1, d)
    ends = path.points[..., 1:, :].reshape(-1, d)

    def terms(mids, steps):
        k1, kmid = form.many(starts, steps), form.many(mids, steps)
        return (k1 + 4.1 * kmid + form.many(ends, steps)) / 6.0

    return terms


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
    # The RK4 route of one holonomy and of the selftest's stacked draws
    # share the Simpson terms; a wrong weight moves it off the midpoint
    # route.
    "heavy_simpson_holonomy": Fault(
        "holonomy methods agree", "rotation", {}, ("holonomy", "--word", "r"), 1,
        r"error: holonomy methods disagree by 1\.074e-03 on word 'r'\n",
        ("equihol.geometry", "simpson_terms", _heavy_simpson),
    ),
    "heavy_simpson_selftest": Fault(
        "holonomy methods agree", None, {}, ("selftest",), 1,
        r"error: holonomy methods disagree by 5\.600e-03 on word 't1'\n",
        ("equihol.geometry", "simpson_terms", _heavy_simpson),
    ),
    # An inverse letter's value taken at the image of the rest and not at
    # its own image. The law values of t1^-1 and s1^-1 then go wrong where
    # the generator values vary along the orbits, and the commutator
    # relator of the affine group shows it.
    "inverse_value_at_rest": Fault(
        "coincident images", "affine_line", {}, ("check-cocycle", "--max-word-len", "4"), 1,
        r"cocycle residual 4\.987e-01 over 768 checks: "
        r"FAIL at \('t1\^-1 s1\^-1 t1\^-1 s1', 's1\^-1 t1\^-1 s1 t1\^-1'\) \[",
        ("equihol.bundle", "_value_rows", lambda rows, rests, signs: rests),
    ),
    # The same fault passes the cocycle check of the selftest at word
    # length 3; the character on a two-letter word against the holonomy
    # along a fresh class path of it shows it.
    "inverse_value_at_rest_flat": Fault(
        "flat suite", "affine_line", {}, ("flat_suite", "0"), 1,
        r"spread .*, additivity 0\.494\d*, ok False\n",
        ("equihol.bundle", "_value_rows", lambda rows, rests, signs: rests),
    ),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _suite(*argv) if argv[0].endswith("_suite") else main(argv)
    return code, out.getvalue() + err.getvalue()


def _suite(name, path, seed):
    """The selftest suite ``name`` on the chart scenario at ``path``: its
    entries on one line, and exit 1 when it fails."""
    result = getattr(suites, name)(load_scenario(path).build_model(), int(seed))
    print(", ".join(f"{key} {value}" for key, value in result.items()))
    return 0 if result["ok"] else 1


def _argv(fault, text, tmp_path):
    """The row's command line, on ``text`` written to a file when the row
    has a scenario."""
    if fault.scenario is None:
        return list(fault.argv)
    path = tmp_path / f"{fault.scenario}.scn"
    path.write_text(text)
    command, *flags = fault.argv
    return [command, str(path), *flags]


def _patch(monkeypatch, module, name, faulty):
    """Replace the function in its module and wherever an equihol module
    imported it."""
    original = getattr(importlib.import_module(module), name)
    holders = [m for key, m in sys.modules.items()
               if key.startswith("equihol") and getattr(m, name, None) is original]
    assert holders, (module, name)
    for holder in holders:
        monkeypatch.setattr(holder, name, faulty)


@pytest.mark.parametrize("name", FAULTS)
def test_planted_fault_is_caught(name, tmp_path, monkeypatch):
    fault = FAULTS[name]
    text = None
    if fault.scenario is not None:
        parsed = parse_scenario(edited_text(fault.scenario, fault.edits), name)
        for section, key in fault.edits:
            assert key in parsed.sections[section], (section, key)
        text = format_scenario(parsed)
        assert format_scenario(parse_scenario(text, name)) == text
    if fault.patch:
        _patch(monkeypatch, *fault.patch)
    code, printed = _run(_argv(fault, text, tmp_path))
    assert code == fault.code, printed
    assert printed.count("\n") == 1 and re.match(fault.output, printed), printed


def test_unedited_scenarios_pass_the_fault_commands(tmp_path):
    for fault in FAULTS.values():
        text = None if fault.scenario is None else edited_text(fault.scenario, {})
        argv = _argv(fault, text, tmp_path)
        code, printed = _run(argv)
        assert code == 0 and not printed.startswith("error:"), (argv, printed)
        if argv[0] == "check-cocycle":
            assert printed.endswith(": pass\n"), (argv, printed)
