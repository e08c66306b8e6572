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

A row may instead, or also, replace one ``src`` function, method or
quadrature rule by a faulty copy for the test's duration: a method on its
class, any other in its module and in every ``equihol`` module that
imported it. A row with no scenario runs its command as it stands. A
command named ``<name>_suite`` runs that selftest suite of
``equihol.suites`` on the one scenario at the given seed and prints its
entries on one line, exiting 1 when the suite fails. Two more commands
print one line: ``verdict_stop`` prints a verdict's outcome and its last
stage with that stage's data, exiting as ``verdict`` does, and ``replay``
rebuilds the certificate a CANCELS chart verdict prints and revalidates
it as ``test_certificate_replay`` does, exiting 1 when that fails. When the
verdict itself ends in an ``error:`` line, both print that line and exit
as the verdict does.
"""

import contextlib
import importlib
import io
import json
import re
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from test_certificate_replay import chart_revalidations

from equihol import bundle, geometry, solvers, suites
from equihol.cli import main
from equihol.scenario import format_scenario, load_scenario, parse_scenario


@dataclass(frozen=True)
class Fault:
    check: str
    scenario: Optional[str]  # None: the command takes no scenario
    edits: dict  # {(section, key): value}; a missing key or section is added, None deletes
    argv: tuple  # the command and its flags; the scenario path goes second
    code: int
    output: str  # a pattern the printed line must match from its start
    patch: tuple = ()  # (module, function or rule name, faulty copy)


def edited_text(name: str, edits: dict) -> str:
    """The canonical text of a bundled scenario with ``edits`` applied:
    an entry replaces its key's line, or is added at the end of its section,
    and a missing section is added at the end of the file. An entry with
    the key and value ``None`` deletes its section."""
    lines = format_scenario(load_scenario(name)).splitlines() + [""]
    for (section, key), value in edits.items():
        if f"[{section}]" not in lines:
            lines += [f"[{section}]", ""]
        start = lines.index(f"[{section}]") + 1
        end = lines.index("", start)
        keys = [line.split(" = ", 1)[0] for line in lines[start:end]]
        entry = f"{key} = {value}"
        if key is None:
            del lines[start - 1:end + 1]
        elif key in keys:
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


# ``geometry.SIMPSON`` with the midpoint weight 4.1 in place of 4.
HEAVY_SIMPSON = ((0.0, 0.5, 1.0), (1.0, 4.1, 1.0), 6.0)


def _first_to_last(words, reading=geometry._letter_rows):
    """``geometry._letter_rows`` reading each row's letters first to last."""
    return reading([word[::-1] for word in words])


def _first_stack_values(per: int):
    """``bundle.section_rows`` where a read with images, the one section
    read of a class-path stage, gives every stack of ``per`` paths the
    values of the first stack's paths."""
    def read(bundle_, section, words, xs, images=False, section_rows=bundle.section_rows):
        out = section_rows(bundle_, section, words, xs, images)
        if not images:
            return out
        ys, values = out
        return ys, values[np.arange(len(values)) % per]

    return read


def _unpushed(g, many, points, *vectors):
    """``GroupElement.pullback_defect`` reading the vectors at the images
    as they are, not pushed forward by the generator."""
    return many(g(points), *vectors) - many(points, *vectors)


def _cut_at_1e_2(coefficients):
    """``solvers._significant`` keeping only coefficients above 1e-2."""
    return {k: v for k, v in (coefficients or {}).items() if abs(v) > 1e-2}


def _swapped_keys(coefficients, significant=solvers._significant):
    """``solvers._significant`` printing the coefficients under their keys
    in reverse order."""
    kept = significant(coefficients)
    return dict(zip(reversed(list(kept)), kept.values()))


# translation_shear scaled by 0.005, certified by the primitive -0.005 x2 dx1.
WEAK_SHEAR = {
    ("cocycle", "s"): "0.005 * x2", ("cocycle_family", "family"): "0.005 * n1 * x2",
    ("lie.T", "alpha"): "0.005 * t * x2", ("connection", "rho"): "[0.0, 0.005 * x1]",
    ("moment", "T"): "0.005 * x2",
}


# affine_line turned into the translation t1 and the doubling s1, with the
# relator s1 t1 s1^-1 = t1^2 and the cocycle family 0.5*n2: the
# doubling_family.scn case of tools/capture_reports.py.
DOUBLING_FAMILY = {
    ("group.t1", "identity_component"): "false",
    ("group.s1", "forward"): "[2*x1]", ("group.s1", "inverse"): "[0.5*x1]",
    ("group.s1", "identity_component"): "false",
    ("relations", "r"): "s1 t1 s1^-1 t1^-2",
    ("cocycle", "t1"): "0", ("cocycle", "s1"): "0.5",
    ("cocycle_family", "family"): "0.5*n2",
    ("connection", "rho"): "[0]",
    ("lie.T", None): None, ("lie.S", None): None, ("moment", None): None,
}


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
    # A holonomy query builds the same model, so it stops at the same check.
    "quarter_turn_undeclared_holonomy": Fault(
        "coincident images", "torus_shift", _turn("0.25", "0.3"), ("holonomy", "--word", "g"),
        1, r"error: cocycle residual 2\.000e-01 exceeds 1e-06 at word pair \('g\^2', 'g\^-2'\), ",
    ),
    # An inverse map that misses the forward rotation by 0.1 rad in one
    # term: the construction check of the inverses stops the query.
    "inverse_off_forward": Fault(
        "generator inverses", "rotation",
        {("group.r", "inverse"): "[cos(0.7)*x1 + sin(0.7)*x2, cos(0.7)*x2 - sin(0.6)*x1]"},
        ("holonomy", "--word", "r"), 1,
        r"error: generator inverse defect 1\.424e-01 exceeds 1e-08\n",
    ),
    # g^8 lies beyond the coincidences of words up to length 3.
    "eighth_turn_relator": Fault(
        "declared relators", "torus_shift", _turn("0.125", "0.1", "g^8"),
        ("check-cocycle", "--max-word-len", "3"), 1,
        r"error: cocycle residual 2\.000e-01 exceeds 1e-06 at word pair \('g\^8', '1'\), ",
    ),
    # The RK4 route of one holonomy and of the selftest's stacked draws
    # share the Simpson rule; a wrong weight moves it off the midpoint
    # route.
    "heavy_simpson_holonomy": Fault(
        "holonomy methods agree", "rotation", {}, ("holonomy", "--word", "r"), 1,
        r"error: holonomy methods disagree by 1\.074e-03 on word 'r'\n",
        ("equihol.geometry", "SIMPSON", HEAVY_SIMPSON),
    ),
    "heavy_simpson_selftest": Fault(
        "holonomy methods agree", None, {}, ("selftest",), 1,
        r"error: holonomy methods disagree by 5\.600e-03 on word 't1'\n",
        ("equihol.geometry", "SIMPSON", HEAVY_SIMPSON),
    ),
    # An inverse letter's value read at the image before the letter, as a
    # forward letter's is, and not at the image after it. The law values of t1^-1 and s1^-1 then go wrong where
    # the generator values vary along the orbits, and the commutator
    # relator of the affine group shows it.
    "inverse_value_at_rest": Fault(
        "coincident images", "affine_line", {}, ("check-cocycle", "--max-word-len", "4"), 1,
        r"cocycle residual 4\.987e-01 over 768 checks: "
        r"FAIL at \('t1\^-1 s1\^-1 t1\^-1 s1', 's1\^-1 t1\^-1 s1 t1\^-1'\) \[",
        ("equihol.bundle", "_value_site", lambda sign, before, after: before),
    ),
    # The same fault passes the cocycle check of the selftest at word
    # length 3; the character on a two-letter word against the holonomy
    # along a fresh class path of it shows it.
    "inverse_value_at_rest_flat": Fault(
        "flat suite", "affine_line", {}, ("flat_suite", "0"), 1,
        r"spread .*, additivity 0\.494\d*, ok False\n",
        ("equihol.bundle", "_value_site", lambda sign, before, after: before),
    ),
    # The stacked read of the group maps taking each row's letters first to
    # last. The path ends at the image of the reversed word, while the
    # cocycle of affine_line, which has no family, reads its images off its
    # own law fold: the class check of the path sees the two apart.
    "letters_first_to_last": Fault(
        "path class", "affine_line", {}, ("holonomy", "--word", "t1 s1^-1"), 1,
        r"error: path endpoint misses the image of its start under 't1 s1\^-1' by 3\.935e-01\n",
        ("equihol.geometry", "_letter_rows", _first_to_last),
    ),
    # The same reading on a cocycle family over two generators. A family
    # reads only exponent sums and every image comes from the stacked
    # read, so paths, class checks and cocycle checks agree under the
    # fault, as they would on any family scenario; the character, being
    # abelian, takes one value on a word and on its reversal. The declared
    # relator read first letter first, x -> 2x -> 2x + 1 -> x + 0.5 ->
    # x - 1.5, is no relator, and the action's relation check at model
    # build sees it.
    "letters_first_to_last_relator": Fault(
        "action relations", "affine_line", DOUBLING_FAMILY, ("holonomy", "--word", "t1 s1^-1"), 1,
        r"error: action relation defect 1\.500e\+00 exceeds 1e-08\n",
        ("equihol.geometry", "_letter_rows", _first_to_last),
    ),
    # Every row of a stacked family call valued at the exponents of the
    # stack's first word: the family rows of the cocycle check hold every
    # word of the check, so the family leaves the law from the second word on.
    "first_word_exponents": Fault(
        "family against law", "translation_shear", {}, ("check-cocycle",), 1,
        r"error: cocycle residual 4\.927e-01 exceeds 1e-06 at word pair \('s\^2', 's\^2'\), "
        r"point \[",
        ("equihol.bundle", "_exponent_columns",
         lambda action, words: action.exponent_vector(words[0])),
    ),
    # A curvature the shift does not keep, with no one-parameter generator:
    # the primitive invariant under the identity component, x1^2 dx2 up to
    # a gauge, has a defect under g whose d is the curvature's change.
    "noninvariant_rho": Fault(
        "invariance defects closed", "trivial",
        {("lie.T", None): None, ("moment", None): None, ("connection", "rho"): "[0, x1^2]"},
        ("verdict",), 1,
        r"error: invariance defect of 'g' is not closed; "
        r"the curvature is not invariant under the full group\n",
    ),
    # Pullback defects of unpushed vectors. The rotation turns the vectors
    # it moves, so the invariance rows of the primitive search no longer
    # hold for the invariant primitive 0.1 (x1 dx2 - x2 dx1) of its
    # curvature, and no form of the ansatz fits every row. The other chart
    # verdicts keep their outcomes.
    "pullback_without_pushforward": Fault(
        "primitive fit and holdout bounds", "rotation", {}, ("verdict_stop",), 3,
        r"INCONCLUSIVE at equivariant_primitive: no_certificate; basis .*, "
        r"best_residual 0\.1134\d*, found False, holdout_residual 0\.1295\d*, note ",
        ("equihol.geometry", "GroupElement.pullback_defect", _unpushed),
    ),
    # Every stack of a class-path stage reading the first stack's section
    # values. The chart revalidation of translation_shear takes 20 paths of
    # 384 samples, two stacks of 10, and the cocycle x2 of its shift varies
    # along the orbits: path 10, s^2 from the base of path 0, reads the
    # value of s there. The flat character's 6 paths per generator fit in
    # one stack and miss it, and trivial, whose cocycle vanishes, cannot
    # show it.
    "misaligned_stage_values": Fault(
        "revalidation holonomy gap", "translation_shear", {}, ("verdict_stop",), 3,
        r"INCONCLUSIVE at revalidation: fail; curvature_residual \S+, "
        r"holonomy_residual 0\.4423\d+, ok False, pairs 20\n",
        ("equihol.bundle", "section_rows",
         _first_stack_values(geometry.STACK_FLOATS // (383 * 2))),
    ),
    # Reports leaving out a coefficient below 1e-2: the verdict stands, but
    # the certificate it prints no longer holds.
    "significant_cut_at_1e_2": Fault(
        "certificate replay", "translation_shear", WEAK_SHEAR, ("replay",), 1,
        r"replay of CANCELS: holonomy residual 2\.2\d\de-02, curvature residual \S+, ok False\n",
        ("equihol.solvers", "_significant", _cut_at_1e_2),
    ),
    "swapped_coefficient_keys": Fault(
        "certificate replay", "rotation", {}, ("replay",), 1,
        r"replay of CANCELS: holonomy residual 4\.234e-01, curvature residual \S+, ok False\n",
        ("equihol.solvers", "_significant", _swapped_keys),
    ),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if argv[0].endswith("_suite"):
            code = _suite(*argv)
        else:
            code = COMMANDS.get(argv[0], main)(argv)
    return code, out.getvalue() + err.getvalue()


def _verdict_report(path):
    """Exit code and report of ``verdict`` on the scenario at ``path``. A
    verdict that ends in an ``error:`` line has printed that line, and has
    no report (None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verdict", path, "--format", "json-like"])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def _verdict_stop(argv):
    code, report = _verdict_report(argv[1])
    if report is None:
        return code
    result = report["result"]
    last = result["stages"][-1]
    data = ", ".join(f"{key} {value}" for key, value in last["data"].items())
    print(f"{result['outcome']} at {last['name']}: {last['status']}; {data}")
    return code


def _replay(argv):
    code, report = _verdict_report(argv[1])
    if report is None:
        return code
    if code != 0:
        print(f"no certificate: verdict {report['result']['outcome']}")
        return 1
    scenario = load_scenario(argv[1])
    revals = chart_revalidations(
        scenario, scenario.solver_config(**report["config"]), report["result"]["certificate"],
        report["result"]["ansatz"],
    )
    ok = all(reval["ok"] for reval in revals)
    print(f"replay of CANCELS: "
          f"holonomy residual {max(r['holonomy_residual'] for r in revals):.3e}, "
          f"curvature residual {max(r['curvature_residual'] for r in revals):.3e}, ok {ok}")
    return 0 if ok else 1


COMMANDS = {"verdict_stop": _verdict_stop, "replay": _replay}


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
    """Replace the function or rule in its module and wherever an equihol
    module imported it; a ``Class.method`` name replaces the method on its
    class."""
    if "." in name:
        owner, name = name.split(".")
        monkeypatch.setattr(getattr(importlib.import_module(module), owner), name, faulty)
        return
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
        for (section, key), value in fault.edits.items():
            if key is None:
                assert section not in parsed.sections, section
            else:
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
