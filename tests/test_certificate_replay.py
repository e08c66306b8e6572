"""Every CANCELS certificate replays from its printed report.

Each ``verdict`` call of ``tools/capture_reports.py`` runs again in the
``json-like`` format. From a CANCELS report, the certified one-form is
rebuilt from the printed certificate and the scenario's own declarations
alone:

- chart: ``primitive_coefficients`` by the member names of
  ``one_form_basis`` at the echoed degree, plus each candidate form times
  its printed lambda;
- lattice: ``local_form_coefficients`` by ``DensityBasis.form_names`` over
  the fitted slots.

The form is then revalidated on fresh seeds at the verdict's own bounds:
the chart revalidation (primitive equation and holonomies on fresh words
and paths), or fresh lattice class paths against ``HOLONOMY_GAP_TOL``. A
coefficient the report leaves out, or prints wrong, shows as a holonomy
gap here. Every captured certificate prints coefficients of 0.1 or more,
so ``SMALL_CASES`` adds edits whose certificates need a smaller one.
"""

import dataclasses
import json
import types
from pathlib import Path

import pytest

from equihol import solvers
from equihol.bundle import connection_report
from equihol.cli import main as cli_main
from equihol.geometry import OneForm, linear_combination
from equihol.holonomy import holonomy_form_gap
from equihol.lattice import DensityBasis, random_fields
from equihol.local_search import LOCAL_PATH_AMPLITUDE, REVALIDATION_PATHS
from equihol.probes import rng_for
from equihol.scenario import bundled_dir, load_scenario

TOOL = Path(__file__).resolve().parents[1] / "tools" / "capture_reports.py"
# Seeds that no captured verdict uses.
FRESH_SEEDS = (5, 99)
# Edited bundled scenarios whose certificate needs a coefficient between
# the report's 1e-9 filter and 1e-2: (file name, bundled scenario,
# replacements, command). translation_shear scaled by 0.005 is certified by
# the primitive -0.005 x2 dx1.
SMALL_CASES = [
    ("weak_shear.scn", "translation_shear", [
        ("s = x2", "s = 0.005*x2"), ("family = n1*x2", "family = 0.005*n1*x2"),
        ("alpha = t*x2", "alpha = 0.005*t*x2"), ("rho = [0, x1]", "rho = [0, 0.005*x1]"),
        ("T = x2", "T = 0.005*x2"),
    ], "verdict"),
]


def load_tool():
    """The capture tool, executed from its source without a bytecode cache."""
    module = types.ModuleType("capture_reports")
    module.__file__ = str(TOOL)
    exec(compile(TOOL.read_text(encoding="utf-8"), str(TOOL), "exec"), module.__dict__)
    return module


def verdict_calls(tool, tmp_dir):
    """Every captured ``verdict`` argument vector and those of
    ``SMALL_CASES``, in the ``json-like`` format, an edited scenario
    written to a file."""
    calls = []
    for argv in tool.argvs(tool.bundled_scenarios()):
        if argv[0] == "verdict":
            calls.append(argv if "json-like" in argv else argv + ["--format", "json-like"])
    edited = [(case[0], case[1], [case[2:4]], case[4]) for case in tool.EDITED_CASES]
    for file_name, name, replacements, command in edited + SMALL_CASES:
        command, *flags = command.split()
        if command == "verdict":
            text = (bundled_dir() / f"{name}.scn").read_text()
            for old, new in replacements:
                assert old in text, (file_name, old)
                text = text.replace(old, new, 1)
            path = tmp_dir / file_name
            path.write_text(text)
            calls.append([command, str(path), *flags, "--format", "json-like"])
    return calls


def chart_revalidations(scenario, cfg, certificate, ansatz):
    """The revalidation of the printed chart certificate at each fresh seed."""
    model = scenario.build_model()
    basis = solvers.one_form_basis(model.space, cfg.degree, cfg.trig)
    assert ansatz.startswith(basis.description + "; ")
    primitive = certificate["primitive_coefficients"]
    assert set(primitive) <= set(basis.names)
    candidates = dict(model.candidates)
    assert set(certificate["candidate_lambdas"]) == set(candidates)
    coefficients = [primitive.get(name, 0.0) for name in basis.names]
    lambdas = [certificate["candidate_lambdas"][name] for name in candidates]
    forms = list(candidates.values())
    combination = OneForm(
        model.space,
        lambda xs, vs: linear_combination(lambdas, [f.many(xs, vs) for f in forms]),
        "replay",
    )
    beta = basis.combine(model.space, coefficients) + combination
    out = []
    for seed in FRESH_SEEDS:
        fresh = dataclasses.replace(cfg, seed=seed)
        eq = connection_report(
            model.bundle, model.connection, model.reference_section, model.declared_moment, seed
        ).equivariant_curvature
        out.append(solvers._revalidate(
            model.bundle, model.connection, model.reference_section, eq, beta, fresh,
            solvers.REVALIDATION_PAIRS,
        ))
    return out


def lattice_holonomy_gaps(scenario, cfg, certificate):
    """The holonomy gap of the printed local certificate at each fresh seed."""
    model = scenario.build_lattice_model()
    basis = DensityBasis(model.lattice, model.jet_order, model.density_degree)
    slots = scenario.slot_restriction
    slots = list(range(model.jet_order + 1)) if slots is None else list(slots)
    names = basis.form_names(slots)
    printed = certificate["local_form_coefficients"]
    assert set(printed) <= set(names)
    form = basis.combine([printed.get(name, 0.0) for name in names], slots).as_form(model.space)
    labels = model.bundle.action.labels
    words = [((label, sign),) for sign in (1, -1) for label in labels]
    out = []
    for seed in FRESH_SEEDS:
        bases = random_fields(model.lattice, 2, rng_for(seed, "replay-bases"))
        draws = [(words[i % len(words)], bases[i % len(bases)]) for i in range(REVALIDATION_PATHS)]
        out.append(holonomy_form_gap(
            model.bundle, model.connection, model.reference_section, form, draws,
            rng_for(seed, "replay-paths"), cfg.path_samples, amplitude=LOCAL_PATH_AMPLITUDE,
        ))
    return out


@pytest.fixture(scope="module")
def cancels_reports(tmp_path_factory):
    """(argument vector, report) of every captured verdict that CANCELS."""
    tool = load_tool()
    tmp_dir = tmp_path_factory.mktemp("replay")
    reports = []
    for argv in verdict_calls(tool, tmp_dir):
        record = tool.run(cli_main, argv)
        if record["code"] == 0:
            report = json.loads(record["stdout"])
            assert report["result"]["outcome"] == "CANCELS"
            reports.append((argv, report))
    return reports


def test_replayed_verdicts_include_every_kind_of_cancels(cancels_reports):
    names = {report["scenario"] for _, report in cancels_reports}
    assert {"paper_example_Z_on_R", "rotation", "trivial", "lattice_fiber_shift"} <= names
    assert {"weak_shear", "coarse_line", "coarse_lattice"} <= names
    assert len(cancels_reports) >= 20


def test_every_cancels_certificate_replays_from_its_report(cancels_reports):
    for argv, report in cancels_reports:
        scenario = load_scenario(argv[1])
        cfg = scenario.solver_config(**report["config"])
        certificate = report["result"]["certificate"]
        if "local_form_coefficients" in certificate:
            gaps = lattice_holonomy_gaps(scenario, cfg, certificate)
            assert max(gaps) <= solvers.HOLONOMY_GAP_TOL, (argv, gaps)
        else:
            ansatz = report["result"]["ansatz"]
            for reval in chart_revalidations(scenario, cfg, certificate, ansatz):
                assert reval["ok"], (argv, reval)
