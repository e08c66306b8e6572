"""The benchmark's layer tracer must find every boundary it wraps.

``perfbench/spans.py`` rebinds named entry points of the equihol modules;
renaming or moving one of them breaks the traced benchmark, so it must
fail here too. The file is executed from its source, without writing a
bytecode cache next to it.

One traced verdict of each pipeline, and one chart verdict that runs the
identity-component search, pin the calls of every boundary: a stage that
calls a boundary through a reference taken at import time bypasses the
rebinding, and its calls go missing here. An argument that names a file
is an edited scenario of ``tools/capture_reports.py``.
"""

import types
from pathlib import Path

import pytest

import equihol.geometry
from equihol.cli import main as cli_main
from equihol.scenario import bundled_dir, load_scenario
from equihol.suites import geometry_suite

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
CAPTURE_TOOL = ROOT / "tools" / "capture_reports.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_installs_and_uninstalls_every_boundary(capsys):
    # A holonomy query integrates inside its own layer; the geometry
    # suite's quadrature check calls line_integral through the name the
    # suites module imported, which the tracer rebinds too.
    spans = load_spans()
    original = equihol.geometry.line_integral
    model = load_scenario("trivial").build_model()
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert equihol.geometry.line_integral is not original
        with tracer.operation(0):
            assert cli_main(["holonomy", "trivial", "--word", "g"]) == 0
        assert tracer.layer_totals()["geometry.line_integral"]["calls"] == 0
        with tracer.operation(1):
            assert geometry_suite(model, 0)["ok"]
    finally:
        tracer.uninstall()
    assert equihol.geometry.line_integral is original
    totals = tracer.layer_totals()
    assert totals["scenario.load"]["calls"] == 1
    assert totals["holonomy.equivariant_holonomy"]["calls"] == 1
    assert totals["geometry.line_integral"]["calls"] == 2
    assert totals["geometry.line_integral"]["segments"] == (2048 - 1) + (4096 - 1)


# Exit code and calls per boundary of each traced verdict; layers not
# named are never entered. The model build runs its own cocycle check
# before the verdict's stages, and the flat character its own connection
# report. With no invariant primitive of degree 0, the identity-component
# search runs its primitive search inside the invariance obstruction.
VERDICT_CALLS = {
    ("verdict", "rotation"): (0, {
        "bundle.check_cocycle": 2, "bundle.connection_report": 2,
        "holonomy.flat_character": 1, "solvers.primitive": 1, "solvers.membership": 1,
        "solvers.lstsq": 1, "solvers.revalidate": 1,
    }),
    ("verdict", "lattice_planted_local", "--local"): (0, {
        "bundle.check_cocycle": 2, "bundle.connection_report": 1,
        "local_search.lie_coboundary": 1, "local_search.global_form": 1,
        "local_search.local_verdict": 1, "solvers.lstsq": 2,
    }),
    ("verdict", "primitive_deg0.scn"): (3, {
        "bundle.check_cocycle": 2, "bundle.connection_report": 1,
        "solvers.primitive": 2, "solvers.invariance_obstruction": 1, "solvers.lstsq": 2,
    }),
}


def scenario_argv(argv, tmp_path):
    """The argument vector, with an edited scenario written to a file."""
    name = argv[1]
    if not name.endswith(".scn"):
        return list(argv)
    tool = {}
    exec(compile(CAPTURE_TOOL.read_text(encoding="utf-8"), str(CAPTURE_TOOL), "exec"), tool)
    _, bundled, old, new, _ = next(case for case in tool["EDITED_CASES"] if case[0] == name)
    path = tmp_path / name
    path.write_text((bundled_dir() / f"{bundled}.scn").read_text().replace(old, new, 1))
    return [argv[0], str(path), *argv[2:]]


@pytest.mark.parametrize("argv", list(VERDICT_CALLS), ids=" ".join)
def test_tracer_sees_every_stage_of_a_verdict(argv, tmp_path, capsys):
    code, expected = VERDICT_CALLS[argv]
    command = scenario_argv(argv, tmp_path)
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        with tracer.operation(0):
            assert cli_main(command) == code
    finally:
        tracer.uninstall()
    calls = {layer: t["calls"] for layer, t in tracer.layer_totals().items() if t["calls"]}
    once = {"unattributed": 1, "scenario.load": 1, "scenario.build": 1, "reports.to_json": 1}
    assert calls == {**once, **expected}
