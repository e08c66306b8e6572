"""The benchmark's layer tracer must find every boundary it wraps.

``perfbench/spans.py`` rebinds named entry points of the equihol modules;
renaming or moving one of them breaks the traced benchmark, so it must
fail here too. The file is executed from its source, without writing a
bytecode cache next to it.

One traced verdict of each pipeline pins the calls of every boundary: a
stage that calls a boundary through a reference taken at import time
bypasses the rebinding, and its calls go missing here.
"""

import types
from pathlib import Path

import pytest

import equihol.geometry
from equihol.cli import main as cli_main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_installs_and_uninstalls_every_boundary(capsys):
    spans = load_spans()
    original = equihol.geometry.line_integral
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert equihol.geometry.line_integral is not original
        with tracer.operation(0):
            assert cli_main(["holonomy", "trivial", "--word", "g"]) == 0
    finally:
        tracer.uninstall()
    assert equihol.geometry.line_integral is original
    totals = tracer.layer_totals()
    assert totals["scenario.load"]["calls"] == 1
    assert totals["holonomy.equivariant_holonomy"]["calls"] == 1
    assert totals["geometry.line_integral"]["segments"] > 0


# Calls per boundary of one traced verdict of each pipeline; layers not
# named are never entered. The model build runs its own cocycle check (and,
# on a chart, its own connection report) before the verdict's stages.
VERDICT_CALLS = {
    ("verdict", "rotation"): {
        "bundle.check_cocycle": 2, "bundle.connection_report": 2,
        "holonomy.flat_character": 1, "solvers.primitive": 1, "solvers.membership": 1,
        "solvers.lstsq": 1, "solvers.revalidate": 1,
    },
    ("verdict", "lattice_planted_local", "--local"): {
        "bundle.check_cocycle": 2, "bundle.connection_report": 1,
        "local_search.lie_coboundary": 1, "local_search.global_form": 1,
        "local_search.local_verdict": 1, "solvers.lstsq": 2,
    },
}


@pytest.mark.parametrize("argv", list(VERDICT_CALLS), ids=" ".join)
def test_tracer_sees_every_stage_of_a_verdict(argv, capsys):
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        with tracer.operation(0):
            assert cli_main(list(argv)) == 0
    finally:
        tracer.uninstall()
    calls = {layer: t["calls"] for layer, t in tracer.layer_totals().items() if t["calls"]}
    once = {"unattributed": 1, "scenario.load": 1, "scenario.build": 1, "reports.to_json": 1}
    assert calls == {**once, **VERDICT_CALLS[argv]}
