"""The benchmark's layer tracer must find every boundary it wraps.

``perfbench/spans.py`` rebinds named entry points of the equihol modules;
renaming or moving one of them breaks the traced benchmark, so it must
fail here too. The file is executed from its source, without writing a
bytecode cache next to it.
"""

import types
from pathlib import Path

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
