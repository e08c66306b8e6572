"""Every ``equihol`` function that no captured CLI call enters has a holder.

``tools/unreached.py`` lists the functions, methods and nested functions
defined in ``src/equihol`` that no call of ``tools/capture_reports.py``
enters. Each one listed here is kept for a named reason: the acceptance
file calls it, a test uses it as a reference, or an open ROADMAP item is
to reach it from a command or to delete it. New dead code, or a listed
function that a command starts to enter, fails this test until the table
says why.

The analysis runs in its own interpreter: functions that importing the
package enters are entered again there, whatever this test run imported
before.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ACCEPTANCE = "tests/test_acceptance.py calls it"
REFERENCE = "a test uses it as a reference"

# (module, qualified name) -> what holds it.
HELD = {
    ("bundle", "_pointwise_family"): ACCEPTANCE,
    ("bundle", "_pointwise_family.many"): ACCEPTANCE,
    ("solvers", "ScalarBasis.combine"): ACCEPTANCE,
    ("solvers", "_unwrap"): ACCEPTANCE,
    ("solvers", "solve_group_coboundary"): ACCEPTANCE,
    ("solvers", "solve_lie_coboundary"): ACCEPTANCE,
    ("geometry", "CircleValue.__sub__"): REFERENCE,
    ("geometry", "pointwise.many"): REFERENCE,
    ("geometry", "directional_derivative"): REFERENCE,
    ("geometry", "Path.from_map"): REFERENCE,
    ("geometry", "rk4_line_integral"): REFERENCE,
    ("lattice", "LocalOneForm.__call__"): REFERENCE,
    ("scenario", "_printed"): REFERENCE,
    ("scenario", "format_scenario"): REFERENCE,
    ("geometry", "LieElement._rk4_flow"): "ROADMAP item 3",
    ("geometry", "LieElement.flow_defect"): "ROADMAP item 3",
    ("bundle", "Section.shifted"): "ROADMAP items 19 and 10",
}


def test_never_entered_functions_are_the_held_ones():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "unreached.py")],
                         capture_output=True, text=True, cwd=ROOT)
    assert run.returncode == 0, run.stderr
    found = set(re.findall(r"^(\w+):\d+ (\S+) \(\d+ lines\)$", run.stdout, re.M))
    assert found, run.stdout
    assert sorted(found - set(HELD)) == [], "never entered, with no holder"
    assert sorted(set(HELD) - found) == [], "held, but now entered or gone"
