"""Every captured CLI report is pinned by a digest.

``tools/capture_reports.py`` holds the one list of CLI calls whose reports
a change keeps byte-identical unless it means to change them. This test
captures them again in this interpreter and compares the SHA-256 of each
record with ``tests/data/reports.sha256.json``, naming every argument
vector that differs, as ``capture_reports.py --compare`` names them.

The digests were made with numpy 2.4.6 and Python 3.11.7; another version
may round a printed value differently and fail this test with no fault in
the code. A change that alters a report on purpose lists each changed
argument vector and regenerates the file, from the root of a checkout:

    PYTHONPATH=src python3 tests/test_captured_reports.py
"""

import json
import types
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "capture_reports.py"
DIGESTS = Path(__file__).resolve().parent / "data" / "reports.sha256.json"


def load_tool():
    """The capture tool, executed from its source without a bytecode cache."""
    module = types.ModuleType("capture_reports")
    module.__file__ = str(TOOL)
    exec(compile(TOOL.read_text(encoding="utf-8"), str(TOOL), "exec"), module.__dict__)
    return module


def test_captured_reports_match_their_digests():
    tool = load_tool()
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    current = tool.digests(tool.capture())
    differing = sorted(k for k in pinned.keys() | current.keys() if pinned.get(k) != current.get(k))
    assert not differing, "reports differ from their digests:\n" + "\n".join(differing)


if __name__ == "__main__":
    tool = load_tool()
    DIGESTS.write_text(json.dumps(tool.digests(tool.capture()), indent=1, sort_keys=True) + "\n")
    print(f"digests written to {DIGESTS}")
