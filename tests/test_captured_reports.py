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

import numpy as np
import pytest

from equihol import reports

TOOL = Path(__file__).resolve().parents[1] / "tools" / "capture_reports.py"
DIGESTS = Path(__file__).resolve().parent / "data" / "reports.sha256.json"


def load_tool():
    """The capture tool, executed from its source without a bytecode cache."""
    module = types.ModuleType("capture_reports")
    module.__file__ = str(TOOL)
    exec(compile(TOOL.read_text(encoding="utf-8"), str(TOOL), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def captured():
    """The capture tool, its records, and each report ``reports.to_json``
    wrote while capturing them, with the text it wrote."""
    tool, written, to_json = load_tool(), [], reports.to_json

    def spy(report):
        written.append((report, to_json(report)))
        return written[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reports, "to_json", spy)
        records = tool.capture()
    return tool, records, written


def json_dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"


def test_captured_reports_match_their_digests(captured, monkeypatch):
    """As captured, and again with ``COLUMNS`` at 40 and at 200: argparse
    wraps usage at the width ``COLUMNS`` names unless the parser fixes its
    own, and no record may depend on the terminal."""
    tool, records, _ = captured
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for columns in (None, "40", "200"):
        if columns is not None:
            monkeypatch.setenv("COLUMNS", columns)
            records = tool.capture()
        current = tool.digests(records)
        differing = sorted(k for k in pinned.keys() | current.keys() if pinned.get(k) != current.get(k))
        assert not differing, (
            f"reports differ from their digests (COLUMNS {columns}):\n" + "\n".join(differing)
        )


def test_to_json_writes_the_json_dumps_bytes_of_every_captured_report(captured):
    _, records, written = captured
    # Each json-like report printed is one of the texts written.
    printed = [r["stdout"] for r in records if "json-like" in r["argv"] and r["stdout"]]
    assert len(printed) > 50 and set(printed) <= {text for _, text in written}
    for report, text in written:
        assert text == json_dumps(report)


@pytest.mark.parametrize("value", [
    {}, [], {"a": {}, "b": []}, "caf\u00e9 \u2603 \"q\" \\ \n", {"\u00e9": ["\u00fc", "\x00"]},
    -0.0, 1e-320, 1e16, -1e16, 0.1, True, False, None, 0, -7, 2**70, np.float64(1 / 3),
    {"nest": [[{"k": None, "a": [1.0, -2.5e-300]}], [], {}], "b": (1, 2)},
], ids=repr)
def test_to_json_writes_the_json_dumps_bytes_of_corner_values(value):
    assert reports.to_json(value) == json_dumps(value)
    assert reports.to_json({"value": value}) == json_dumps({"value": value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, np.float64("nan")], ids=repr)
def test_to_json_rejects_non_finite_floats_as_json_does(value):
    for report in (value, {"result": [value]}):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            json_dumps(report)
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            reports.to_json(report)


if __name__ == "__main__":
    tool = load_tool()
    DIGESTS.write_text(json.dumps(tool.digests(tool.capture()), indent=1, sort_keys=True) + "\n")
    print(f"digests written to {DIGESTS}")
