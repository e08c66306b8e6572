"""One cold start of the equihol CLI for a workload's scenarios.

A fresh interpreter imports the CLI and gets a first answer for every
scenario of the workload (a unit-path holonomy query, which loads the
scenario and builds its model). ``run.py`` times this whole process to
measure ``setup_s``.

Usage: python3 perfbench/cold_start.py <workload>
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from equihol.cli import main  # noqa: E402

from workloads import WORKLOADS, warmup_argvs  # noqa: E402

if __name__ == "__main__":
    for argv in warmup_argvs(WORKLOADS[sys.argv[1]]):
        with contextlib.redirect_stdout(io.StringIO()):
            if main(argv) != 0:
                sys.exit(f"cold start: {' '.join(argv)} did not answer")
