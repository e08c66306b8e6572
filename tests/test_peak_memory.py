"""The traced peak memory of lattice verdicts and of importing the CLI.

A stage of class paths is sampled and checked as one stack, and only its
quadrature is cut into chunks under ``STACK_FLOATS``; the samples are the
memory this trades for speed. Nine local verdicts, the three lattice
scenarios at seeds 0, 1 and 2, run in one fresh interpreter with
``tracemalloc`` started after import, and its peak must stay within
``PEAK_BOUND``. On a 2-vCPU Xeon with numpy 2.4 the peak reads 2.38 MB, and
2.03 MB when every path was sampled and integrated on its own. Keeping the
midpoints and steps of a whole stage at once read 3.06-3.37 MB.

Module constants, the Halton table among them, are built at import, so
their temporaries count toward every run's peak. ``import equihol.cli``
runs in a fresh interpreter with numpy and the standard modules it uses
already imported, and its traced peak must stay within
``IMPORT_PEAK_BOUND``. On the same host it reads 3.43 MB without the
table and 3.47 MB with its 256 rows built one prime column at a time,
while a 1024-row table built in one broadcast over every prime read
6.46 MB.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PEAK_BOUND = 2.75e6
IMPORT_PEAK_BOUND = 3.6e6

SCRIPT = textwrap.dedent("""
    import contextlib, io, tracemalloc
    from equihol.cli import main
    tracemalloc.start()
    for seed in (0, 1, 2):
        for name in ("lattice_fiber_shift", "lattice_planted_local", "lattice_zero_mode"):
            with contextlib.redirect_stdout(io.StringIO()):
                main(["verdict", name, "--local", "--seed", str(seed)])
    print(tracemalloc.get_traced_memory()[1])
""")


IMPORT_SCRIPT = textwrap.dedent("""
    import argparse, dataclasses, json, re, tracemalloc
    import numpy
    tracemalloc.start()
    import equihol.cli
    print(tracemalloc.get_traced_memory()[1])
""")


def traced_peak(script: str) -> int:
    """The last number ``script`` prints, run in a fresh interpreter on ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return int(run.stdout.split()[-1])


def test_lattice_verdicts_keep_their_traced_peak():
    peak = traced_peak(SCRIPT)
    assert 0 < peak <= PEAK_BOUND, f"traced peak {peak / 1e6:.2f} MB"


def test_importing_the_cli_keeps_its_traced_peak():
    peak = traced_peak(IMPORT_SCRIPT)
    assert 0 < peak <= IMPORT_PEAK_BOUND, f"traced import peak {peak / 1e6:.2f} MB"
