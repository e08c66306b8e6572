"""Bounded fuzzing of the command line.

Argument vectors for ``holonomy`` and ``check-cocycle`` on two bundled
scenarios are drawn at random: word text, path spec, probe count,
tolerance, word length and seed. Every run must end in one of the
documented exit codes, or in argparse's usage exit 2; any other exception
escaping ``main`` is a bug. The example budget is fixed, so the test runs
in a few seconds.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equihol.cli import main

WORDS = st.one_of(
    st.sampled_from(["g", "g^-1", "g^2", "g g^-1", "g*g", "g^0", "T", "1"]),
    st.text(alphabet="gTqh^-*0123 ", max_size=8),
)
PATHS = st.one_of(
    st.sampled_from(["unit", "wiggle:1", "wiggle:3"]),
    st.builds(lambda k: f"wiggle:{k}", st.integers(-3, 5)),
    st.text(alphabet="unitwgle:x0-", max_size=9),
)
OPTIONS = {
    "--path": PATHS,
    "--probes": st.integers(-2, 24).map(str),
    "--tol": st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["1e-5", "0", "-1", "nan", "inf", "x"]),
    ),
    "--max-word-len": st.integers(-1, 3).map(str),
    "--seed": st.one_of(st.integers(-5, 50), st.just(2**70)).map(str),
}


@st.composite
def argv(draw):
    command = draw(st.sampled_from(["holonomy", "check-cocycle"]))
    args = [command, draw(st.sampled_from(["trivial", "paper_example_Z_on_R"]))]
    if command == "holonomy":
        args += ["--word", draw(WORDS)]
    for flag, values in OPTIONS.items():
        if (flag != "--path" or command == "holonomy") and draw(st.booleans()):
            args += [flag, draw(values)]
    return args


@settings(
    max_examples=120,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv())
def test_cli_exit_codes(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(args)
        except SystemExit as exc:
            assert exc.code == 2, (args, out.getvalue())
            return
    assert code in (0, 1, 2, 3), (args, code, out.getvalue())
