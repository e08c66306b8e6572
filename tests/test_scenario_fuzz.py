"""Bounded fuzzing of scenario text.

Each bundled scenario is printed in canonical form (the
``format_scenario`` round trip) and mutated once: a value is replaced, a
line is dropped or duplicated, or a key or section is renamed. The
mutated text goes through ``check-cocycle``, which must end in one of the
documented exit codes with nothing but typed ``error:`` lines on stderr;
an exception escaping ``main`` is a bug. Drawn numbers stay below 1000,
so a valid count (probes, sites) keeps a run small. The example budget is
fixed, so the test runs in a few seconds.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equihol.cli import main
from equihol.scenario import bundled_names, format_scenario, load_scenario

TEXTS = {name: format_scenario(load_scenario(name)).splitlines() for name in bundled_names()}

VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from([
        "0", "-1", "0.0", "1e400", "-1e-300", "nan", "inf", "true", "maybe", "", "x1", "u1",
        "zmode", "[1]", "[6]", "[]", "[1, 2, 3]", "[x1, x2]", "[0.6*u]", "1/0", "(",
        "g^2", "g h", "torus", "site_shift", "shift", "fiber_affine", "2^9999",
    ]),
    st.text(alphabet="0123456789.-+e[], *^()xgu", max_size=3),
)
NAMES = st.one_of(
    st.sampled_from([
        "space", "lattice", "solver", "cocycle", "relations", "group.h", "fieldgroup.h",
        "fieldlie.S", "lie.s", "connection", "fieldconnection", "section.f", "candidate.c",
        "sites", "jet_order", "dimension", "upper", "lower", "periods", "forward", "family",
        "alpha", "kind", "chi", "rho", "rho_zmode", "slots", "probes", "seed", "steps",
    ]),
    st.text(alphabet="abcdefghz._*0", min_size=1, max_size=8),
)


@st.composite
def mutated_scenario(draw):
    lines = list(TEXTS[draw(st.sampled_from(sorted(TEXTS)))])
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    kind = draw(st.sampled_from(["value", "drop", "duplicate", "rename"]))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, line)
    elif line.startswith("["):
        if kind == "rename":
            lines[i] = f"[{draw(NAMES)}]"
    elif " = " in line:
        key, value = line.split(" = ", 1)
        lines[i] = f"{draw(NAMES)} = {value}" if kind == "rename" else f"{key} = {draw(VALUES)}"
    return "\n".join(lines) + "\n"


@settings(
    max_examples=120,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=mutated_scenario())
def test_mutated_scenario_exit_codes(text, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzzed.scn"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-cocycle", str(path)])
    assert code in (0, 1, 2, 3), (text, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert all(row.startswith("error: ") for row in err.getvalue().splitlines()), err.getvalue()
