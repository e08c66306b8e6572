"""Capture the exit code, stdout and stderr of a fixed list of CLI calls.

Usage, from the root of a checkout:

    python3 tools/capture_reports.py <src-dir> <out.json>

``<src-dir>`` is the directory that holds the ``equihol`` package (``src``
of a checkout). Every call runs in this one interpreter through
``equihol.cli.main``; the file written lists, per argument vector, its exit
code and both streams, plus the file written by the one ``--out`` case.
Capturing two checkouts and comparing the files shows whether a change
kept every report byte-identical:

    python3 tools/capture_reports.py ../parent/src /tmp/parent.json
    python3 tools/capture_reports.py src /tmp/change.json
    python3 tools/capture_reports.py --compare /tmp/parent.json /tmp/change.json

``--compare`` prints the argument vector of every record that differs,
with the fields that differ, and under it, for each differing stream
(``stdout``, ``stderr``, ``out_file``), the first line that differs on
each side, marked ``-`` for the parent and ``+`` for the change; it then
exits 1. When every record is equal it prints the record count and exits 0.

``tests/test_captured_reports.py`` pins a digest of every record in
``tests/data/reports.sha256.json`` and re-captures them in the test run.

The argument vectors cover ``verdict`` at seeds 0 and 3 on every bundled
scenario (``--local`` on the lattice ones), ``check-cocycle``, ``anomaly``
and ``curvature`` in both formats, ``holonomy`` of ``g`` and ``g^2`` for
every generator ``g`` along the ``unit`` and ``wiggle:3`` paths, the
two-generator word ``t1 s1^-1`` of ``affine_line`` (the one bundled
cocycle without a family) along ``wiggle:3``, ``selftest``, the
typed-error cases, twenty-nine edited copies of bundled scenarios and one
``--out`` report.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile

FORMATS = ("text", "json-like")
STREAMS = ("stdout", "stderr", "out_file")

ERROR_CASES = [
    ["verdict", "paper_example_Z_on_R", "--probes", "0"],
    ["verdict", "trivial", "--tol", "nan"],
    ["verdict", "trivial", "--tol", "inf"],
    ["verdict", "trivial", "--local"],
    ["check-cocycle", "trivial", "--tol", "-0.5"],
    ["check-cocycle", "trivial", "--tol", "-1e-5"],
    ["check-cocycle", "trivial", "--max-word-len", "7"],
    ["check-cocycle", "no_such_scenario"],
    ["holonomy", "trivial", "--word", "q"],
    ["holonomy", "trivial", "--word", "g", "--path", "wiggle:x"],
    ["holonomy", "trivial", "--word", "g", "--path", "spiral"],
    ["holonomy", "trivial", "--word", "g^"],
    ["anomaly", "trivial", "--probes", "x"],
    ["verdict", "trivial", "--seed", "2147483651"],
    ["verdict", "trivial", "--seed", "-5"],
    ["selftest", "--seed", "-5"],
    # Usage errors and help, printed by argparse before any scenario loads.
    ["holonomy", "trivial", "--word", "g", "--bogus"],
    ["frobnicate", "trivial"],
    ["holonomy", "trivial"],
    ["holonomy", "trivial", "--wo", "g"],
    ["holonomy", "-h"],
]

# Holonomy reads of words with more than one generator, in both formats.
WORD_CASES = [
    ["holonomy", "affine_line", "--word", "t1 s1^-1", "--path", "wiggle:3"],
]

# Edited copies of a bundled scenario: (file name, bundled scenario, text
# replaced, replacement, command and flags).
EDITED_CASES = [
    ("corrupted.scn", "paper_example_Z_on_R", "family = 0.5*n1", "family = 0.5*n1 + 0.1*x1",
     "check-cocycle"),
    ("non_finite.scn", "paper_example_Z_on_R", "g = 0.5\n", "g = 1/0\n", "check-cocycle"),
    ("map_overflow.scn", "paper_example_Z_on_R", "forward = [x1 + 1]",
     "forward = [x1 + exp(1000*x1)]", "check-cocycle"),
    ("bad_name.scn", "rotation", "[cocycle]\n", "[cocycle]\nh = 0.5\n", "verdict"),
    ("bad_slots.scn", "lattice_fiber_shift", "[solver]", "[solver]\nslots = [1, x]", "verdict"),
    ("small_box.scn", "rotation", "lower = [-6, -6]\nupper = [6, 6]",
     "lower = [-1.9, -1.9]\nupper = [1.9, 1.9]", "verdict"),
    ("coarse_torus.scn", "torus_shift", "path_samples = 384", "path_samples = 3", "verdict"),
    ("coarse_lattice.scn", "lattice_fiber_shift", "path_samples = 192", "path_samples = 3",
     "verdict --local"),
    ("coarse_line.scn", "paper_example_Z_on_R", "path_samples = 512", "path_samples = 2",
     "verdict"),
    ("family_div0.scn", "translation_shear", "family = n1*x2", "family = n1*x2/0",
     "check-cocycle"),
    ("flow_div0.scn", "rotation_anomalous", "alpha = 0.25*t", "alpha = 0.25*t/0", "anomaly"),
    ("zmode_div0.scn", "lattice_zero_mode", "rho_zmode = zmode^2", "rho_zmode = zmode^2/0",
     "verdict --local"),
    ("planted_cocycle.scn", "affine_line", "t1 = 0.3*(x1 + 1)^2 - 0.3*x1^2", "t1 = 0.1*x1^3",
     "check-cocycle --max-word-len 4"),
    ("expr_syntax.scn", "paper_example_Z_on_R", "family = 0.5*n1", "family = 0.5*(n1 + 1",
     "check-cocycle"),
    ("expr_name.scn", "translation_shear", "family = n1*x2", "family = n1*x3", "verdict"),
    ("expr_number.scn", "paper_example_Z_on_R", "forward = [x1 + 1]", "forward = [x1 + .]",
     "holonomy --word g"),
    ("expr_item_name.scn", "rotation", "rho = [-0.1*x2, 0.1*x1]", "rho = [-0.1*x2, 0.1*bogus]",
     "curvature"),
    ("float_item.scn", "rotation", "upper = [6, 6]", "upper = [6, 6x]", "verdict"),
    ("no_candidate.scn", "paper_example_Z_on_R", "[candidate.dt]\nform = [1]\n", "", "verdict"),
    # Stopping paths of the verdict scaffold that no bundled scenario reaches:
    # a shift of order 5 on the circle and on the lattice, whose cocycle on
    # the fifth power (1.25, 2.5) is not an integer, and a holdout tolerance
    # of 0.6, which leaves the membership bound where it is: the empty
    # candidate list, 0.5 from the character, is no member.
    ("torus_order5.scn", "torus_shift", "forward = [x1 + 0.3]\ninverse = [x1 - 0.3]",
     "forward = [x1 + 0.2]\ninverse = [x1 - 0.2]", "verdict"),
    ("lattice_order5.scn", "lattice_fiber_shift",
     "sites = 32\nperiod = 1.0\njet_order = 2\ndensity_degree = 2\n\n"
     "[fieldgroup.g]\nkind = fiber_affine\nscale = 1\nchi = 1",
     "sites = 30\nperiod = 1.0\njet_order = 2\ndensity_degree = 2\n\n"
     "[fieldgroup.g]\nkind = site_shift\nsteps = 6", "verdict --local"),
    ("no_candidate_tol.scn", "paper_example_Z_on_R", "[candidate.dt]\nform = [1]\n", "",
     "verdict --tol 0.6"),
    # The two stops after the fully invariant primitive search fails: no
    # identity-component primitive of degree 0, and an identity-component
    # primitive x1^2 dx2 whose defect under g, (2*x1 + 1) dx2, is not closed.
    ("primitive_deg0.scn", "translation_shear", "degree = 2", "degree = 0", "verdict"),
    ("noninvariant_rho.scn", "trivial",
     "[lie.T]\nfield = [1, 0]\nflow = [x1 + t, x2]\nalpha = 0\n\n"
     "[connection]\nrho = [0, 0]\n\n[moment]\nT = 0\n",
     "[connection]\nrho = [0, x1^2]\n", "verdict"),
    # The plane's magnetic translations: unit shifts along both axes, neither
    # in the identity component, with cocycle s = x2 and connection x1 dx2.
    # The identity-component primitive, the symmetric gauge, has closed
    # defects, and no fully invariant primitive exists.
    ("magnetic.scn", "trivial",
     "lower = [-12, -4]\nupper = [12, 4]\nprobe_lower = [-2, -2]\nprobe_upper = [2, 2]\n"
     "basepoint = [0, 0]\n\n[group.g]\nforward = [x1 + 1, x2]\ninverse = [x1 - 1, x2]\n"
     "identity_component = false\n\n[cocycle]\ng = 0\n\n[cocycle_family]\nfamily = 0\n\n"
     "[lie.T]\nfield = [1, 0]\nflow = [x1 + t, x2]\nalpha = 0\n\n"
     "[connection]\nrho = [0, 0]\n\n[moment]\nT = 0\n",
     "lower = [-12, -12]\nupper = [12, 12]\nprobe_lower = [-2, -2]\nprobe_upper = [2, 2]\n"
     "basepoint = [0, 0]\n\n[group.s]\nforward = [x1 + 1, x2]\ninverse = [x1 - 1, x2]\n"
     "identity_component = false\n\n[group.t]\nforward = [x1, x2 + 1]\n"
     "inverse = [x1, x2 - 1]\nidentity_component = false\n\n[cocycle]\ns = x2\nt = 0\n\n"
     "[connection]\nrho = [0, x1]\n", "verdict"),
    # The fiber shift's certificate, -0.5 du, lies on the value slot; no
    # local one-form of the ansatz on the slots du1 and du2 alone matches
    # the holonomies.
    ("lattice_slots.scn", "lattice_fiber_shift", "[solver]", "[solver]\nslots = [1, 2]",
     "verdict --local --seed 0"),
    # The same slots with fit and holdout bounds of 1.0: a weak local form
    # passes both, and revalidation on fresh paths rejects it.
    ("lattice_reval.scn", "lattice_fiber_shift", "[solver]",
     "[solver]\nslots = [1, 2]\nfit_tol = 0.1", "verdict --local --tol 0.1"),
    # The fiber shift with the spectral base rotation as a Lie generator
    # of anomaly 0: the local counterterm search takes its slopes along
    # the shift's flow, and its certificate has no significant coefficient.
    ("lattice_shift.scn", "lattice_fiber_shift", "[assumptions]",
     "[fieldlie.S]\nkind = shift\nalpha = 0\n\n[assumptions]", "verdict --local"),
    # A cocycle family on two generators that do not commute: affine_line
    # turned into the translation t1 and the doubling s1, with the relator
    # s1 t1 s1^-1 = t1^2 and the character 0.5 on s1 alone. Its only
    # invariant connection is 0; no candidate is declared.
    ("doubling_family.scn", "affine_line",
     "[group.t1]\nforward = [x1 + 1]\ninverse = [x1 - 1]\nidentity_component = true\n\n"
     "[group.s1]\nforward = [exp(0.5)*x1]\ninverse = [exp(-0.5)*x1]\nidentity_component = true\n\n"
     "[cocycle]\nt1 = 0.3*(x1 + 1)^2 - 0.3*x1^2\ns1 = 0.3*x1^2*(exp(1) - 1)\n\n"
     "[lie.T]\nfield = [1]\nflow = [x1 + t]\nalpha = 0.3*(x1 + t)^2 - 0.3*x1^2\n\n"
     "[lie.S]\nfield = [x1]\nflow = [exp(t)*x1]\nalpha = 0.3*x1^2*(exp(2*t) - 1)\n\n"
     "[connection]\nrho = [0.6*x1]\n\n[moment]\nT = 0\nS = 0\n",
     "[group.t1]\nforward = [x1 + 1]\ninverse = [x1 - 1]\n\n"
     "[group.s1]\nforward = [2*x1]\ninverse = [0.5*x1]\n\n"
     "[relations]\nr = s1 t1 s1^-1 t1^-2\n\n"
     "[cocycle]\nt1 = 0\ns1 = 0.5\n\n[cocycle_family]\nfamily = 0.5*n2\n\n"
     "[connection]\nrho = [0]\n", "verdict"),
]


def argvs(scenarios):
    """The fixed argument vectors; ``scenarios`` maps each bundled name to
    its kind and generator labels."""
    out = []
    for name, (kind, _) in scenarios.items():
        local = ["--local"] if kind == "lattice" else []
        for seed in ("0", "3"):
            out.append(["verdict", name, "--seed", seed, "--format", "json-like"] + local)
        out.append(["verdict", name] + local)
    for command in ("check-cocycle", "anomaly", "curvature"):
        for name in scenarios:
            for fmt in FORMATS:
                out.append([command, name, "--format", fmt])
    for name, (_, labels) in scenarios.items():
        for label in labels:
            for word in (label, f"{label}^2"):
                for path in ("unit", "wiggle:3"):
                    for fmt in FORMATS:
                        out.append(
                            ["holonomy", name, "--word", word, "--path", path, "--format", fmt]
                        )
    for argv in WORD_CASES:
        for fmt in FORMATS:
            out.append(argv + ["--format", fmt])
    for fmt in FORMATS:
        out.append(["selftest", "--format", fmt])
    return out + ERROR_CASES


def run(main, argv):
    """Exit code, stdout and stderr of one CLI call; usage errors exit."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def bundled_scenarios():
    """Each bundled scenario's kind and generator labels, by name, as
    :func:`argvs` takes them."""
    from equihol.scenario import bundled_names, load_scenario

    scenarios = {}
    for name in bundled_names():
        scenario = load_scenario(name)
        prefix = "fieldgroup." if scenario.kind == "lattice" else "group."
        scenarios[name] = (scenario.kind, list(scenario.labelled(prefix)))
    return scenarios


def capture():
    """The record of every call, through the ``equihol`` package on the path."""
    from equihol.cli import main as cli_main
    from equihol.scenario import bundled_dir

    records = [run(cli_main, argv) for argv in argvs(bundled_scenarios())]
    with tempfile.TemporaryDirectory() as tmp:
        for file_name, name, old, new, command in EDITED_CASES:
            path = os.path.join(tmp, file_name)
            text = (bundled_dir() / f"{name}.scn").read_text()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(old, new, 1))
            command, *flags = command.split()
            record = run(cli_main, [command, path, *flags])
            record["argv"][1] = file_name
            record["stderr"] = record["stderr"].replace(tmp, "<tmp>")
            records.append(record)
        report = os.path.join(tmp, "report.json")
        record = run(cli_main, ["curvature", "rotation", "--out", report])
        record["argv"][-1] = "<out>"
        record["out_file"] = None
        if os.path.exists(report):
            with open(report, encoding="utf-8") as fh:
                record["out_file"] = fh.read()
        records.append(record)
    return records


def digests(records):
    """The SHA-256 of each record's canonical JSON, keyed by its argument vector."""
    return {
        " ".join(r["argv"]): hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()
        for r in records
    }


def main(src_dir, out_path):
    sys.path.insert(0, os.path.abspath(src_dir))
    records = capture()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(records)} calls captured to {out_path}")


def first_difference(old, new):
    """The first line that differs between two unequal texts, from each
    side; a side that has run out of lines, or is ``None``, gives ``None``."""
    lines = [[] if text is None else text.split("\n") for text in (old, new)]
    return next((a, b) for a, b in itertools.zip_longest(*lines) if a != b)


def compare(parent_path, change_path):
    """Print each differing record's argument vector, fields and first
    differing stream lines; the exit code."""
    records = []
    for path in (parent_path, change_path):
        with open(path, encoding="utf-8") as fh:
            records.append({" ".join(r["argv"]): r for r in json.load(fh)})
    parent, change = records
    keys = list(parent) + [k for k in change if k not in parent]
    differing = 0
    for key in keys:
        old, new = parent.get(key), change.get(key)
        if old is None or new is None:
            what = "only in " + (parent_path if new is None else change_path)
        else:
            what = ", ".join(sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k)))
        if what:
            differing += 1
            print(key + ": " + what)
            for stream in STREAMS if old and new else ():
                if old.get(stream) != new.get(stream):
                    a, b = first_difference(old.get(stream), new.get(stream))
                    print(f"  {stream} -: {a}\n  {stream} +: {b}")
    total = len(keys)
    if differing:
        print(f"{differing} of {total} records differ")
        return 1
    print(f"{total} records equal")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
