"""Command-line interface: scenario-driven checks, verdicts and selftest.

Exit codes: 0 for a passing check or a cancellation verdict, 2 when the
verdict is obstructed, 3 when it is inconclusive within the configured
ansatz, and 1 for errors (including a failing cocycle check, which carries
its witness in the report).
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from . import reports
from .bundle import CHECK_TOL, check_cocycle, connection_report, infinitesimal_anomaly
from .errors import ToolkitError
from .geometry import Path, parse_word
from .holonomy import equivariant_holonomy, random_class_path
from .local_search import local_verdict
from .probes import probe_points, rng_for
from .scenario import load_scenario
from .solvers import verdict_pipeline
from .suites import run_selftest


# argparse takes an argument for a number, not an option, when it matches
# this; its own pattern misses exponents, inf and nan, so "--tol -1e-5"
# would end in a usage error before the tolerance check.
NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
)


def _fixed_width(prog):
    """Help and usage wrapped at 78 columns, the width argparse takes in an
    80-column terminal, whatever the terminal's width."""
    return argparse.HelpFormatter(prog, width=78)


def build_parser():
    """The ``equihol`` parser, and each command's subparser by name."""
    parser = argparse.ArgumentParser(
        prog="equihol",
        description="Equivariant circle-bundle toolkit: holonomy, curvature and "
        "anomaly-cancellation verdicts over scenario files.",
        formatter_class=_fixed_width,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
        p._negative_number_matcher = NEGATIVE_NUMBER
        p.formatter_class = _fixed_width
        if scenario:
            p.add_argument("scenario", help="scenario file path or bundled name")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument("--tol", type=float, default=None, help="override held-out tolerance")
        p.add_argument("--probes", type=int, default=None, help="override probe count")
        p.add_argument("--max-word-len", type=int, default=None)
        p.add_argument("--out", default=None, help="write the structured report here")
        p.add_argument("--format", choices=("json-like", "text"), default="text")

    common(sub.add_parser("check-cocycle", help="cocycle law residual with witness"))
    common(sub.add_parser("anomaly", help="infinitesimal anomaly report"))
    hol = sub.add_parser("holonomy", help="equivariant holonomy of a word along a path")
    common(hol)
    hol.add_argument("--word", required=True, help="group word, e.g. g^1 or 'g h^-1'")
    hol.add_argument("--path", default="unit", help="unit | wiggle:<k>")
    common(sub.add_parser("curvature", help="connection, curvature and moment report"))
    verdict = sub.add_parser("verdict", help="staged cancellation decision")
    common(verdict)
    verdict.add_argument(
        "--local", action="store_true",
        help="require a lattice scenario (lattice scenarios always run the local pipeline)",
    )
    self_p = sub.add_parser("selftest", help="run all bundled invariant suites")
    common(self_p, scenario=False)
    return parser, dict(sub.choices)


# Built once per process; every ``main`` call parses its own argv with them.
PARSER, COMMAND_PARSERS = build_parser()


# The solver settings every scenario report echoes, in report order.
CONFIG_ECHO = (
    "seed", "probes", "holdout", "fit_tol", "holdout_tol", "degree", "max_word_len",
    "path_samples", "candidates_complete",
)


def _config(scenario, args):
    flags = {"seed": args.seed, "holdout_tol": args.tol, "probes": args.probes,
             "holdout": args.probes, "max_word_len": args.max_word_len}
    return scenario.solver_config(**{k: v for k, v in flags.items() if v is not None})


def _emit(args, report: dict, summary: str) -> None:
    text = reports.to_json(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ToolkitError(f"cannot write the report to {args.out!r}: {exc.strerror}")
    if args.format == "json-like":
        sys.stdout.write(text)
    else:
        sys.stdout.write(summary)


def _cli_path(model, scenario, word, spec, cfg):
    space = model.space
    base = scenario.basepoint(space)
    if spec == "unit":
        return Path.line(
            space, base, model.bundle.action.apply(word, base), samples=cfg.path_samples
        )
    if spec.startswith("wiggle:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise ToolkitError(f"bad path spec {spec!r}; wiggle takes an integer, e.g. wiggle:1")
        rng = rng_for(cfg.seed, f"cli-path-{k}")
        return random_class_path(
            space, model.bundle.action, word, base, rng, samples=cfg.path_samples
        )
    raise ToolkitError(f"unknown path spec {spec!r}; use unit or wiggle:<k>")


def _check_cocycle(args, scenario, model, cfg):
    rep = check_cocycle(model.bundle, word_length=cfg.max_word_len, probes=cfg.probes, seed=cfg.seed)
    passed = rep.max_residual <= CHECK_TOL
    summary = (
        f"cocycle residual {rep.max_residual:.3e} over {rep.checks} checks: "
        + ("pass\n" if passed else f"FAIL at {rep.witness_words} {rep.witness_point}\n")
    )
    return {**vars(rep), "pass": passed}, summary, 0 if passed else 1


def _anomaly(args, scenario, model, cfg):
    if not model.bundle.lie_generators:
        result = {"applicable": False, "note": "discrete action: no one-parameter generators"}
        return result, "anomaly report: no one-parameter generators\n", 0
    pts = probe_points(model.space, 8, cfg.seed, tag="cli-anomaly")
    entries = {}
    for label in model.bundle.lie_generators:
        field = infinitesimal_anomaly(model.bundle, model.reference_section, label)
        entries[label] = {"values": field.many(pts).tolist()}
    summary = ", ".join(f"{k}: sample {v['values'][0]:.6g}" for k, v in entries.items())
    return {"applicable": True, "generators": entries}, f"anomaly report: {summary}\n", 0


def _holonomy(args, scenario, model, cfg):
    word = parse_word(args.word)
    generators = model.bundle.action.generators
    for name, _ in word:
        if name not in generators:
            raise ToolkitError(
                f"word {args.word!r} uses unknown generator {name!r}; "
                f"generators: {', '.join(generators)}"
            )
    path = _cli_path(model, scenario, word, args.path, cfg)
    res = equivariant_holonomy(
        model.bundle, model.connection, model.reference_section, word, path, method="both"
    )
    result = {**vars(res), "path": args.path, "formula_value": res.value}
    return result, f"holonomy({res.word}; {args.path}) = {res.value.value:.9f}\n", 0


def _curvature(args, scenario, model, cfg):
    rep = connection_report(
        model.bundle, model.connection, model.reference_section,
        declared_moment=getattr(model, "declared_moment", None), seed=cfg.seed,
    )
    pts = probe_points(model.space, 4, cfg.seed, tag="cli-curv")
    samples = [{"point": x} for x in pts.tolist()]
    if model.space.dimension >= 2:
        e1, e2 = (np.tile(model.space.basis_vector(i), (len(pts), 1)) for i in (0, 1))
        for row, value in zip(samples, rep.curvature.many(pts, e1, e2).tolist()):
            row["curvature_12"] = value
    moments = {label: mu.many(pts).tolist() for label, mu in rep.moment.items()}
    for i, row in enumerate(samples):
        row["moment"] = {label: values[i] for label, values in moments.items()}
    result = {"residuals": rep.residuals, "samples": samples}
    return result, f"curvature report: residuals {rep.residuals}\n", 0


def _verdict(args, scenario, model, cfg):
    if args.local or scenario.kind == "lattice":
        if scenario.kind != "lattice":
            raise ToolkitError("--local needs a lattice scenario")
        verdict = local_verdict(model, cfg)
    else:
        verdict = verdict_pipeline(
            model.bundle,
            model.connection,
            model.reference_section,
            cfg,
            candidates=model.candidates,
            declared_moment=model.declared_moment,
            fixed_points=model.fixed_points,
        )
    lines = [f"verdict: {verdict.outcome}"] + [f"  {s.name}: {s.status}" for s in verdict.stages]
    for label, value in (
        ("character", verdict.kappa), ("certificate", verdict.certificate),
        ("witness", verdict.witness),
    ):
        if value:
            lines.append(f"  {label}: {value}")
    code = {"CANCELS": 0, "OBSTRUCTED": 2, "INCONCLUSIVE": 3}[verdict.outcome]
    return verdict, "\n".join(lines) + "\n", code


# Each scenario command: (args, scenario, model, config) -> (result,
# text summary, exit code); ``_run`` wraps the result in the envelope.
COMMANDS = {
    "check-cocycle": _check_cocycle,
    "anomaly": _anomaly,
    "holonomy": _holonomy,
    "curvature": _curvature,
    "verdict": _verdict,
}


def _selftest(args) -> int:
    seed = args.seed if args.seed is not None else 7
    result = run_selftest(seed=seed)
    report = reports.envelope("selftest", "all-bundled", {"seed": seed}, {}, result)
    lines = [f"selftest over {len(result['scenarios'])} scenarios, seed {seed}"]
    for name, entry in result["scenarios"].items():
        failed = any(isinstance(suite, dict) and suite.get("ok") is False
                     for suite in entry.values())
        lines.append(f"  {name}: {'FAIL' if failed else 'pass'}")
    lines.append("ok" if result["ok"] else "FAILED")
    _emit(args, report, "\n".join(lines) + "\n")
    return 0 if result["ok"] else 1


def _run(args) -> int:
    if args.command == "selftest":
        return _selftest(args)
    scenario = load_scenario(args.scenario)
    cfg = _config(scenario, args)
    lattice = scenario.kind == "lattice"
    model = scenario.build_lattice_model() if lattice else scenario.build_model()
    result, summary, code = COMMANDS[args.command](args, scenario, model, cfg)
    config_echo = {key: getattr(cfg, key) for key in CONFIG_ECHO}
    report = reports.envelope(
        args.command, scenario.name, config_echo, scenario.assumptions, result
    )
    _emit(args, report, summary)
    return code


def main(argv=None) -> int:
    # PARSER hands all after a command to its subparser, which so parses it
    # alone; PARSER parses again only to reject what the subparser left over.
    argv = sys.argv[1:] if argv is None else argv
    sub = COMMAND_PARSERS.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if sub is None or extras:
        args = PARSER.parse_args(argv)
    try:
        return _run(args)
    except ToolkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
