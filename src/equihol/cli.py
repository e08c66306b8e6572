"""Command-line interface: scenario-driven checks, verdicts and selftest.

Exit codes: 0 for a passing check or a cancellation verdict, 2 when the
verdict is obstructed, 3 when it is inconclusive within the configured
ansatz, and 1 for errors (including a failing cocycle check, which carries
its witness in the report).
"""

from __future__ import annotations

import argparse
import sys
from . import reports
from .bundle import check_cocycle, connection_report, infinitesimal_anomaly
from .errors import ToolkitError
from .geometry import Path, parse_word
from .holonomy import equivariant_holonomy, random_class_path
from .local_search import local_verdict
from .probes import probe_points, rng_for
from .scenario import load_scenario
from .solvers import verdict_pipeline
from .suites import run_selftest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equihol",
        description="Equivariant circle-bundle toolkit: holonomy, curvature and "
        "anomaly-cancellation verdicts over scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
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
    verdict.add_argument("--local", action="store_true", help="run the lattice-local pipeline")
    self_p = sub.add_parser("selftest", help="run all bundled invariant suites")
    common(self_p, scenario=False)
    return parser


def _config(scenario, args):
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.tol is not None:
        overrides["holdout_tol"] = args.tol
    if args.probes is not None:
        overrides["probes"] = args.probes
        overrides["holdout"] = args.probes
    if args.max_word_len is not None:
        overrides["max_word_len"] = args.max_word_len
    return scenario.solver_config(**overrides)


def _emit(args, report: dict, summary: str) -> None:
    text = reports.to_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
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


def _run(args) -> int:
    if args.command == "selftest":
        seed = args.seed if args.seed is not None else 7
        result = run_selftest(seed=seed)
        report = reports.envelope("selftest", "all-bundled", {"seed": seed}, {}, result)
        lines = [f"selftest over {len(result['scenarios'])} scenarios, seed {seed}"]
        for name, entry in result["scenarios"].items():
            status = "pass"
            for suite in entry.values():
                if isinstance(suite, dict) and suite.get("ok") is False:
                    status = "FAIL"
            lines.append(f"  {name}: {status}")
        lines.append("ok" if result["ok"] else "FAILED")
        _emit(args, report, "\n".join(lines) + "\n")
        return 0 if result["ok"] else 1

    scenario = load_scenario(args.scenario)
    cfg = _config(scenario, args)
    config_echo = {
        "seed": cfg.seed,
        "probes": cfg.probes,
        "holdout": cfg.holdout,
        "fit_tol": cfg.fit_tol,
        "holdout_tol": cfg.holdout_tol,
        "degree": cfg.degree,
        "max_word_len": cfg.max_word_len,
        "path_samples": cfg.path_samples,
        "candidates_complete": cfg.candidates_complete,
    }

    if scenario.kind == "lattice":
        model = scenario.build_lattice_model()
    else:
        model = scenario.build_model()

    if args.command == "check-cocycle":
        rep = check_cocycle(model.bundle, word_length=cfg.max_word_len, probes=cfg.probes, seed=cfg.seed)
        result = {
            "max_residual": rep.max_residual,
            "witness_words": rep.witness_words,
            "witness_point": rep.witness_point,
            "checks": rep.checks,
            "pass": rep.max_residual <= 1e-6,
        }
        report = reports.envelope(
            "check-cocycle", scenario.name, config_echo, scenario.assumptions, result
        )
        summary = (
            f"cocycle residual {rep.max_residual:.3e} over {rep.checks} checks: "
            + ("pass\n" if result["pass"] else f"FAIL at {rep.witness_words} {rep.witness_point}\n")
        )
        _emit(args, report, summary)
        return 0 if result["pass"] else 1

    if args.command == "anomaly":
        section = model.reference_section
        entries = {}
        if not model.bundle.lie_generators:
            result = {"applicable": False, "note": "discrete action: no one-parameter generators"}
        else:
            pts = probe_points(model.space, 8, cfg.seed, tag="cli-anomaly")
            for label in model.bundle.lie_generators:
                field = infinitesimal_anomaly(model.bundle, section, label)
                entries[label] = {"values": [field(x) for x in pts]}
            result = {"applicable": True, "generators": entries}
        report = reports.envelope("anomaly", scenario.name, config_echo, scenario.assumptions, result)
        summary = "anomaly report: " + (
            "no one-parameter generators\n"
            if not entries
            else ", ".join(f"{k}: sample {v['values'][0]:.6g}" for k, v in entries.items()) + "\n"
        )
        _emit(args, report, summary)
        return 0

    if args.command == "holonomy":
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
            model.bundle, model.connection, model.reference_section, word, path,
            method="both", path_id=args.path,
        )
        result = {
            "word": res.word,
            "path": args.path,
            "value": res.value.value,
            "formula_value": res.formula_value.value,
            "lift_value": res.lift_value.value,
            "cross_check": res.cross_check,
        }
        report = reports.envelope("holonomy", scenario.name, config_echo, scenario.assumptions, result)
        _emit(args, report, f"holonomy({res.word}; {args.path}) = {res.value.value:.9f}\n")
        return 0

    if args.command == "curvature":
        rep = connection_report(
            model.bundle, model.connection, model.reference_section,
            declared_moment=getattr(model, "declared_moment", None), seed=cfg.seed,
        )
        pts = probe_points(model.space, 4, cfg.seed, tag="cli-curv")
        samples = []
        for x in pts:
            row = {"point": [float(v) for v in x]}
            if model.space.dimension >= 2:
                row["curvature_12"] = rep.curvature(
                    x, model.space.basis_vector(0), model.space.basis_vector(1)
                )
            row["moment"] = {label: mu(x) for label, mu in rep.moment.items()}
            samples.append(row)
        result = {"residuals": rep.residuals, "samples": samples}
        report = reports.envelope("curvature", scenario.name, config_echo, scenario.assumptions, result)
        _emit(args, report, f"curvature report: residuals {rep.residuals}\n")
        return 0

    if args.command == "verdict":
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
        result = {
            "outcome": verdict.outcome,
            "stages": [
                {"name": s.name, "status": s.status, "data": s.data} for s in verdict.stages
            ],
            "obstructed_stage": verdict.obstructed_stage,
            "witness": verdict.witness,
            "certificate": verdict.certificate,
            "kappa": verdict.kappa,
            "ansatz": verdict.ansatz_description,
        }
        report = reports.envelope("verdict", scenario.name, config_echo, scenario.assumptions, result)
        lines = [f"verdict: {verdict.outcome}"]
        for s in verdict.stages:
            lines.append(f"  {s.name}: {s.status}")
        if verdict.kappa:
            lines.append(f"  character: {verdict.kappa}")
        if verdict.certificate:
            lines.append(f"  certificate: {verdict.certificate}")
        if verdict.witness:
            lines.append(f"  witness: {verdict.witness}")
        _emit(args, report, "\n".join(lines) + "\n")
        return {"CANCELS": 0, "OBSTRUCTED": 2, "INCONCLUSIVE": 3}[verdict.outcome]

    raise AssertionError(args.command)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ToolkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
