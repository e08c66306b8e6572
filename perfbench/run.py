"""Closed-loop benchmark of the equihol command line, one client, in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each operation calls ``equihol.cli.main`` on a generated argument vector
with ``--format json-like`` and checks the report against the hand-written
oracle in ``oracle.py``. The workloads are described in ``workloads.py``.

``--trace 0`` runs whole cycles of the workload until ``--seconds`` have
passed and reports the end-to-end metrics:

* ``ops_per_s``: operations per second of operation time after set-up;
* ``op_p50_ms``, ``op_p90_ms``: latency percentiles of one operation;
* ``setup_s``: median wall time of five cold starts, each a fresh
  interpreter that imports the CLI and answers one query per scenario;
* ``peak_rss_mb``: peak resident memory of this process.

Times are wall times scaled to the nominal speed of a reference probe run
next to each operation (see ``speed.py``), which removes most of the
slowdown that other tenants of a shared machine cause; the summary also
prints the raw median latency and the machine's slowdown over the run.

``--trace 1`` runs one untraced cycle and then one traced cycle, and
reports per-layer calls, self time and work counts (see ``spans.py``),
the median time per scenario from the untraced cycle, and the traced and
untraced throughput, whose ratio is the tracing overhead. The traced
cycle is fixed, not timed, so its counts repeat exactly for a seed. Self
times are raw wall times and include the probe (under 1%).

An operation fails when it raises, exits with code 1 (an error or a
failing selftest) or gives an answer the oracle rejects; the run goes on
and lists every failure. ``correct`` is false when an answer was given
but is wrong, or when two operations with the same arguments printed
different bytes. The last line of standard output is the JSON result.
"""

import os

# BLAS is pinned to one thread before numpy is first imported.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, Op, Workload, warmup_argvs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
COLD_STARTS = 5
COLD_START_PROBES = 5
COLD_START_TIMEOUT_S = 60


@dataclass
class Result:
    op: Op
    seconds: float  # at the probe's nominal speed when a sampler ran
    code: object
    status: str  # "ok", "failed" or "wrong"
    detail: str = ""
    raw_s: float = 0.0


def load_main():
    if not (SRC / "equihol" / "cli.py").is_file():
        sys.exit(f"perfbench: no equihol sources at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    from equihol.cli import main

    return main


def run_op(main, op: Op, seen: Dict[tuple, str], sampler=None) -> Result:
    out, err = io.StringIO(), io.StringIO()
    mark = sampler.mark() if sampler else None
    start = time.perf_counter()
    raised = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(op.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an untyped exception fails this operation only
        code, raised = None, exc
    raw_s = time.perf_counter() - start
    seconds = sampler.scaled(mark, raw_s) if sampler else raw_s
    if raised is not None:
        return Result(op, seconds, None, "failed",
                      f"raised {type(raised).__name__}: {raised}", raw_s)
    text = out.getvalue()
    first = seen.setdefault(op.argv, text)
    if code == 1:
        problems = op.check(code, text) if text else []
        detail = "; ".join([err.getvalue().strip() or "exit 1"] + problems)
        return Result(op, seconds, code, "failed", detail, raw_s)
    problems = op.check(code, text)
    if text != first:
        problems.append("report differs from an earlier run with the same arguments")
    status = "wrong" if problems else "ok"
    return Result(op, seconds, code, status, "; ".join(problems), raw_s)


def run_cycles(main, ops: List[Op], seen, seconds: float, min_cycles: int,
               tracer=None, sampler=None):
    """Whole cycles until ``seconds`` have passed, and at least ``min_cycles``."""
    results: List[Result] = []
    cycles = 0
    start = time.perf_counter()
    while cycles < min_cycles or time.perf_counter() - start < seconds:
        for op in ops:
            with tracer.operation(len(results)) if tracer else contextlib.nullcontext():
                results.append(run_op(main, op, seen, sampler))
        cycles += 1
    return results, cycles, time.perf_counter() - start


def cold_start_seconds(workload: Workload) -> List[float]:
    """Cold-start times at the probe's nominal speed, probed before, during and after.

    The machine's speed changes within a second, so the probes taken in this
    process while the cold start runs halve the spread that probes taken
    only before and after it leave.
    """
    times = []
    for _ in range(COLD_STARTS):
        probes = [speed.probe_seconds() for _ in range(COLD_START_PROBES)]
        with speed.Sampler() as sampler:
            mark = sampler.mark()
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, str(HERE / "cold_start.py"), workload.name],
                check=True, timeout=COLD_START_TIMEOUT_S, cwd=ROOT,
                stdout=subprocess.DEVNULL,
            )
            raw_s = time.perf_counter() - start
            probes += sampler.since(mark)
        probes += [speed.probe_seconds() for _ in range(COLD_START_PROBES)]
        times.append(speed.at_nominal(raw_s, probes))
    return times


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_PIN,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def end_to_end_metrics(results, setup_times) -> dict:
    latencies = [r.seconds for r in results]
    return {
        "ops_per_s": (len(results) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metric_names() -> List[tuple]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for layer in (spans.ROOT,) + spans.LAYERS:
        names.append((f"{layer}.calls", "count"))
        names.append((f"{layer}.self_s", "s"))
        for key in spans.COUNTS.get(layer, ()):
            names.append((f"{layer}.{key}", "count"))
    names += [(f"verdict.{s}.wall_s", "s") for s in oracle.CHART + oracle.LATTICE]
    names += [(f"holonomy.{s}.wall_ms", "ms") for s in oracle.SCENARIOS]
    names += [("trace.untraced_ops_per_s", "1/s"), ("trace.traced_ops_per_s", "1/s")]
    return names


def per_layer_metrics(tracer, untraced, traced) -> dict:
    values = {}
    for layer, entry in tracer.layer_totals().items():
        for key, value in entry.items():
            values[f"{layer}.{key}"] = value
    for kind, unit_scale, suffix in (("verdict", 1.0, "wall_s"), ("holonomy", 1e3, "wall_ms")):
        by_scenario: Dict[str, List[float]] = {}
        for r in untraced:
            if r.op.kind == kind:
                by_scenario.setdefault(r.op.scenario, []).append(r.seconds)
        for s, times in by_scenario.items():
            values[f"{kind}.{s}.{suffix}"] = statistics.median(times) * unit_scale
    values["trace.untraced_ops_per_s"] = len(untraced) / sum(r.seconds for r in untraced)
    values["trace.traced_ops_per_s"] = len(traced) / sum(r.seconds for r in traced)
    return {name: (values.get(name, 0), unit) for name, unit in per_layer_metric_names()}


def summary_lines(workload, seed, results, cycles, wall_s, metrics) -> List[str]:
    failed = [r for r in results if r.status != "ok"]
    lines = [
        f"workload {workload.name}, seed {seed}: {len(results)} operations "
        f"in {cycles} cycles, {wall_s:.2f} s measured"
    ]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    lines.append(f"  fail_ratio = {len(failed)}/{len(results)} = "
                 f"{len(failed) / len(results):.6g} 1")
    if "op_p90_ms" in metrics:
        lines.append(f"  latency samples: {len(results)}"
                     + ("" if len(results) >= 100 else
                        " (fewer than 100: op_p90_ms has fewer than 10 samples beyond it)"))
    for r in failed:
        lines.append(f"  {r.status.upper()} {r.op.label}: {r.detail}")
    return lines


def write_record(path: Path, results: List[Result]) -> None:
    rows = [{"op": r.op.label, "code": r.code, "status": r.status, "seconds": r.seconds,
             "raw_s": r.raw_s, "detail": r.detail} for r in results]
    path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    main = load_main()
    for warm in warmup_argvs(workload):
        with contextlib.redirect_stdout(io.StringIO()):
            main(warm)
    ops = workload.cycle(args.seed)
    seen: Dict[tuple, str] = {}
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        tracer = spans.Tracer()
        with speed.Sampler() as sampler:
            untraced, _, untraced_wall = run_cycles(main, ops, seen, 0, 1, sampler=sampler)
            tracer.install()
            try:
                traced, _, traced_wall = run_cycles(
                    main, ops, seen, 0, 1, tracer=tracer, sampler=sampler
                )
            finally:
                tracer.uninstall()
        tracer.write(OUT / f"spans_{tag}.jsonl")
        results, cycles, wall_s = untraced + traced, 2, untraced_wall + traced_wall
        metrics = per_layer_metrics(tracer, untraced, traced)
        shown = {k: v for k, v in metrics.items() if k.startswith(("trace.", "unattributed."))}
    else:
        setup_times = cold_start_seconds(workload)
        with speed.Sampler() as sampler:
            results, cycles, wall_s = run_cycles(
                main, ops, seen, args.seconds, workload.min_cycles, sampler=sampler
            )
        metrics = shown = end_to_end_metrics(results, setup_times)
    print(f"machine slowdown against the probe's nominal speed: {sampler.slowdown():.3f}; "
          f"raw p50 {statistics.median(r.raw_s for r in results) * 1e3:.6g} ms")
    write_record(OUT / f"ops_{tag}.json", results)
    for line in summary_lines(workload, args.seed, results, cycles, wall_s, shown):
        print(line)
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": all(r.status != "wrong" for r in results),
        "attempted": len(results),
        "failed": sum(r.status != "ok" for r in results),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(bench())
