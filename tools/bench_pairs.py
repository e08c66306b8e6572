"""Run the benchmark in alternating parent/change pairs and summarise them.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent <dir> --change <dir> \\
        --workloads lattice_verdicts selftest --seeds 101-110 --seconds 12 \\
        --out BENCH_name.json

``<dir>`` is the root of a checkout; each side runs its own
``perfbench/run.py`` on its own ``src/``. For every workload and every seed
of the inclusive range, one pair runs

    python3 perfbench/run.py --workload <w> --seed <s> --seconds <S> --trace 0

in both checkouts, one after the other, with the same seed. The side that
runs first alternates from pair to pair (the parent first in pair 0), so a
drift of the machine's speed over the pairs does not favour either side.

The file written holds, per workload, the seeds, which side ran first,
and for each side every pair's end-to-end metrics, their median and
quartiles, and ``failed``/``attempted``; for each metric, the change's
median over the parent's and the number of pairs the change won, in the
direction ``BENCHMARK.json`` declares better, and, for each metric with a
``bound`` there, ``worse_than_bound``: whether the change's median is worse
than the parent's by more than that fraction of it; and
``meets_gain_rule``: whether the change won at least nine tenths of the
pairs (a tie counts for neither side) and its median is better than the
parent's by more than the parent's interquartile range, the rule a claimed
gain must meet. Per workload, ``failure_share`` is each side's failed
operations over its attempted ones, summed over the pairs, and
``more_failures`` whether the change's share exceeds the parent's. The
metrics flagged worse than their bound, whether the change fails more, and
the metrics that meet the gain rule are printed after each workload, and
for every metric with a bound, how close it came (:func:`bound_use`). It
also records the environment line of the benchmark. Medians and quartiles are
``statistics.quantiles(..., method="inclusive")``, numpy's linear
percentiles.

``--trace 1`` runs the pairs with ``--trace 1`` in place of ``--trace 0``
and summarises, the same way, every ``per_layer`` metric of
``BENCHMARK.json``: calls, self time and work counts per layer, and the
per-scenario wall times, from one untraced and one traced cycle per run
(``--seconds`` is passed on but the cycles are not timed).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def seed_range(text: str) -> list:
    """``"A-B"`` as the seeds A..B inclusive, ``"A"`` as one seed."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One run in a checkout: its JSON result, with the environment line
    under ``"env"``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} in {checkout} exited {done.returncode}:\n"
                         + done.stderr[-2000:])
    result = json.loads(lines[-1])
    env = [line for line in lines if line.startswith("env: ")]
    result["env"] = json.loads(env[-1][len("env: "):]) if env else {}
    return result


def quartiles(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(r, 6) for r in runs]}


def directions(spec: dict, trace: int) -> dict:
    """Each metric a pair summarises, end-to-end or, traced, per-layer, to
    ``"higher"`` or ``"lower"`` as ``BENCHMARK.json`` declares it better."""
    return {m["name"]: m["better"] for m in spec["per_layer" if trace else "end_to_end"]}


def summarise(pairs: list, better: dict, bounds: dict = None) -> dict:
    """The per-workload record of a list of pairs, each
    ``{"seed", "first", "parent": result, "change": result}`` with results
    as ``perfbench/run.py`` prints them; ``better`` maps each metric to
    ``"higher"`` or ``"lower"``, and ``bounds`` some of them to the largest
    fraction by which the change's median may be worse than the parent's."""
    out = {"seeds": [p["seed"] for p in pairs], "first": [p["first"] for p in pairs]}
    for side in SIDES:
        results = [p[side] for p in pairs]
        out[side] = {
            "failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "correct": all(r["correct"] for r in results),
            "metrics": {
                name: quartiles([r["metrics"][name]["value"] for r in results])
                for name in better
            },
        }
    share = {side: sum(out[side]["failed"]) / max(sum(out[side]["attempted"]), 1)
             for side in SIDES}
    out["failure_share"] = {side: round(share[side], 6) for side in SIDES}
    out["more_failures"] = share["change"] > share["parent"]
    out["summary"] = {}
    for name, direction in better.items():
        parent, change = (out[side]["metrics"][name] for side in SIDES)
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent["runs"], change["runs"]))
        iqr = round(parent["q3"] - parent["q1"], 6)
        out["summary"][name] = {
            "parent_median": parent["median"],
            "parent_iqr": iqr,
            "change_median": change["median"],
            "ratio": round(change["median"] / parent["median"], 4) if parent["median"] else None,
            "change_wins_of_pairs": wins,
            "meets_gain_rule": 10 * wins >= 9 * len(pairs)
                               and sign * (change["median"] - parent["median"]) > iqr,
        }
        if name in (bounds or {}):
            worse = sign * (parent["median"] - change["median"])
            out["summary"][name]["worse_than_bound"] = worse > bounds[name] * abs(parent["median"])
    return out


def bound_use(name: str, entry: dict, direction: str, bound: float) -> str:
    """``"<name> x<ratio>, <share>% of its <bound> bound"``: a metric's
    change/parent median ratio and the share of its bound that the change's
    median uses, by how much worse than the parent's it is over the bound's
    fraction of the parent's, negative when it is better. ``entry`` is the
    metric's ``summary`` record of :func:`summarise`."""
    parent, change = entry["parent_median"], entry["change_median"]
    if not parent:
        return f"{name} parent median 0, against its {bound:g} bound"
    sign = 1 if direction == "higher" else -1
    share = sign * (parent - change) / (bound * abs(parent))
    return f"{name} x{change / parent:.3f}, {100 * share:.0f}% of its {bound:g} bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workloads", required=True, nargs="+")
    parser.add_argument("--seeds", required=True, type=seed_range)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = directions(spec, args.trace)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    headline = "trace.untraced_ops_per_s" if args.trace else "ops_per_s"
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {args.seconds:g} --trace {args.trace}",
        "pairs": "alternating parent/change pairs, the same seed on both sides; "
                 "the parent runs first in even-numbered pairs (from 0)",
        "workloads": {},
    }
    for workload in args.workloads:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, args.seconds, args.trace)
            record.setdefault("environment", pair["change"]["env"])
            pairs.append(pair)
            ratio = [pair[s]["metrics"][headline]["value"] for s in SIDES]
            print(f"{workload} seed {seed}: {headline} parent {ratio[0]:.2f} "
                  f"change {ratio[1]:.2f}", flush=True)
        record["workloads"][workload] = summarise(pairs, better, bounds)
        summary = record["workloads"][workload]["summary"]
        flagged = [name for name, s in summary.items() if s.get("worse_than_bound")]
        gains = [name for name, s in summary.items() if s["meets_gain_rule"]]
        more = record["workloads"][workload]["more_failures"]
        print(f"{workload}: worse than its bound: {', '.join(flagged) or 'none'}; "
              f"more failures: {'yes' if more else 'no'}", flush=True)
        print(f"{workload}: meets the gain rule: {', '.join(gains) or 'none'}", flush=True)
        uses = [bound_use(name, summary[name], better[name], bound)
                for name, bound in bounds.items() if name in summary]
        print(f"{workload}: {'; '.join(uses) or 'no bounded metric'}", flush=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"pairs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
