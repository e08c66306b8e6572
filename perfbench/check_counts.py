"""Exact-count check of the benchmark's traced runs.

Two traced runs with the same seed must report identical per-layer work
counts (``calls``, ``points``, ``segments``, ``rows``, ``cols``), and a
run with a held-out seed must give every operation the same exit code,
that is the same verdict outcome. Exits with code 1 on any difference.

Usage, from the root of a checkout:

    python3 perfbench/check_counts.py --workload <name> --seed <n> --heldout <m>
"""

import argparse
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", ".points", ".segments", ".rows", ".cols")


def traced_run(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    counts = {k: v["value"] for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}
    record = json.loads(
        (ROOT / ".perfbench-out" / f"ops_{workload}_seed{seed}_trace1.json").read_text()
    )
    # Wiggled paths are drawn from the seed; compare them by kind only.
    outcomes = Counter((row["op"].split(" wiggle:")[0], row["code"]) for row in record)
    return counts, outcomes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--heldout", type=int, required=True)
    args = parser.parse_args()
    first, outcomes = traced_run(args.workload, args.seed)
    second, _ = traced_run(args.workload, args.seed)
    _, heldout = traced_run(args.workload, args.heldout)
    ok = True
    diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
    if diff:
        ok = False
        print(f"{args.workload}: counts differ between two runs of seed {args.seed}: {diff}")
    else:
        print(f"{args.workload}: {len(first)} counts repeat exactly for seed {args.seed}")
    if heldout != outcomes:
        ok = False
        print(f"{args.workload}: outcomes differ for held-out seed {args.heldout}: "
              f"{sorted((outcomes - heldout).items())} vs {sorted((heldout - outcomes).items())}")
    else:
        print(f"{args.workload}: held-out seed {args.heldout} gives the same outcomes")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
