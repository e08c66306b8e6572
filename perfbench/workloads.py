"""The benchmark's workloads: argument vectors for ``equihol.cli.main``.

All four are closed loops with one client: the next operation starts
when the previous one has returned. A cycle is a fixed list of operations
made from the workload seed; a run repeats the same cycle.

* ``chart_verdicts``: ``verdict <s> --seed <k>`` over the seven chart
  scenarios. Stresses revalidation, flat-character line integrals, path
  sampling, design-matrix assembly and the cocycle check, and includes the
  early-exit OBSTRUCTED and INCONCLUSIVE paths.
* ``lattice_verdicts``: ``verdict <s> --local --seed <k>`` over the three
  lattice scenarios; nearly all of its time is local one-form line
  integrals, with a negligible solver share.
* ``holonomy_queries``: ``holonomy <s> --word <w> --path unit|wiggle:<k>``
  for every reduced word up to each scenario's word length, on all ten
  scenarios. Many short reads with no solver: it exposes per-call
  overhead and the per-query model rebuild, and it carries the known
  ``lattice_zero_mode`` cross-check failures.
* ``selftest``: ``selftest --seed <s>`` for each of ``SELFTEST_SEEDS``,
  the bundled invariant suites.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Tuple

import oracle


@dataclass(frozen=True)
class Op:
    kind: str  # "verdict", "holonomy" or "selftest"
    scenario: str
    argv: Tuple[str, ...]
    check: Callable[[object, str], List[str]]
    word: str = ""
    path: str = ""  # the holonomy path, or the selftest's own seed

    @property
    def label(self) -> str:
        return " ".join(p for p in (self.kind, self.scenario, self.word, self.path) if p)


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: Tuple[str, ...]
    cycle: Callable[[int], List[Op]]
    # Two operations with the same arguments must print identical bytes,
    # so a workload whose cycle never repeats an argument vector runs at
    # least two cycles.
    min_cycles: int = 1


# The selftest seeds of every cycle, whatever the workload seed, which only
# orders them. The torus_shift holonomy suite fails for most selftest seeds
# (a known defect): seed 0 hits it and seed 7, the CLI's default, does not.
# A fixed pair keeps that failure counted at the same share, one half, in
# every run, so that runs with different workload seeds agree.
SELFTEST_SEEDS = (0, 7)


def _shuffled(items, seed: int, tag: str):
    items = list(items)
    random.Random(f"{tag}-{seed}").shuffle(items)
    return items


def _verdict_op(scenario: str, seed: int, local: bool) -> Op:
    argv = ["verdict", scenario, "--seed", str(seed), "--format", "json-like"]
    if local:
        argv.insert(2, "--local")
    return Op(
        "verdict",
        scenario,
        tuple(argv),
        lambda code, out, s=scenario: oracle.check_verdict(s, code, out),
    )


def chart_cycle(seed: int) -> List[Op]:
    return [_verdict_op(s, seed, False) for s in _shuffled(oracle.CHART, seed, "chart")]


def lattice_cycle(seed: int) -> List[Op]:
    return [_verdict_op(s, seed, True) for s in _shuffled(oracle.LATTICE, seed, "lattice")]


def holonomy_cycle(seed: int) -> List[Op]:
    rng = random.Random(f"holonomy-{seed}")
    ops = []
    for scenario, facts in oracle.SCENARIOS.items():
        # Wiggled paths only where the connection is flat: there the
        # expected value does not depend on the random path.
        paths = ["unit", "wiggle"] if facts.flat else ["unit"]
        for word in oracle.reduced_words(facts.generators, facts.max_word_len):
            for path in paths:
                spec = f"wiggle:{rng.randrange(1000)}" if path == "wiggle" else path
                text = oracle.word_text(word)
                ops.append(
                    Op(
                        "holonomy",
                        scenario,
                        ("holonomy", scenario, "--word", text, "--path", spec,
                         "--format", "json-like"),
                        lambda code, out, s=scenario, w=word: oracle.check_holonomy(
                            s, w, code, out
                        ),
                        word=text,
                        path=spec,
                    )
                )
    rng.shuffle(ops)
    return ops


def selftest_cycle(seed: int) -> List[Op]:
    return [
        Op(
            "selftest",
            "",
            ("selftest", "--seed", str(s), "--format", "json-like"),
            lambda code, out, s=s: oracle.check_selftest(s, code, out),
            path=f"--seed {s}",
        )
        for s in _shuffled(SELFTEST_SEEDS, seed, "selftest")
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chart_verdicts", oracle.CHART, chart_cycle),
        Workload("lattice_verdicts", oracle.LATTICE, lattice_cycle),
        Workload("holonomy_queries", tuple(oracle.SCENARIOS), holonomy_cycle),
        Workload("selftest", tuple(oracle.SCENARIOS), selftest_cycle, min_cycles=2),
    )
}


def warmup_argvs(workload: Workload) -> List[List[str]]:
    """One cheap first answer per scenario: a unit-path holonomy query."""
    return [
        ["holonomy", s, "--word", f"{oracle.SCENARIOS[s].generators[0]}^1",
         "--path", "unit", "--format", "json-like"]
        for s in workload.scenarios
    ]
