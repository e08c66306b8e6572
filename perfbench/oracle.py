"""Hand-written oracle for the equihol benchmark.

Every expected value here is derived by hand from the bundled scenario
files and the README table; none is read back from the program. The
holonomy of a word w along a path from x to w(x) is the line integral of
the connection one-form minus the cocycle at x, modulo 1.

Each check returns a list of problems; an empty list means the answer is
correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

EXIT_CODES = {"CANCELS": 0, "OBSTRUCTED": 2, "INCONCLUSIVE": 3}
# Agreement demanded of a holonomy value: the documented cross-check
# tolerance of the toolkit. Every bundled connection except the lattice
# zero mode is linear, where midpoint quadrature along a piecewise-linear
# path is exact, so the only slack needed is for that scenario.
HOLONOMY_TOL = 1e-5
COEFF_TOL = 1e-9
LOOSE_COEFF_TOL = 1e-8

Word = Tuple[Tuple[str, int], ...]


def circle_distance(a: float, b: float) -> float:
    d = (a - b) % 1.0
    return min(d, 1.0 - d)


def _net(word: Word) -> int:
    return sum(sign for _, sign in word)


def _minimal_image(d: float) -> float:
    return (d + 0.5) % 1.0 - 0.5


@dataclass(frozen=True)
class ScenarioFacts:
    """What the benchmark knows about a bundled scenario, by hand."""

    kind: str  # "chart" or "lattice"
    generators: Tuple[str, ...]
    max_word_len: int
    # Flat connections give a path-independent holonomy within a class,
    # so wiggled paths have the same expected value as the straight one.
    flat: bool
    outcome: str
    holonomy: Callable[[Word], float]


SCENARIOS: Dict[str, ScenarioFacts] = {
    # Constant half-integer cocycle, rho = 0: hol(g^n) = -n/2 = n/2 mod 1.
    "paper_example_Z_on_R": ScenarioFacts(
        "chart", ("g",), 4, True, "CANCELS", lambda w: 0.5 * _net(w)
    ),
    "trivial": ScenarioFacts("chart", ("g",), 3, True, "CANCELS", lambda w: 0.0),
    # rho = 0.1 (x1 dx2 - x2 dx1); along the chord from (1, 0) to its
    # rotation by 0.7 n the integral is 0.1 sin(0.7 n); the cocycle is 0.
    "rotation": ScenarioFacts(
        "chart", ("r",), 3, False, "CANCELS", lambda w: 0.1 * math.sin(0.7 * _net(w))
    ),
    # Same connection, cocycle 0.175 n.
    "rotation_anomalous": ScenarioFacts(
        "chart",
        ("r",),
        3,
        False,
        "OBSTRUCTED",
        lambda w: 0.1 * math.sin(0.7 * _net(w)) - 0.175 * _net(w),
    ),
    # rho = x1 dx2 vanishes along the horizontal chord from the origin, and
    # the cocycle n x2 vanishes at the origin.
    "translation_shear": ScenarioFacts("chart", ("s",), 3, False, "CANCELS", lambda w: 0.0),
    # Cocycle and connection are the coboundary and differential of the
    # planted potential 0.3 x1^2, so every holonomy vanishes.
    "affine_line": ScenarioFacts("chart", ("t1", "s1"), 3, True, "CANCELS", lambda w: 0.0),
    # Shift by 0.3 on the unit circle, rho = 0.4 dx, cocycle 0.25 n; the
    # chord is the minimal image of the shift.
    "torus_shift": ScenarioFacts(
        "chart",
        ("g",),
        3,
        True,
        "INCONCLUSIVE",
        lambda w: 0.4 * _minimal_image(0.3 * _net(w)) - 0.25 * _net(w),
    ),
    "lattice_fiber_shift": ScenarioFacts(
        "lattice", ("g",), 3, True, "CANCELS", lambda w: 0.5 * _net(w)
    ),
    "lattice_planted_local": ScenarioFacts(
        "lattice", ("g",), 3, True, "CANCELS", lambda w: 0.0
    ),
    # rho = zmode^2 d(zmode) integrates to the cocycle ((z + n)^3 - z^3)/3.
    "lattice_zero_mode": ScenarioFacts(
        "lattice", ("g",), 3, True, "INCONCLUSIVE", lambda w: 0.0
    ),
}

CHART = tuple(name for name, f in SCENARIOS.items() if f.kind == "chart")
LATTICE = tuple(name for name, f in SCENARIOS.items() if f.kind == "lattice")


def reduced_words(generators, max_len: int):
    """Freely reduced nonempty words up to ``max_len`` letters."""
    letters = [(g, s) for g in generators for s in (1, -1)]
    frontier = [()]
    for _ in range(max_len):
        frontier = [
            w + (letter,)
            for w in frontier
            for letter in letters
            if not (w and w[-1][0] == letter[0] and w[-1][1] == -letter[1])
        ]
        yield from frontier


def word_text(word: Word) -> str:
    """``(("g", 1), ("g", 1), ("h", -1))`` -> ``"g^2 h^-1"``."""
    runs: List[List] = []
    for name, sign in word:
        if runs and runs[-1][0] == name and runs[-1][2] == sign:
            runs[-1][1] += 1
        else:
            runs.append([name, 1, sign])
    return " ".join(f"{name}^{sign * count}" for name, count, sign in runs)


# ---------------------------------------------------------------------------
# Answers


def _close(value, expected: float, tol: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - expected) <= tol


def _coefficients(mapping, expected: Dict[str, float], tol: float, label: str) -> List[str]:
    """Exactly the expected nonzero coefficients, each within ``tol``."""
    if not isinstance(mapping, dict):
        return [f"{label} missing"]
    problems = []
    for key, value in mapping.items():
        if key not in expected and not _close(value, 0.0, tol):
            problems.append(f"{label} has unexpected term {key!r} = {value!r}")
    for key, want in expected.items():
        if not _close(mapping.get(key), want, tol):
            problems.append(f"{label}[{key!r}] = {mapping.get(key)!r}, expected {want}")
    return problems


def _kappa(result, expected: Dict[str, float]) -> List[str]:
    kappa = result.get("kappa")
    if not isinstance(kappa, dict):
        return ["kappa missing"]
    problems = []
    for label, want in expected.items():
        got = kappa.get(label)
        if not isinstance(got, (int, float)) or circle_distance(got, want) > COEFF_TOL:
            problems.append(f"kappa[{label!r}] = {got!r}, expected {want} mod 1")
    return problems


def _verdict_details(scenario: str, result: dict) -> List[str]:
    cert = result.get("certificate") or {}
    if scenario == "paper_example_Z_on_R":
        return _kappa(result, {"g": 0.5}) + _coefficients(
            cert.get("candidate_lambdas"), {"dt": 0.5}, COEFF_TOL, "candidate_lambdas"
        )
    if scenario == "trivial":
        return _kappa(result, {"g": 0.0})
    if scenario == "rotation":
        # The invariant primitive of the equivariant curvature is the
        # connection itself, as the scenario file states.
        return _kappa(result, {"r": 0.0}) + _coefficients(
            cert.get("primitive_coefficients"),
            {"x2 dx1": -0.1, "x1 dx2": 0.1},
            LOOSE_COEFF_TOL,
            "primitive",
        )
    if scenario == "translation_shear":
        # Invariance under x1 -> x1 + 1 rules out x1 dx2; d(a x2 dx1) must
        # equal the curvature dx1^dx2 of rho = x1 dx2, so a = -1.
        return _kappa(result, {"s": 0.0}) + _coefficients(
            cert.get("primitive_coefficients"), {"x2 dx1": -1.0}, LOOSE_COEFF_TOL, "primitive"
        )
    if scenario == "affine_line":
        return _kappa(result, {"t1": 0.0, "s1": 0.0})
    if scenario == "rotation_anomalous":
        # The origin is fixed by the rotations and carries the anomaly
        # 0.25 of the constant-rate cocycle 0.25 t.
        w = result.get("witness") or {}
        problems = []
        if w.get("kind") != "fixed-point" or w.get("point") != [0.0, 0.0]:
            problems.append(f"witness {w!r} is not the fixed point at the origin")
        if not _close(w.get("anomaly"), 0.25, 1e-6):
            problems.append(f"witness anomaly {w.get('anomaly')!r}, expected 0.25")
        return problems
    if scenario == "torus_shift":
        # kappa = cocycle - integral = 0.25 - 0.4 * 0.3.
        return _kappa(result, {"g": 0.13})
    if scenario == "lattice_fiber_shift":
        coeffs = cert.get("local_form_coefficients")
        if not isinstance(coeffs, dict) or list(coeffs) != ["1 du"]:
            return [f"local form {coeffs!r} is not one constant value-slot density"]
        if not _close(abs(coeffs["1 du"]), 0.5, LOOSE_COEFF_TOL):
            return [f"local form magnitude {coeffs['1 du']!r}, expected 0.5"]
        return []
    return []


def check_verdict(scenario: str, code, stdout: str) -> List[str]:
    facts = SCENARIOS[scenario]
    want_code = EXIT_CODES[facts.outcome]
    try:
        report = json.loads(stdout)
        result = report["result"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report ({exc})"]
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    if result.get("outcome") != facts.outcome:
        problems.append(f"outcome {result.get('outcome')!r}, expected {facts.outcome}")
    if report.get("scenario") != scenario:
        problems.append(f"report names scenario {report.get('scenario')!r}")
    if facts.outcome == "CANCELS" and not result.get("certificate"):
        problems.append("CANCELS without a certificate")
    if facts.outcome != "CANCELS" and result.get("certificate"):
        problems.append(f"{facts.outcome} carries a certificate")
    if facts.outcome == "OBSTRUCTED" and not result.get("witness"):
        problems.append("OBSTRUCTED without a witness")
    return problems + _verdict_details(scenario, result)


def check_holonomy(scenario: str, word: Word, code, stdout: str) -> List[str]:
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report ({exc})"]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    want = SCENARIOS[scenario].holonomy(word)
    value = result.get("value")
    if not isinstance(value, (int, float)) or circle_distance(value, want) > HOLONOMY_TOL:
        problems.append(f"holonomy {value!r}, expected {want % 1.0:.9f} mod 1")
    return problems


def check_selftest(seed: int, code, stdout: str) -> List[str]:
    try:
        report = json.loads(stdout)
        result = report["result"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report ({exc})"]
    problems = []
    if result.get("seed") != seed:
        problems.append(f"report seed {result.get('seed')!r}, expected {seed}")
    if sorted(result.get("scenarios", {})) != sorted(SCENARIOS):
        problems.append("report does not cover every bundled scenario")
    if result.get("ok") is not True or code != 0:
        failing = [
            f"{name}.{suite}"
            for name, entry in result.get("scenarios", {}).items()
            for suite, data in entry.items()
            if isinstance(data, dict) and data.get("ok") is False
        ]
        problems.append(f"selftest not ok (exit {code}); failing suites: {failing}")
    return problems
