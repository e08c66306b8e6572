"""Scenario files: strict parsing, canonical printing, model building.

A scenario is a line-based config with ``[section]`` headers and
``key = value`` entries; values are numbers, booleans, group words,
expression text or bracketed expression lists. The schema is strict and
versioned: unknown sections or keys are rejected with their line numbers,
and every expression is parsed against the identifier groups its key
allows (chart coordinates, flow time, word exponents, jet symbols, the
lattice site or the lattice zero mode). One table, ``_SCHEMA``, states
every key's kind; parsing, the cross-entry rules and printing all read it.

Two scenario shapes exist. Chart scenarios declare a parameter space with
a group action, cocycle, connection and optional one-parameter data.
Lattice scenarios declare a site lattice with projectable field maps; the
field space is assembled into the same bundle machinery with the lattice
dimension as its chart.
"""

from __future__ import annotations

import importlib.resources
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path as FilePath
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .bundle import Cocycle, Connection, EquivariantBundle, Section
from .errors import CompositionError, EvaluationError, ScenarioError
from .expressions import compile_map, parse as parse_expr, to_source
from .geometry import (
    GroupAction,
    GroupElement,
    LieElement,
    OneForm,
    ParameterSpace,
    ScalarField,
    VectorField,
    _axis_map,
    _env,
    format_word,
    parse_word,
)
from .lattice import (
    JET_NAMES,
    MAX_JET_ORDER,
    LatticeBase,
    LocalDensity,
    LocalOneForm,
    fiber_affine_element,
    fiber_translation_lie,
    shift_lie,
    site_shift_element,
)
from .solvers import SolverConfig

SCHEMA_VERSION = 1

_NUMBER_RE = re.compile(r"^-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@dataclass(frozen=True)
class RawValue:
    kind: str  # "scalar" | "list" | "raw"
    text: str
    items: Optional[Tuple[Tuple[str, int], ...]]  # a list's items and their columns
    line: int
    column: int


@dataclass
class RawScenario:
    version: int
    sections: Dict[str, Dict[str, RawValue]]
    headers: Dict[str, int]  # the line of each section header, in file order


def _split_sections(text: str) -> RawScenario:
    sections: Dict[str, Dict[str, RawValue]] = {}
    headers: Dict[str, int] = {}
    current: Optional[str] = None
    version: Optional[int] = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ScenarioError("unterminated section header", lineno, line.index("[") + 1)
            name = stripped[1:-1].strip()
            if not name:
                raise ScenarioError("empty section name", lineno)
            if name in sections:
                raise ScenarioError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            headers[name] = lineno
            current = name
            continue
        if "=" not in stripped:
            raise ScenarioError("expected 'key = value'", lineno)
        key_part, _, value_part = line.partition("=")
        key = key_part.strip()
        value_text = value_part.strip()
        column = len(key_part) + 2 + (len(value_part) - len(value_part.lstrip()))
        if not key:
            raise ScenarioError("missing key before '='", lineno)
        if current is None:
            if key != "schema_version":
                raise ScenarioError("schema_version must come first", lineno)
            try:
                version = int(value_text)
            except ValueError:
                raise ScenarioError("schema_version must be an integer", lineno, column)
            continue
        if key in sections[current]:
            raise ScenarioError(f"duplicate key {key!r} in [{current}]", lineno)
        if value_text.startswith("["):
            if not value_text.endswith("]"):
                raise ScenarioError("unterminated list value", lineno, column)
            inner = value_text[1:-1]
            items = tuple(_split_top_level(inner, lineno, column + 1)) if inner.strip() else ()
            sections[current][key] = RawValue("list", value_text, items, lineno, column)
        else:
            sections[current][key] = RawValue("scalar", value_text, None, lineno, column)
    if version is None:
        raise ScenarioError("missing schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {version}; this build reads {SCHEMA_VERSION}")
    return RawScenario(version, sections, headers)


def _split_top_level(text: str, lineno: int, column: int) -> List[Tuple[str, int]]:
    """The items between top-level commas of ``text``, which starts at
    ``column``: each stripped, with the column of its first character."""
    cuts, depth = [-1], 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                raise ScenarioError("unbalanced parentheses in list", lineno, column + i)
        elif c == "," and depth == 0:
            cuts.append(i)
    parts = [text[a + 1:b] for a, b in zip(cuts, cuts[1:] + [len(text)])]
    return [(p.strip(), column + a + 1 + len(p) - len(p.lstrip())) for a, p in zip(cuts, parts)]


# ---------------------------------------------------------------------------
# Schema

# Each key's kind: ``int``, ``float``, ``bool``, ``floats``, ``ints``,
# ``word``, ``enum`` followed by its options, or ``expr``/``exprs`` followed
# by the identifier groups the expression may use. An ``exprs`` list has one
# expression per name of its first group: per axis (``coords``) or per
# variation jet (``jets``). A ``*`` key stands for any key. Each kind is
# split into its words once, at import.
_SCHEMA: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "space": {
        "dimension": "int",
        "topology": "enum euclidean-box torus",
        "lower": "floats",
        "upper": "floats",
        "periods": "floats",
        "fd_step": "float",
        "probe_lower": "floats",
        "probe_upper": "floats",
        "basepoint": "floats",
    },
    "group.*": {
        "forward": "exprs coords",
        "inverse": "exprs coords",
        "identity_component": "bool",
    },
    "relations": {"*": "word"},
    "cocycle": {"*": "expr coords"},
    "cocycle_family": {"family": "expr coords exps"},
    "lie.*": {
        "field": "exprs coords",
        "flow": "exprs coords t",
        "alpha": "expr coords t",
        "fixed_point": "floats",
    },
    "connection": {"rho": "exprs coords"},
    "moment": {"*": "expr coords"},
    "section.*": {"lambda": "expr coords"},
    "candidate.*": {"form": "exprs coords"},
    "lattice": {
        "sites": "int",
        "period": "float",
        "jet_order": "int",
        "density_degree": "int",
        "halfwidth": "float",
        "fd_step": "float",
    },
    "fieldgroup.*": {
        "kind": "enum fiber_affine site_shift",
        "scale": "float",
        "chi": "expr site",
        "steps": "int",
        "identity_component": "bool",
        "alpha": "expr zmode",
    },
    "fieldcocycle_family": {"family": "expr zmode exps"},
    "fieldlie.*": {
        "kind": "enum fiber_translation shift",
        "chi": "expr site",
        "alpha": "expr t zmode",
    },
    "fieldconnection": {"rho": "exprs jets site", "rho_zmode": "expr zmode"},
    "assumptions": {"a1": "bool", "a2": "bool", "a3": "bool"},
    "solver": {
        "seed": "int",
        "probes": "int",
        "holdout": "int",
        "degree": "int",
        "trig": "bool",
        "max_word_len": "int",
        "fit_tol": "float",
        "holdout_tol": "float",
        "slack_bound": "int",
        "candidates_complete": "bool",
        "paths": "int",
        "basepoints": "int",
        "path_samples": "int",
        "slots": "ints",
    },
}
for _keys in _SCHEMA.values():
    _keys.update({key: tuple(spec.split()) for key, spec in _keys.items()})

_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "space": ("dimension",),
    "group.*": ("forward", "inverse"),
    "cocycle_family": ("family",),
    "lie.*": ("field",),
    "connection": ("rho",),
    "section.*": ("lambda",),
    "candidate.*": ("form",),
    "lattice": ("sites",),
    "fieldgroup.*": ("kind", "alpha"),
    "fieldcocycle_family": ("family",),
    "fieldlie.*": ("kind",),
}

# Sections only lattice scenarios read; [assumptions] and [solver] belong to
# both shapes and the rest to chart scenarios. A section of the other shape
# is rejected.
_LATTICE = frozenset(
    {"lattice", "fieldgroup.*", "fieldcocycle_family", "fieldlie.*", "fieldconnection"}
)
_COMMON = frozenset({"assumptions", "solver"})
# Scalar kinds read by one call on the entry's text: the parser, and what a
# rejected entry should have been (a word's own message says that).
_SCALARS = {"int": (int, "an integer"), "float": (float, "a number"), "word": (parse_word, None)}


def _pattern(section: str) -> str:
    """The ``_SCHEMA`` entry of a section: its name, or ``<kind>.*``."""
    if section in _SCHEMA:
        return section
    head = section.split(".", 1)[0] + ".*"
    if "." in section and head in _SCHEMA:
        return head
    raise ScenarioError(f"unknown section [{section}]")


def _typed(value: RawValue, spec: Tuple[str, ...], idents: Optional[dict] = None):
    """``value`` as the schema kind ``spec``; ``idents`` maps identifier
    groups to their names."""
    kind = spec[0]
    if kind in _SCALARS:
        parse, expected = _SCALARS[kind]
        try:
            return parse(value.text)
        except (ValueError, CompositionError) as exc:
            message = f"expected {expected}, found {value.text!r}" if expected else str(exc)
            raise ScenarioError(message, value.line, value.column) from None
    if kind == "bool":
        if value.text in ("true", "false"):
            return value.text == "true"
        raise ScenarioError(f"expected true or false, found {value.text!r}", value.line, value.column)
    if kind == "floats":
        if value.kind != "list":
            raise ScenarioError("expected a bracketed list of numbers", value.line, value.column)
        out = []
        for item, column in value.items:
            if not _NUMBER_RE.match(item):
                raise ScenarioError(f"expected a number, found {item!r}", value.line, column)
            out.append(float(item))
        return tuple(out)
    if kind == "ints":
        if value.kind != "list":
            raise ScenarioError("expected a bracketed list of integers", value.line, value.column)
        return tuple(_typed(RawValue("scalar", item, None, value.line, column), ("int",))
                     for item, column in value.items)
    if kind == "enum":
        if value.text not in spec[1:]:
            raise ScenarioError(
                f"expected one of {list(spec[1:])}, found {value.text!r}", value.line, value.column
            )
        return value.text
    variables = sum(map(idents.__getitem__, spec[1:]), ())
    if kind == "expr":
        return parse_expr(value.text, variables, line=value.line, column=value.column)
    if value.kind != "list":
        raise ScenarioError("expected a bracketed expression list", value.line, value.column)
    out = tuple(
        parse_expr(item, variables, line=value.line, column=column) for item, column in value.items
    )
    if len(out) != len(idents[spec[1]]):
        per = "axis" if spec[1] == "coords" else "variation jet"
        raise ScenarioError(
            f"expected {len(idents[spec[1]])} expressions (one per {per}), found {len(out)}",
            value.line, value.column,
        )
    return out


def _printed(value, spec: Tuple[str, ...]) -> str:
    """Canonical text of a typed value of the schema kind ``spec``."""
    kind = spec[0]
    if kind in ("floats", "ints", "exprs"):
        return "[" + ", ".join(_printed(v, (kind[:-1],)) for v in value) + "]"
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(value)
    if kind == "expr":
        return to_source(value)
    if kind == "word":
        return format_word(value)
    return str(value)


# ---------------------------------------------------------------------------
# Typed scenario


@dataclass
class Scenario:
    """A parsed scenario: the typed entries of each section, in file order."""

    name: str
    version: int
    sections: Dict[str, Dict[str, object]]

    @property
    def kind(self) -> str:
        return "lattice" if "lattice" in self.sections else "chart"

    @property
    def assumptions(self) -> Dict[str, bool]:
        """The declared assumptions; an undeclared one holds."""
        out = dict(self.sections.get("assumptions", {}))
        for key in ("a1", "a2", "a3"):
            out.setdefault(key, True)
        return out

    @property
    def solver(self) -> Mapping[str, object]:
        return MappingProxyType(self.sections.get("solver", {}))

    def labelled(self, prefix: str) -> Dict[str, dict]:
        """Entries of every ``[<prefix><label>]`` section by label, in file order."""
        return {s[len(prefix):]: e for s, e in self.sections.items() if s.startswith(prefix)}

    # ------------------------------------------------------------------
    def solver_config(self, **overrides) -> SolverConfig:
        mapping = {"paths": "n_paths", "basepoints": "n_basepoints"}
        kwargs = {mapping.get(k, k): v for k, v in self.solver.items() if k != "slots"}
        return SolverConfig(**{**kwargs, **overrides})

    @property
    def slot_restriction(self):
        return self.solver.get("slots")

    # ------------------------------------------------------------------
    def build_space(self) -> ParameterSpace:
        sp = self.sections["space"]
        topology = sp.get("topology", "euclidean-box")
        bounds = ("periods",) if topology == "torus" else ("lower", "upper")
        kwargs = {k: sp[k] for k in bounds + ("fd_step", "probe_lower", "probe_upper") if k in sp}
        with _section_values("space"):
            return ParameterSpace(sp["dimension"], topology, **kwargs)

    def basepoint(self, space) -> np.ndarray:
        point = self.sections.get("space", {}).get("basepoint")
        return space.point(np.zeros(space.dimension) if point is None else point)

    def _assemble_bundle(
        self, space, gens, values, lie_entries, lie_elements, family, env, relations=()
    ) -> EquivariantBundle:
        """The group action of ``gens``, the cocycle of the generator value
        expressions ``values`` by label, of the ``alpha`` of each Lie entry
        and of the ``family`` expression (if any), all over ``env``, and
        the bundle with its construction checks."""
        labels = [g.label for g in gens]
        flows = {k: e["alpha"] for k, e in lie_entries.items() if "alpha" in e}
        cocycle = Cocycle.batched(
            {label: compile_map(values[label], env) for label in labels},
            family=None if family is None else _family_map(labels, family, env),
            flow_values={label: _timed(compile_map(expr, env)) for label, expr in flows.items()},
        )
        action = GroupAction(space, gens, relations=relations)
        seed = int(self.solver.get("seed", 0))
        return EquivariantBundle(space, action, cocycle, lie_elements, seed=seed)

    def build_model(self) -> "ScenarioModel":
        if self.kind != "chart":
            raise ScenarioError(f"scenario {self.name!r} is a lattice scenario")
        space = self.build_space()
        sections = self.sections
        gens = [
            GroupElement(label, _axis_map(space, e["forward"]), _axis_map(space, e["inverse"]),
                         space, e.get("identity_component", False))
            for label, e in self.labelled("group.").items()
        ]
        lie_elements = []
        fixed_points = {}
        for label, e in self.labelled("lie.").items():
            fieldv = VectorField.from_expressions(space, e["field"], name=label)
            flow = _timed(compile_map(e["flow"], _env)) if "flow" in e else None
            lie_elements.append(LieElement(label, fieldv, flow=flow))
            if "fixed_point" in e:
                fixed_points[label] = e["fixed_point"]
        bundle = self._assemble_bundle(
            space, gens, sections["cocycle"], self.labelled("lie."), lie_elements,
            sections.get("cocycle_family", {}).get("family"), _env,
            relations=list(sections.get("relations", {}).values()),
        )
        rho = (
            OneForm.from_expressions(space, sections["connection"]["rho"], name="rho")
            if "connection" in sections
            else OneForm.zero(space)
        )
        connection = Connection(rho)
        named = {"reference": Section()}
        for name, e in self.labelled("section.").items():
            lam = ScalarField.from_expression(space, e["lambda"], name=name)
            named[name] = Section(lam, name=name)
        moment = {
            label: ScalarField.from_expression(space, expr, name=f"moment({label})")
            for label, expr in sections.get("moment", {}).items()
        }
        candidates = [
            (name, OneForm.from_expressions(space, e["form"], name=name))
            for name, e in self.labelled("candidate.").items()
        ]
        return ScenarioModel(
            scenario=self,
            space=space,
            bundle=bundle,
            connection=connection,
            sections=named,
            declared_moment=moment or None,
            candidates=candidates,
            fixed_points=fixed_points or None,
        )

    def build_lattice_model(self) -> "LatticeModel":
        if self.kind != "lattice":
            raise ScenarioError(f"scenario {self.name!r} is not a lattice scenario")
        cfg = self.sections["lattice"]
        with _section_values("lattice"):
            lattice = LatticeBase(cfg["sites"], cfg.get("period", 1.0))
            space = lattice.field_space(
                halfwidth=cfg.get("halfwidth", 64.0), fd_step=cfg.get("fd_step", 1e-4)
            )
        jet_order = cfg.get("jet_order", 2)
        zmode_env = _zmode_env(lattice)
        gens = []
        for label, e in self.labelled("fieldgroup.").items():
            identity = e.get("identity_component", False)
            if e["kind"] == "site_shift":
                g = site_shift_element(lattice, space, label, e.get("steps", 1), identity)
            else:
                with _section_values(f"fieldgroup.{label}", "chi", e.get("chi")):
                    g = fiber_affine_element(
                        lattice, space, label, scale=e.get("scale", 1.0), chi=e.get("chi"),
                        in_identity_component=identity,
                    )
            gens.append(g)
        lie_elements = []
        for label, e in self.labelled("fieldlie.").items():
            if e["kind"] == "fiber_translation":
                with _section_values(f"fieldlie.{label}", "chi", e.get("chi")):
                    lie_elements.append(fiber_translation_lie(lattice, space, label, e.get("chi")))
            else:
                lie_elements.append(shift_lie(lattice, space, label))
        values = {label: e["alpha"] for label, e in self.labelled("fieldgroup.").items()}
        bundle = self._assemble_bundle(
            space, gens, values, self.labelled("fieldlie."), lie_elements,
            self.sections.get("fieldcocycle_family", {}).get("family"), zmode_env,
        )
        declared = self.sections.get("fieldconnection", {})
        declared_rho = None
        if "rho" in declared:
            slot_densities = [
                LocalDensity.from_expression(lattice, e, jet_order) for e in declared["rho"]
            ]
            declared_rho = LocalOneForm(lattice, slot_densities, name="rho")
            connection = Connection(declared_rho.as_form(space))
        elif "rho_zmode" in declared:
            coefficient = compile_map(declared["rho_zmode"], zmode_env)
            connection = Connection(OneForm(
                space, lambda fs, vs: coefficient(fs) * lattice.zero_mode(vs), name="rho_zmode"
            ))
        else:
            connection = Connection(OneForm.zero(space))
        return LatticeModel(
            scenario=self,
            lattice=lattice,
            space=space,
            bundle=bundle,
            connection=connection,
            declared_rho=declared_rho,
            jet_order=jet_order,
            density_degree=cfg.get("density_degree", 4),
        )


@contextmanager
def _section_values(section: str, key: str = "", expr=None):
    """Report a constructor's ValueError or EvaluationError on a section's
    values as a ScenarioError naming the section, or the entry ``key`` and
    the line of its expression ``expr`` when one is given."""
    try:
        yield
    except (ValueError, EvaluationError) as exc:
        if expr is None:
            raise ScenarioError(f"[{section}] {exc}") from None
        raise ScenarioError(f"[{section}] {key}: {exc}", expr.pos.line) from None


@dataclass
class ScenarioModel:
    scenario: Scenario
    space: ParameterSpace
    bundle: EquivariantBundle
    connection: Connection
    sections: Dict[str, Section]
    declared_moment: Optional[Dict[str, ScalarField]]
    candidates: List[Tuple[str, OneForm]]
    fixed_points: Optional[Dict[str, tuple]]

    @property
    def reference_section(self) -> Section:
        return self.sections["reference"]


@dataclass
class LatticeModel:
    scenario: Scenario
    lattice: LatticeBase
    space: ParameterSpace
    bundle: EquivariantBundle
    connection: Connection
    declared_rho: Optional[LocalOneForm]
    jet_order: int
    density_degree: int

    @property
    def reference_section(self) -> Section:
        return Section()


# ---------------------------------------------------------------------------
# Expression wiring


def _zmode_env(lattice):
    """Lattice counterpart of :func:`~equihol.geometry._env`: the zero mode
    of a field ``(m,)`` or of each row of a stack ``(N, m)``."""
    return lambda s: {"zmode": lattice.zero_mode(np.asarray(s, dtype=float))}


def _timed(fn):
    """``fn``, which takes the flow time as the symbol ``t``, as the
    ``(t, stack)`` map that a flow and a flow value take."""
    return lambda t, xs: fn(xs, t=float(t))


def _family_map(labels, expr, env):
    """Family value of ``expr`` at the exponents ``n1..nk`` of ``labels``."""
    fn, names = compile_map(expr, env), [f"n{i + 1}" for i in range(len(labels))]
    return lambda exps, xs: fn(xs, **{n: float(exps.get(g, 0)) for n, g in zip(names, labels)})


# ---------------------------------------------------------------------------
# Parsing into the typed scenario


def parse_scenario(text: str, name: str = "<scenario>") -> Scenario:
    """Type the head section, derive the identifier groups from it and the
    generator count, type every entry by ``_SCHEMA`` and apply the rules
    that relate entries."""
    raw = _split_sections(text)
    is_lattice = "lattice" in raw.sections
    if is_lattice and "space" in raw.sections:
        raise ScenarioError("a scenario declares either [space] or [lattice], not both")
    if not is_lattice and "space" not in raw.sections:
        raise ScenarioError("missing [space] (or [lattice]) section")
    head = "lattice" if is_lattice else "space"
    head_values = _typed_section(raw, head, head, {})
    idents = _identifiers(raw, head, head_values)
    sections = {}
    for section, line in raw.headers.items():
        pattern = _pattern(section)
        if section == head:
            sections[head] = head_values
        elif pattern in _COMMON or (pattern in _LATTICE) == is_lattice:
            sections[section] = _typed_section(raw, section, pattern, idents)
        else:
            shape = "lattice" if is_lattice else "chart"
            raise ScenarioError(f"[{section}] has no place in a {shape} scenario", line)
    scenario = Scenario(name, raw.version, sections)
    _check_entries(raw, scenario)
    return scenario


def _typed_section(raw: RawScenario, section: str, pattern: str, idents: dict) -> dict:
    """The typed entries of one section."""
    schema, entries = _SCHEMA[pattern], raw.sections[section]
    out = {}
    for key, value in entries.items():
        spec = schema.get(key) or schema.get("*")
        if spec is None:
            raise ScenarioError(f"unknown key {key!r} in [{section}]", value.line)
        out[key] = _typed(value, spec, idents)
    missing = [key for key in _REQUIRED.get(pattern, ()) if key not in entries]
    if missing:
        raise ScenarioError(f"[{section}] is missing its {missing[0]} entry")
    return out


def _identifiers(raw: RawScenario, head: str, values: dict) -> Dict[str, tuple]:
    """Identifier groups of expressions, from the typed head section and the
    generator count; checks the head's own rules on the way."""
    prefix = "fieldgroup." if head == "lattice" else "group."
    generators = sum(1 for s in raw.headers if s.startswith(prefix))
    idents = {"t": ("t",), "exps": tuple(f"n{i + 1}" for i in range(generators))}
    if head == "space":
        if values.get("topology") == "torus":
            if "periods" not in values:
                raise ScenarioError("torus space needs periods")
        elif "lower" not in values or "upper" not in values:
            raise ScenarioError("box space needs lower and upper bounds")
        idents["coords"] = tuple(f"x{i + 1}" for i in range(values["dimension"]))
        return idents
    jet_order = values.get("jet_order", 2)
    if not 0 <= jet_order <= MAX_JET_ORDER:
        raise ScenarioError(
            f"[lattice] jet_order must lie in 0..{MAX_JET_ORDER}",
            raw.sections["lattice"]["jet_order"].line,
        )
    if values.get("density_degree", 4) < 0:
        raise ScenarioError(
            "[lattice] density_degree must be at least 0",
            raw.sections["lattice"]["density_degree"].line,
        )
    idents.update(jets=JET_NAMES[: jet_order + 1], site=("x",), zmode=("zmode",))
    return idents


def _check_entries(raw: RawScenario, scenario: Scenario) -> None:
    """Rules across entries: declared generators, no trivial first
    cohomology asserted on a torus, one lattice connection, and distinct
    variation slots in range."""
    sections, lattice = scenario.sections, scenario.kind == "lattice"
    prefix = "fieldgroup." if lattice else "group."
    labels = scenario.labelled(prefix)
    if not labels:
        raise ScenarioError(f"at least one generator is required: add a [{prefix}<label>] section")
    for key, word in sections.get("relations", {}).items():
        for letter, _ in word:
            if letter not in labels:
                raise ScenarioError(
                    f"relation uses unknown generator {letter!r}",
                    raw.sections["relations"][key].line,
                )
    for section, known in (("cocycle", labels), ("moment", scenario.labelled("lie."))):
        for key in sections.get(section, {}):
            if key not in known:
                raise ScenarioError(
                    f"{section} for unknown generator {key!r}", raw.sections[section][key].line
                )
    if not lattice:
        for label in labels:
            if label not in sections.get("cocycle", {}):
                raise ScenarioError(f"missing cocycle entry for generator {label!r}")
        if sections["space"].get("topology") == "torus" and sections.get("assumptions", {}).get("a1"):
            raise ScenarioError(
                "[assumptions] a1 = true asserts a trivial first cohomology, "
                "which a torus does not have", raw.sections["assumptions"]["a1"].line,
            )
    if "fieldconnection" in sections and len(sections["fieldconnection"]) != 1:
        raise ScenarioError("[fieldconnection] takes exactly one of rho and rho_zmode")
    slots = scenario.slot_restriction
    if lattice and slots is not None:
        top, line = sections["lattice"].get("jet_order", 2), raw.sections["solver"]["slots"].line
        if not slots or min(slots) < 0 or max(slots) > top:
            raise ScenarioError(f"[solver] slots must be variation slots in 0..{top}", line)
        if len(set(slots)) != len(slots):
            raise ScenarioError("[solver] slots must not repeat a slot", line)


# ---------------------------------------------------------------------------
# Canonical printing


def format_scenario(scenario: Scenario) -> str:
    """Canonical text: the given sections and keys in file order, each
    value printed by its kind; reparsing reproduces ``sections``."""
    lines = [f"schema_version = {scenario.version}", ""]
    for section, entries in scenario.sections.items():
        schema = _SCHEMA[_pattern(section)]
        lines.append(f"[{section}]")
        for key, value in entries.items():
            lines.append(f"{key} = {_printed(value, schema.get(key) or schema['*'])}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Bundled scenarios


def bundled_dir() -> FilePath:
    return FilePath(str(importlib.resources.files("equihol") / "scenarios"))


def bundled_names() -> List[str]:
    return sorted(p.stem for p in bundled_dir().glob("*.scn"))


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario from a path, or by bundled name."""
    p = FilePath(path_or_name)
    if not p.exists():
        candidate = bundled_dir() / f"{path_or_name}.scn"
        if candidate.exists():
            p = candidate
        else:
            raise ScenarioError(f"no scenario file or bundled scenario {path_or_name!r}")
    return parse_scenario(p.read_text(encoding="utf-8"), name=p.stem)
