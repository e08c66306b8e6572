"""Scenario files: strict parsing, canonical printing, model building.

A scenario is a line-based config with ``[section]`` headers and
``key = value`` entries; values are numbers, booleans, group words,
expression text or bracketed expression lists. The schema is strict and
versioned: unknown sections or keys are rejected with their line numbers,
and every expression is parsed against the variable set its context
allows (chart coordinates, flow time, word exponents, jet symbols, or the
lattice zero mode).

Two scenario shapes exist. Chart scenarios declare a parameter space with
a group action, cocycle, connection and optional one-parameter data.
Lattice scenarios declare a site lattice with projectable field maps; the
field space is assembled into the same bundle machinery with the lattice
dimension as its chart.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass, field as dc_field
from pathlib import Path as FilePath
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bundle import Cocycle, Connection, EquivariantBundle, Section
from .errors import ScenarioError
from .expressions import compile_expr, parse as parse_expr, to_source
from .geometry import (
    GroupAction,
    GroupElement,
    LieElement,
    OneForm,
    ParameterSpace,
    ScalarField,
    VectorField,
    Word,
    _env,
    format_word,
    parse_word,
)
from .lattice import (
    JET_NAMES,
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
    items: Optional[Tuple[str, ...]]
    line: int
    column: int


@dataclass
class RawScenario:
    version: int
    sections: Dict[str, Dict[str, RawValue]]
    order: List[str]


def _split_sections(text: str) -> RawScenario:
    sections: Dict[str, Dict[str, RawValue]] = {}
    order: List[str] = []
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
            order.append(name)
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
            inner = value_text[1:-1].strip()
            items = tuple(p.strip() for p in _split_top_level(inner, lineno, column)) if inner else ()
            sections[current][key] = RawValue("list", value_text, items, lineno, column)
        else:
            sections[current][key] = RawValue("scalar", value_text, None, lineno, column)
    if version is None:
        raise ScenarioError("missing schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {version}; this build reads {SCHEMA_VERSION}")
    return RawScenario(version, sections, order)


def _split_top_level(text: str, lineno: int, column: int) -> List[str]:
    parts, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                raise ScenarioError("unbalanced parentheses in list", lineno, column + i)
        elif c == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


# ---------------------------------------------------------------------------
# Schema


_SOLVER_KEYS = {
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
}

_SCHEMA: Dict[str, Dict[str, str]] = {
    "space": {
        "dimension": "int",
        "topology": "enum:euclidean-box|torus",
        "lower": "floats",
        "upper": "floats",
        "periods": "floats",
        "fd_step": "float",
        "probe_lower": "floats",
        "probe_upper": "floats",
        "basepoint": "floats",
    },
    "group.*": {"forward": "exprs", "inverse": "exprs", "identity_component": "bool"},
    "relations": {"*": "word"},
    "cocycle": {"*": "expr"},
    "cocycle_family": {"family": "expr"},
    "lie.*": {"field": "exprs", "flow": "exprs", "alpha": "expr", "fixed_point": "floats"},
    "connection": {"rho": "exprs"},
    "moment": {"*": "expr"},
    "section.*": {"lambda": "expr"},
    "assumptions": {"a1": "bool", "a2": "bool", "a3": "bool"},
    "solver": _SOLVER_KEYS,
    "candidate.*": {"form": "exprs"},
    "lattice": {
        "sites": "int",
        "period": "float",
        "jet_order": "int",
        "density_degree": "int",
        "halfwidth": "float",
        "fd_step": "float",
    },
    "fieldgroup.*": {
        "kind": "enum:fiber_affine|site_shift",
        "scale": "float",
        "chi": "expr",
        "steps": "int",
        "identity_component": "bool",
        "alpha": "expr",
    },
    "fieldcocycle_family": {"family": "expr"},
    "fieldlie.*": {"kind": "enum:fiber_translation|shift", "chi": "expr", "alpha": "expr"},
    "fieldconnection": {"rho": "exprs", "rho_zmode": "expr"},
}


def _schema_for(section: str) -> Dict[str, str]:
    if section in _SCHEMA:
        return _SCHEMA[section]
    head = section.split(".", 1)[0] + ".*"
    if "." in section and head in _SCHEMA:
        return _SCHEMA[head]
    raise ScenarioError(f"unknown section [{section}]")


def _typed(value: RawValue, kind: str, variables=()):
    if kind == "int":
        try:
            out = int(value.text)
        except ValueError:
            raise ScenarioError(f"expected an integer, found {value.text!r}", value.line, value.column)
        return out
    if kind == "float":
        try:
            return float(value.text)
        except ValueError:
            raise ScenarioError(f"expected a number, found {value.text!r}", value.line, value.column)
    if kind == "bool":
        if value.text in ("true", "false"):
            return value.text == "true"
        raise ScenarioError(f"expected true or false, found {value.text!r}", value.line, value.column)
    if kind == "floats":
        if value.kind != "list":
            raise ScenarioError("expected a bracketed list of numbers", value.line, value.column)
        out = []
        for item in value.items:
            if not _NUMBER_RE.match(item):
                raise ScenarioError(f"expected a number, found {item!r}", value.line, value.column)
            out.append(float(item))
        return tuple(out)
    if kind == "ints":
        if value.kind != "list":
            raise ScenarioError("expected a bracketed list of integers", value.line, value.column)
        return tuple(_typed(RawValue("scalar", item, None, value.line, value.column), "int")
                     for item in value.items)
    if kind == "expr":
        return parse_expr(value.text, variables, line=value.line, column=value.column)
    if kind == "exprs":
        if value.kind != "list":
            raise ScenarioError("expected a bracketed expression list", value.line, value.column)
        return tuple(
            parse_expr(item, variables, line=value.line, column=value.column)
            for item in value.items
        )
    if kind == "word":
        return parse_word(value.text)
    if kind.startswith("enum:"):
        options = kind[5:].split("|")
        if value.text not in options:
            raise ScenarioError(
                f"expected one of {options}, found {value.text!r}", value.line, value.column
            )
        return value.text
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# Typed scenario


@dataclass
class GeneratorSpec:
    label: str
    forward: tuple
    inverse: tuple
    identity_component: bool


@dataclass
class LieSpec:
    label: str
    field: tuple
    flow: Optional[tuple]
    alpha: Optional[object]
    fixed_point: Optional[tuple]


@dataclass
class FieldGeneratorSpec:
    label: str
    kind: str
    scale: float
    chi: Optional[object]
    steps: int
    identity_component: bool
    alpha: Optional[object]


@dataclass
class FieldLieSpec:
    label: str
    kind: str
    chi: Optional[object]
    alpha: Optional[object]


@dataclass
class Scenario:
    name: str
    version: int
    kind: str  # "chart" | "lattice"
    space: Optional[dict] = None
    generators: List[GeneratorSpec] = dc_field(default_factory=list)
    relations: List[Word] = dc_field(default_factory=list)
    cocycle_exprs: Dict[str, object] = dc_field(default_factory=dict)
    cocycle_family: Optional[object] = None
    lie_specs: List[LieSpec] = dc_field(default_factory=list)
    connection_exprs: Optional[tuple] = None
    moment_exprs: Dict[str, object] = dc_field(default_factory=dict)
    section_exprs: Dict[str, object] = dc_field(default_factory=dict)
    assumptions: Dict[str, bool] = dc_field(default_factory=dict)
    solver: Dict[str, object] = dc_field(default_factory=dict)
    candidates: List[Tuple[str, tuple]] = dc_field(default_factory=list)
    lattice_cfg: Optional[dict] = None
    field_generators: List[FieldGeneratorSpec] = dc_field(default_factory=list)
    field_cocycle_family: Optional[object] = None
    field_lie_specs: List[FieldLieSpec] = dc_field(default_factory=list)
    field_connection_exprs: Optional[tuple] = None
    field_connection_zmode: Optional[object] = None

    # ------------------------------------------------------------------
    def solver_config(self, **overrides) -> SolverConfig:
        mapping = {
            "paths": "n_paths",
            "basepoints": "n_basepoints",
        }
        kwargs = {}
        for key, value in self.solver.items():
            if key == "slots":
                continue
            kwargs[mapping.get(key, key)] = value
        kwargs.update(overrides)
        return SolverConfig(**kwargs)

    @property
    def slot_restriction(self):
        return self.solver.get("slots")

    # ------------------------------------------------------------------
    def build_space(self) -> ParameterSpace:
        sp = self.space
        kwargs = dict(dimension=sp["dimension"], topology=sp["topology"])
        if sp["topology"] == "torus":
            kwargs["periods"] = sp.get("periods")
        else:
            kwargs["lower"] = sp.get("lower")
            kwargs["upper"] = sp.get("upper")
        if "fd_step" in sp:
            kwargs["fd_step"] = sp["fd_step"]
        if "probe_lower" in sp:
            kwargs["probe_lower"] = sp["probe_lower"]
        if "probe_upper" in sp:
            kwargs["probe_upper"] = sp["probe_upper"]
        return ParameterSpace(**kwargs)

    def basepoint(self, space) -> np.ndarray:
        sp = self.space or {}
        if "basepoint" in sp:
            return space.point(sp["basepoint"])
        return space.point(np.zeros(space.dimension))

    def build_model(self) -> "ScenarioModel":
        if self.kind != "chart":
            raise ScenarioError(f"scenario {self.name!r} is a lattice scenario")
        space = self.build_space()
        gens = []
        for spec in self.generators:
            fwd = _vector_map(space, spec.forward)
            inv = _vector_map(space, spec.inverse)
            gens.append(GroupElement(spec.label, fwd, inv, space, spec.identity_component))
        action = GroupAction(space, gens, relations=self.relations)
        labels = [g.label for g in gens]
        gen_values = {
            label: _circle_field(self.cocycle_exprs[label], _chart_env) for label in labels
        }
        family = None
        if self.cocycle_family is not None:
            family = _family_map(labels, self.cocycle_family, _chart_env)
        flow_values = {}
        lie_elements = []
        fixed_points = {}
        for spec in self.lie_specs:
            fieldv = VectorField.from_expressions(space, spec.field, name=spec.label)
            flow = _flow_map(spec.flow) if spec.flow else None
            lie_elements.append(LieElement(spec.label, fieldv, flow=flow))
            if spec.alpha is not None:
                flow_values[spec.label] = _flow_circle(spec.alpha, _chart_env)
            if spec.fixed_point is not None:
                fixed_points[spec.label] = spec.fixed_point
        cocycle = Cocycle.batched(gen_values, family=family, flow_values=flow_values)
        bundle = EquivariantBundle(
            space, action, cocycle, lie_elements, seed=int(self.solver.get("seed", 0))
        )
        rho = (
            OneForm.from_expressions(space, self.connection_exprs, name="rho")
            if self.connection_exprs is not None
            else OneForm.zero(space)
        )
        connection = Connection(rho)
        sections = {"reference": Section()}
        for name, expr in self.section_exprs.items():
            sections[name] = Section(ScalarField.from_expression(space, expr, name=name), name=name)
        moment = {
            label: ScalarField.from_expression(space, expr, name=f"moment({label})")
            for label, expr in self.moment_exprs.items()
        }
        candidates = [
            (name, OneForm.from_expressions(space, comps, name=name))
            for name, comps in self.candidates
        ]
        return ScenarioModel(
            scenario=self,
            space=space,
            bundle=bundle,
            connection=connection,
            sections=sections,
            declared_moment=moment or None,
            candidates=candidates,
            fixed_points=fixed_points or None,
        )

    def build_lattice_model(self) -> "LatticeModel":
        if self.kind != "lattice":
            raise ScenarioError(f"scenario {self.name!r} is not a lattice scenario")
        cfg = self.lattice_cfg
        lattice = LatticeBase(cfg["sites"], cfg.get("period", 1.0))
        space = lattice.field_space(
            halfwidth=cfg.get("halfwidth", 64.0), fd_step=cfg.get("fd_step", 1e-4)
        )
        jet_order = cfg.get("jet_order", 2)
        zmode_env = _zmode_env(lattice)
        gens = []
        gen_values = {}
        for spec in self.field_generators:
            if spec.kind == "site_shift":
                g = site_shift_element(
                    lattice, space, spec.label, spec.steps, spec.identity_component
                )
            else:
                g = fiber_affine_element(
                    lattice,
                    space,
                    spec.label,
                    scale=spec.scale,
                    chi=to_source(spec.chi) if spec.chi is not None else None,
                    in_identity_component=spec.identity_component,
                )
            gens.append(g)
            alpha_expr = spec.alpha
            if alpha_expr is None:
                raise ScenarioError(f"fieldgroup {spec.label!r} is missing its cocycle value")
            gen_values[spec.label] = _circle_field(alpha_expr, zmode_env)
        action = GroupAction(space, gens)
        family = None
        if self.field_cocycle_family is not None:
            family = _family_map([g.label for g in gens], self.field_cocycle_family, zmode_env)
        lie_elements = []
        flow_values = {}
        for spec in self.field_lie_specs:
            if spec.kind == "fiber_translation":
                X = fiber_translation_lie(
                    lattice, space, spec.label,
                    to_source(spec.chi) if spec.chi is not None else 1.0,
                )
            else:
                X = shift_lie(lattice, space, spec.label)
            lie_elements.append(X)
            if spec.alpha is not None:
                flow_values[spec.label] = _flow_circle(spec.alpha, zmode_env)
        cocycle = Cocycle.batched(gen_values, family=family, flow_values=flow_values)
        bundle = EquivariantBundle(
            space, action, cocycle, lie_elements, seed=int(self.solver.get("seed", 0))
        )
        declared_rho = None
        if self.field_connection_exprs is not None:
            slot_densities = [
                LocalDensity.from_expression(lattice, to_source(e), jet_order)
                for e in self.field_connection_exprs
            ]
            declared_rho = LocalOneForm(lattice, slot_densities, name="rho")
        if declared_rho is not None:
            connection = Connection(declared_rho.as_form(space))
        elif self.field_connection_zmode is not None:
            ev = compile_expr(self.field_connection_zmode)

            def rho_many(fields, variations):
                return ev({"zmode": lattice.zero_mode(fields)}) * lattice.zero_mode(variations)

            connection = Connection(OneForm(space, rho_many, name="rho_zmode"))
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


def _vector_map(space, exprs):
    """Point map of one expression per axis, on an ``(N, d)`` stack."""
    if len(exprs) != space.dimension:
        raise ScenarioError("map needs one component per dimension")
    flow = _flow_map(exprs)
    return lambda xs: flow(None, xs)


def _flow_map(exprs):
    """Map of one expression per axis at time ``t``, on an ``(N, d)`` stack."""
    evs = [compile_expr(e) for e in exprs]

    def fn(t, xs):
        env, out = _chart_env(xs), np.empty(np.shape(xs))
        if t is not None:
            env["t"] = float(t)
        for i, ev in enumerate(evs):
            out[:, i] = ev(env)  # a constant component broadcasts
        return out

    return fn


def _chart_env(x):
    """Coordinates ``x1..xd`` of a point ``(d,)`` or coordinate columns of a
    stack ``(N, d)``."""
    return _env(np.asarray(x).T)


def _zmode_env(lattice):
    """Lattice counterpart of :func:`_chart_env`: the zero mode of a field
    ``(m,)`` or of each row of a stack ``(N, m)``."""
    return lambda s: {"zmode": lattice.zero_mode(np.asarray(s, dtype=float))}


def _circle_field(expr, env):
    """Circle value of ``expr`` per row of a stack, as ``(N,)`` reals."""
    ev = compile_expr(expr)
    return lambda xs: ev(env(xs))


def _flow_circle(expr, env):
    """Circle value of ``expr`` at flow time ``t`` per row of a stack."""
    ev = compile_expr(expr)

    def fn(t, xs):
        values = env(xs)
        values["t"] = float(t)
        return ev(values)

    return fn


def _family_map(labels, expr, env):
    """Family value of ``expr`` at the exponents, per row of a stack."""
    ev = compile_expr(expr)

    def fn(exponents, xs):
        values = env(xs)
        for i, label in enumerate(labels):
            values[f"n{i + 1}"] = float(exponents.get(label, 0))
        return ev(values)

    return fn


# ---------------------------------------------------------------------------
# Parsing into the typed scenario


def parse_scenario(text: str, name: str = "<scenario>") -> Scenario:
    raw = _split_sections(text)
    for section in raw.order:
        schema = _schema_for(section)
        for key, value in raw.sections[section].items():
            if key not in schema and "*" not in schema:
                raise ScenarioError(
                    f"unknown key {key!r} in [{section}]", value.line
                )

    is_lattice = "lattice" in raw.sections
    if is_lattice and "space" in raw.sections:
        raise ScenarioError("a scenario declares either [space] or [lattice], not both")
    if not is_lattice and "space" not in raw.sections:
        raise ScenarioError("missing [space] (or [lattice]) section")

    scenario = Scenario(name=name, version=raw.version, kind="lattice" if is_lattice else "chart")

    if is_lattice:
        _parse_lattice(raw, scenario)
    else:
        _parse_chart(raw, scenario)

    if "assumptions" in raw.sections:
        for key, value in raw.sections["assumptions"].items():
            scenario.assumptions[key] = _typed(value, "bool")
    for key in ("a1", "a2", "a3"):
        scenario.assumptions.setdefault(key, True)

    if "solver" in raw.sections:
        for key, value in raw.sections["solver"].items():
            scenario.solver[key] = _typed(value, _SOLVER_KEYS[key])
    return scenario


def _labelled_sections(raw: RawScenario, prefix: str):
    """(section, label, entries) of every ``[<prefix><label>]`` section, in file order."""
    return [(s, s[len(prefix):], raw.sections[s]) for s in raw.order if s.startswith(prefix)]


def _parse_chart(raw: RawScenario, scenario: Scenario):
    space_raw = raw.sections["space"]
    if "dimension" not in space_raw:
        raise ScenarioError("[space] needs a dimension")
    space: dict = {}
    for key, value in space_raw.items():
        space[key] = _typed(value, _SCHEMA["space"][key])
    space.setdefault("topology", "euclidean-box")
    dim = space["dimension"]
    if space["topology"] == "torus":
        if "periods" not in space:
            raise ScenarioError("torus space needs periods")
    else:
        if "lower" not in space or "upper" not in space:
            raise ScenarioError("box space needs lower and upper bounds")
    scenario.space = space
    coords = tuple(f"x{i + 1}" for i in range(dim))

    gen_sections = _labelled_sections(raw, "group.")
    if not gen_sections:
        raise ScenarioError("at least one generator is required: add a [group.<label>] section")
    for section, label, entries in gen_sections:
        if "forward" not in entries or "inverse" not in entries:
            raise ScenarioError(f"[{section}] needs forward and inverse maps")
        fwd = _typed(entries["forward"], "exprs", coords)
        inv = _typed(entries["inverse"], "exprs", coords)
        if len(fwd) != dim or len(inv) != dim:
            raise ScenarioError(
                f"[{section}] maps need {dim} components", entries["forward"].line
            )
        ident = (
            _typed(entries["identity_component"], "bool")
            if "identity_component" in entries
            else False
        )
        scenario.generators.append(GeneratorSpec(label, fwd, inv, ident))
    labels = {g.label for g in scenario.generators}

    if "relations" in raw.sections:
        for key, value in raw.sections["relations"].items():
            word = _typed(value, "word")
            for wname, _ in word:
                if wname not in labels:
                    raise ScenarioError(
                        f"relation uses unknown generator {wname!r}", value.line
                    )
            scenario.relations.append(word)

    if "cocycle" not in raw.sections:
        raise ScenarioError("missing [cocycle] section")
    for key, value in raw.sections["cocycle"].items():
        if key not in labels:
            raise ScenarioError(f"cocycle for unknown generator {key!r}", value.line)
        scenario.cocycle_exprs[key] = _typed(value, "expr", coords)
    for label in labels:
        if label not in scenario.cocycle_exprs:
            raise ScenarioError(f"missing cocycle entry for generator {label!r}")

    if "cocycle_family" in raw.sections:
        entries = raw.sections["cocycle_family"]
        if "family" not in entries:
            raise ScenarioError("[cocycle_family] needs a family entry")
        exponents = tuple(f"n{i + 1}" for i in range(len(scenario.generators)))
        scenario.cocycle_family = _typed(entries["family"], "expr", coords + exponents)

    for section, label, entries in _labelled_sections(raw, "lie."):
        if "field" not in entries:
            raise ScenarioError(f"[{section}] needs a field entry")
        fieldv = _typed(entries["field"], "exprs", coords)
        flow = _typed(entries["flow"], "exprs", coords + ("t",)) if "flow" in entries else None
        alpha = _typed(entries["alpha"], "expr", coords + ("t",)) if "alpha" in entries else None
        fixed = _typed(entries["fixed_point"], "floats") if "fixed_point" in entries else None
        scenario.lie_specs.append(LieSpec(label, fieldv, flow, alpha, fixed))

    if "connection" in raw.sections:
        entries = raw.sections["connection"]
        if "rho" not in entries:
            raise ScenarioError("[connection] needs rho")
        comps = _typed(entries["rho"], "exprs", coords)
        if len(comps) != dim:
            raise ScenarioError(f"rho needs {dim} components", entries["rho"].line)
        scenario.connection_exprs = comps

    if "moment" in raw.sections:
        lie_labels = {spec.label for spec in scenario.lie_specs}
        for key, value in raw.sections["moment"].items():
            if key not in lie_labels:
                raise ScenarioError(f"moment for unknown generator {key!r}", value.line)
            scenario.moment_exprs[key] = _typed(value, "expr", coords)

    for section, label, entries in _labelled_sections(raw, "section."):
        if "lambda" not in entries:
            raise ScenarioError(f"[{section}] needs a lambda entry")
        scenario.section_exprs[label] = _typed(entries["lambda"], "expr", coords)

    for section, label, entries in _labelled_sections(raw, "candidate."):
        if "form" not in entries:
            raise ScenarioError(f"[{section}] needs a form entry")
        comps = _typed(entries["form"], "exprs", coords)
        if len(comps) != dim:
            raise ScenarioError(f"candidate form needs {dim} components", entries["form"].line)
        scenario.candidates.append((label, comps))


def _parse_lattice(raw: RawScenario, scenario: Scenario):
    entries = raw.sections["lattice"]
    if "sites" not in entries:
        raise ScenarioError("[lattice] needs a sites entry")
    cfg = {key: _typed(value, _SCHEMA["lattice"][key]) for key, value in entries.items()}
    scenario.lattice_cfg = cfg
    jet_order = cfg.get("jet_order", 2)
    jet_symbols = ("x",) + JET_NAMES[: jet_order + 1]

    gen_sections = _labelled_sections(raw, "fieldgroup.")
    if not gen_sections:
        raise ScenarioError("at least one generator is required: add a [fieldgroup.<label>] section")
    for section, label, e in gen_sections:
        if "kind" not in e:
            raise ScenarioError(f"[{section}] needs a kind")
        kind = _typed(e["kind"], _SCHEMA["fieldgroup.*"]["kind"])
        scale = _typed(e["scale"], "float") if "scale" in e else 1.0
        chi = _typed(e["chi"], "expr", ("x",)) if "chi" in e else None
        steps = _typed(e["steps"], "int") if "steps" in e else 1
        ident = _typed(e["identity_component"], "bool") if "identity_component" in e else False
        alpha = _typed(e["alpha"], "expr", ("zmode",)) if "alpha" in e else None
        scenario.field_generators.append(
            FieldGeneratorSpec(label, kind, scale, chi, steps, ident, alpha)
        )

    if "fieldcocycle_family" in raw.sections:
        e = raw.sections["fieldcocycle_family"]
        if "family" not in e:
            raise ScenarioError("[fieldcocycle_family] needs a family entry")
        exponents = tuple(f"n{i + 1}" for i in range(len(scenario.field_generators)))
        scenario.field_cocycle_family = _typed(e["family"], "expr", ("zmode",) + exponents)

    for section, label, e in _labelled_sections(raw, "fieldlie."):
        if "kind" not in e:
            raise ScenarioError(f"[{section}] needs a kind")
        kind = _typed(e["kind"], _SCHEMA["fieldlie.*"]["kind"])
        chi = _typed(e["chi"], "expr", ("x",)) if "chi" in e else None
        alpha = _typed(e["alpha"], "expr", ("t", "zmode")) if "alpha" in e else None
        scenario.field_lie_specs.append(FieldLieSpec(label, kind, chi, alpha))

    if "fieldconnection" in raw.sections:
        e = raw.sections["fieldconnection"]
        if "rho" in e and "rho_zmode" in e:
            raise ScenarioError("[fieldconnection] takes rho or rho_zmode, not both")
        if "rho" in e:
            comps = _typed(e["rho"], "exprs", jet_symbols)
            if len(comps) != jet_order + 1:
                raise ScenarioError(
                    f"rho needs one slot density per variation jet (expected {jet_order + 1})",
                    e["rho"].line,
                )
            scenario.field_connection_exprs = comps
        elif "rho_zmode" in e:
            scenario.field_connection_zmode = _typed(e["rho_zmode"], "expr", ("zmode",))
        else:
            raise ScenarioError("[fieldconnection] needs rho or rho_zmode")


# ---------------------------------------------------------------------------
# Canonical printing


def format_scenario(scenario: Scenario) -> str:
    """Canonical text for a scenario; reparsing reproduces the structure."""
    lines = [f"schema_version = {scenario.version}", ""]

    def emit(section, entries):
        lines.append(f"[{section}]")
        for key, value in entries:
            lines.append(f"{key} = {value}")
        lines.append("")

    def fmt_floats(values):
        return "[" + ", ".join(repr(float(v)) for v in values) + "]"

    def fmt_exprs(values):
        return "[" + ", ".join(to_source(v) for v in values) + "]"

    if scenario.kind == "chart":
        sp = scenario.space
        entries = [("dimension", sp["dimension"]), ("topology", sp["topology"])]
        for key in ("lower", "upper", "periods", "probe_lower", "probe_upper", "basepoint"):
            if key in sp:
                entries.append((key, fmt_floats(sp[key])))
        if "fd_step" in sp:
            entries.append(("fd_step", repr(sp["fd_step"])))
        emit("space", entries)
        for g in scenario.generators:
            emit(
                f"group.{g.label}",
                [
                    ("forward", fmt_exprs(g.forward)),
                    ("inverse", fmt_exprs(g.inverse)),
                    ("identity_component", "true" if g.identity_component else "false"),
                ],
            )
        if scenario.relations:
            emit(
                "relations",
                [(f"rel{i + 1}", format_word(w)) for i, w in enumerate(scenario.relations)],
            )
        emit("cocycle", [(k, to_source(v)) for k, v in scenario.cocycle_exprs.items()])
        if scenario.cocycle_family is not None:
            emit("cocycle_family", [("family", to_source(scenario.cocycle_family))])
        for spec in scenario.lie_specs:
            entries = [("field", fmt_exprs(spec.field))]
            if spec.flow is not None:
                entries.append(("flow", fmt_exprs(spec.flow)))
            if spec.alpha is not None:
                entries.append(("alpha", to_source(spec.alpha)))
            if spec.fixed_point is not None:
                entries.append(("fixed_point", fmt_floats(spec.fixed_point)))
            emit(f"lie.{spec.label}", entries)
        if scenario.connection_exprs is not None:
            emit("connection", [("rho", fmt_exprs(scenario.connection_exprs))])
        if scenario.moment_exprs:
            emit("moment", [(k, to_source(v)) for k, v in scenario.moment_exprs.items()])
        for name, expr in scenario.section_exprs.items():
            emit(f"section.{name}", [("lambda", to_source(expr))])
        for name, comps in scenario.candidates:
            emit(f"candidate.{name}", [("form", fmt_exprs(comps))])
    else:
        cfg = scenario.lattice_cfg
        entries = [("sites", cfg["sites"])]
        for key in ("period", "jet_order", "density_degree", "halfwidth", "fd_step"):
            if key in cfg:
                value = cfg[key]
                entries.append((key, value if isinstance(value, int) else repr(value)))
        emit("lattice", entries)
        for g in scenario.field_generators:
            entries = [("kind", g.kind)]
            if g.kind == "site_shift":
                entries.append(("steps", g.steps))
            else:
                entries.append(("scale", repr(g.scale)))
                if g.chi is not None:
                    entries.append(("chi", to_source(g.chi)))
            entries.append(("identity_component", "true" if g.identity_component else "false"))
            if g.alpha is not None:
                entries.append(("alpha", to_source(g.alpha)))
            emit(f"fieldgroup.{g.label}", entries)
        if scenario.field_cocycle_family is not None:
            emit("fieldcocycle_family", [("family", to_source(scenario.field_cocycle_family))])
        for spec in scenario.field_lie_specs:
            entries = [("kind", spec.kind)]
            if spec.chi is not None:
                entries.append(("chi", to_source(spec.chi)))
            if spec.alpha is not None:
                entries.append(("alpha", to_source(spec.alpha)))
            emit(f"fieldlie.{spec.label}", entries)
        if scenario.field_connection_exprs is not None:
            emit("fieldconnection", [("rho", fmt_exprs(scenario.field_connection_exprs))])
        elif scenario.field_connection_zmode is not None:
            emit("fieldconnection", [("rho_zmode", to_source(scenario.field_connection_zmode))])

    emit("assumptions", [(k, "true" if v else "false") for k, v in sorted(scenario.assumptions.items())])
    if scenario.solver:
        entries = []
        for key, value in scenario.solver.items():
            if isinstance(value, bool):
                entries.append((key, "true" if value else "false"))
            elif isinstance(value, tuple):
                entries.append((key, "[" + ", ".join(str(v) for v in value) + "]"))
            elif isinstance(value, float):
                entries.append((key, repr(value)))
            else:
                entries.append((key, value))
        emit("solver", entries)
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
