"""Lattice realization of local functionals over a field space.

The base manifold is a circle of m sites; fields are real values per site,
so the field space is just a euclidean parameter space of dimension m and
the whole bundle, holonomy and solver machinery applies to it verbatim.

Locality is a construction, not a property to be detected: local densities
evaluate on a single site's jet (site coordinate, field value, centered
difference derivatives); local functionals sum a density over sites times
the spacing, realizing integration of jet-level data. Local one-forms
carry one coefficient density per variation-jet slot, which makes their
linearity in the variation structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import expressions
from .errors import (
    EvaluationError,
    LocalityDeclarationError,
    PreconditionError,
)
from .geometry import (
    GroupElement,
    LieElement,
    OneForm,
    ParameterSpace,
    VectorField,
    monomial_exponents,
    richardson_slope,
)

MAX_JET_ORDER = 6
JET_NAMES = ("u",) + tuple(f"u{k}" for k in range(1, MAX_JET_ORDER + 1))
# Half-width of the probe box of a field space.
PROBE_HALFWIDTH = 2.0
# Fourier modes and amplitude of seeded probe fields.
PROBE_FIELD_MODES = 3
PROBE_FIELD_AMPLITUDE = 0.8
# Tolerance of a declared local connection against the generic one.
DECLARATION_TOL = 1e-6


@dataclass(frozen=True)
class LatticeBase:
    """m sites on an oriented circle of the given period."""

    sites: int
    period: float = 1.0

    def __post_init__(self):
        if self.sites < 8:
            raise ValueError("a lattice needs at least 8 sites")
        if self.period <= 0:
            raise ValueError("period must be positive")

    @property
    def spacing(self) -> float:
        return self.period / self.sites

    @property
    def coordinates(self) -> np.ndarray:
        return np.arange(self.sites) * self.spacing

    def field_space(self, halfwidth: float = 64.0, fd_step: float = 1e-4) -> ParameterSpace:
        return ParameterSpace(
            self.sites,
            "euclidean-box",
            lower=(-halfwidth,) * self.sites,
            upper=(halfwidth,) * self.sites,
            fd_step=fd_step,
            probe_lower=(-PROBE_HALFWIDTH,) * self.sites,
            probe_upper=(PROBE_HALFWIDTH,) * self.sites,
        )

    def zero_mode(self, values: np.ndarray):
        """The lattice integral of the field itself, per row of a stack."""
        return np.sum(values, axis=-1) * self.spacing


def as_field(lattice: LatticeBase, values) -> np.ndarray:
    """One field as an ``(m,)`` array, or an ``(N, m)`` stack of fields."""
    v = np.asarray(values, dtype=float)
    v = v.reshape((len(v), lattice.sites) if v.ndim == 2 else (lattice.sites,))
    if not np.all(np.isfinite(v)):
        raise EvaluationError("non-finite field configuration")
    return v


def centered_difference(lattice: LatticeBase, values: np.ndarray) -> np.ndarray:
    """Centered difference along the last (site) axis."""
    return (np.roll(values, -1, axis=-1) - np.roll(values, 1, axis=-1)) / (2.0 * lattice.spacing)


def jets(lattice: LatticeBase, values: np.ndarray, order: int) -> Dict[str, np.ndarray]:
    """Per-site jet arrays: coordinate, value and iterated centered differences.

    ``values`` is one field or an ``(N, m)`` stack; the jets of a stack are
    stacks too, while the coordinate ``x`` stays ``(m,)`` and broadcasts.
    """
    if order < 0 or order > MAX_JET_ORDER:
        raise ValueError(f"jet order must lie in 0..{MAX_JET_ORDER}")
    values = as_field(lattice, values)
    out = {"x": lattice.coordinates, "u": values}
    current = values
    for k in range(1, order + 1):
        current = centered_difference(lattice, current)
        out[f"u{k}"] = current
    return out


class LocalDensity:
    """A function of one site's jet, vectorized over all sites.

    Built from the expression language over the jet symbols; the evaluator
    receives a single site's jet (or the stacked arrays), which enforces
    locality structurally.
    """

    def __init__(self, lattice: LatticeBase, fn: Callable[[dict], np.ndarray], order: int, name=""):
        self.lattice = lattice
        self.fn = fn
        self.order = order
        self.name = name

    @classmethod
    def from_expression(cls, lattice: LatticeBase, text_or_ast, order: int, name=""):
        symbols = ("x",) + JET_NAMES[: order + 1]
        ast = (
            expressions.parse(text_or_ast, symbols)
            if isinstance(text_or_ast, str)
            else text_or_ast
        )
        ev = expressions.compile_expr(ast)
        return cls(lattice, ev, order, name or expressions.to_source(ast))

    def values(self, field_values) -> np.ndarray:
        return self.on_jets(jets(self.lattice, field_values, self.order))

    def on_jets(self, env: Dict[str, np.ndarray]) -> np.ndarray:
        """The density at every site of jets from :func:`jets`, of this
        density's order or higher; the shape is that of ``env["u"]``."""
        out = np.broadcast_to(np.asarray(self.fn(env), dtype=float), np.shape(env["u"]))
        bad = ~np.isfinite(out)
        if np.any(bad):
            if out.ndim == 1:
                site = int(np.argmax(bad))
                raise EvaluationError(
                    f"density {self.name!r} non-finite at site {site}", point=site
                )
            row, site = (int(i) for i in np.unravel_index(int(np.argmax(bad)), out.shape))
            raise EvaluationError(
                f"density {self.name!r} non-finite at row {row}, site {site}", point=(row, site)
            )
        return out


class LocalFunctional:
    """A density summed over sites times the spacing."""

    def __init__(self, density: LocalDensity, name=""):
        self.density = density
        self.lattice = density.lattice
        self.name = name or density.name

    def __call__(self, field_values) -> float:
        return float(np.sum(self.density.values(field_values)) * self.lattice.spacing)

    def differential(self) -> "LocalOneForm":
        """The variation as a local one-form, by slot-wise chain rule.

        Coefficient densities are the partials of the density with respect
        to each jet slot, taken by small central differences at the jet.
        """
        order = self.density.order
        base = self.density

        def partial(slot: str):
            def fn(env):
                vals = np.asarray(env[slot], dtype=float)
                step = 1e-6 * np.maximum(1.0, np.abs(vals))
                up = dict(env)
                up[slot] = vals + step
                down = dict(env)
                down[slot] = vals - step
                return (np.asarray(base.fn(up)) - np.asarray(base.fn(down))) / (2 * step)

            return LocalDensity(self.lattice, fn, order, name=f"d{self.name}/d{slot}")

        coeffs = [partial(JET_NAMES[k]) for k in range(order + 1)]
        return LocalOneForm(self.lattice, coeffs, name=f"d({self.name})")


class LocalOneForm:
    """One coefficient density per variation-jet slot.

    Evaluates as the lattice sum of ``coeff_k(jet of s) * D^k(ds)`` over
    sites, times the spacing. Linearity in the variation is structural.
    The jets of s are computed once per call, up to the highest slot
    density order, and every argument may be an ``(N, m)`` stack.
    """

    def __init__(self, lattice: LatticeBase, slot_densities: Sequence[LocalDensity], name=""):
        if not slot_densities:
            raise PreconditionError("a local one-form needs at least one slot density")
        self.lattice = lattice
        self.slot_densities = list(slot_densities)
        self.name = name
        self._jet_order = max(dens.order for dens in self.slot_densities)

    def __call__(self, field_values, variation) -> float:
        return float(self.values(field_values, variation))

    def values(self, field_values, variations):
        """The form at a field and variation, or ``(N,)`` values on stacks."""
        env = jets(self.lattice, field_values, self._jet_order)
        current = as_field(self.lattice, variations)
        total = 0.0
        for k, dens in enumerate(self.slot_densities):
            if k > 0:
                current = centered_difference(self.lattice, current)
            total = total + np.sum(dens.on_jets(env) * current, axis=-1)
        return total * self.lattice.spacing

    def as_form(self, field_space: ParameterSpace) -> OneForm:
        return OneForm(field_space, self.values, name=self.name)


def combine_densities(lattice: LatticeBase, terms, order: int, name="") -> LocalDensity:
    """The density ``sum(c * d)`` over the (coefficient, density) terms."""
    terms = list(terms)
    return LocalDensity(lattice, lambda env: sum(c * d.fn(env) for c, d in terms), order, name)


def integrate_local(density: LocalDensity, field_values) -> float:
    """Lattice integral of the density over the field's jets."""
    return LocalFunctional(density)(field_values)


def constant_functional_density(lattice: LatticeBase, c: float, order: int = 0) -> LocalDensity:
    """Density whose lattice integral is the constant c for every field."""
    value = float(c) / lattice.period
    return LocalDensity(lattice, lambda env: value, order, name=f"{c}/volume")


# ---------------------------------------------------------------------------
# Projectable actions on the lattice bundle


def _chi_values(lattice: LatticeBase, chi) -> np.ndarray:
    if chi is None:
        return np.zeros(lattice.sites)
    if isinstance(chi, (int, float)):
        return np.full(lattice.sites, float(chi))
    if isinstance(chi, str):
        ast = expressions.parse(chi, ("x",))
        ev = expressions.compile_expr(ast)
        return np.broadcast_to(
            np.asarray(ev({"x": lattice.coordinates}), dtype=float), (lattice.sites,)
        ).copy()
    return as_field(lattice, chi)


def site_shift_element(
    lattice: LatticeBase, space: ParameterSpace, label: str, steps: int,
    in_identity_component: bool = False,
) -> GroupElement:
    """Rotation of the base circle by a whole number of sites.

    The maps roll the site axis, the last one, of a field or a stack of
    fields; a bare ``np.roll`` would roll a flattened stack across rows.
    """
    k = int(steps)
    return GroupElement(
        label,
        lambda s: np.roll(s, k, axis=-1),
        lambda s: np.roll(s, -k, axis=-1),
        space,
        in_identity_component=in_identity_component,
    )


def fiber_affine_element(
    lattice: LatticeBase,
    space: ParameterSpace,
    label: str,
    scale: float = 1.0,
    chi=None,
    in_identity_component: bool = False,
) -> GroupElement:
    """Fiberwise map s -> scale * s + chi(x) of a field or of each row of a
    stack of fields; scale must be nonzero."""
    a = float(scale)
    if a == 0.0:
        raise PreconditionError(f"generator {label!r} has no inverse: zero scale")
    shift = _chi_values(lattice, chi)
    return GroupElement(
        label,
        lambda s: a * s + shift,
        lambda s: (s - shift) / a,
        space,
        in_identity_component=in_identity_component,
    )


def fiber_translation_lie(
    lattice: LatticeBase, space: ParameterSpace, label: str, chi=None
) -> LieElement:
    direction = _chi_values(lattice, chi if chi is not None else 1.0)
    fieldv = VectorField(space, lambda s: direction, name=f"fiber({label})")  # broadcasts
    return LieElement(label, fieldv, flow=lambda t, s: s + t * direction)


def shift_lie(lattice: LatticeBase, space: ParameterSpace, label: str) -> LieElement:
    """Infinitesimal base rotation, realized spectrally.

    The spectral shift is unitary, so quadratic lattice sums are exactly
    conserved along the flow; its generator differs from the centered
    difference by the usual quadratic discretization error.
    """
    m = lattice.sites
    freq = 2.0 * np.pi * np.fft.fftfreq(m, d=lattice.spacing)

    def spectral(s, factor):
        """``s`` times ``factor`` per Fourier mode, along the site axis."""
        spec = np.fft.fft(np.asarray(s, dtype=float), axis=-1)
        return np.real(np.fft.ifft(spec * factor, axis=-1))

    def flow(t, s):
        return spectral(s, np.exp(-1j * freq * t))

    generator = VectorField(space, lambda s: -spectral(s, 1j * freq), name=f"shift({label})")
    return LieElement(label, generator, flow=flow)


# ---------------------------------------------------------------------------
# Derivatives of local functionals along the action


def lie_derivative_local(
    functional: LocalFunctional,
    generator: LieElement,
    field_values,
    step: float = 1e-3,
    kind: Optional[str] = None,
    chi=None,
) -> Tuple[float, Optional[LocalDensity]]:
    """Directional derivative of the functional along the generator's flow.

    Richardson-extrapolated central differences over the flow. For fiber
    translations and base shifts an induced density is also assembled by
    the jet chain rule and the two routes are asserted to agree; the shift
    comparison tolerance scales with the spacing squared because the flow
    is spectral while jets use centered differences.
    """
    s = as_field(functional.lattice, field_values)

    def slope(h):
        return (functional(generator.flow_at(h, s)) - functional(generator.flow_at(-h, s))) / (2 * h)

    value = richardson_slope(slope, step)

    induced = None
    if kind in ("fiber_translation", "shift"):
        lattice = functional.lattice
        order = functional.density.order
        diff = functional.differential()
        slots = diff.slot_densities
        if kind == "fiber_translation":
            chi_vals = _chi_values(lattice, chi if chi is not None else 1.0)
            chi_env = jets(lattice, chi_vals, order)
            table = {JET_NAMES[k]: chi_env[JET_NAMES[k]] for k in range(order + 1)}

            def induced_fn(env_in):
                total = 0.0
                for k, dens in enumerate(slots):
                    total = total + dens.fn(env_in) * table[JET_NAMES[k]]
                return total

            induced_order = order
        else:
            if order + 1 > MAX_JET_ORDER:
                raise PreconditionError(
                    "shift chain rule needs one jet order above the density's"
                )

            # The variation jet of the shift is minus the next derivative,
            # read off the incoming environment so the density stays local.
            def induced_fn(env_in):
                total = 0.0
                for k, dens in enumerate(slots):
                    total = total - dens.fn(env_in) * np.asarray(env_in[JET_NAMES[k + 1]])
                return total

            induced_order = order + 1
        induced = LocalDensity(
            lattice, induced_fn, induced_order, name=f"L_{generator.label}({functional.name})"
        )
        chain_value = LocalFunctional(induced)(s)
        scale = max(1.0, abs(value), abs(chain_value))
        agreement_tol = 1e-7 * scale
        if kind == "shift":
            agreement_tol += 5.0 * lattice.spacing**2 * scale
        if abs(value - chain_value) > agreement_tol:
            raise LocalityDeclarationError(
                f"flow and chain-rule derivatives disagree: {value!r} vs {chain_value!r}"
            )
    return value, induced


# ---------------------------------------------------------------------------
# Declared-locality checks


def curl(form: OneForm, s, v1, v2, h: float) -> np.ndarray:
    """d(form)(v1, v2) at each row of the ``(N, m)`` field stack s, by
    central differences of step h; v1 and v2 are stacks like s.

    The four stencil points of every row go to one ``form.many`` call.
    """
    q = form.many(
        np.concatenate([s + h * v1, s - h * v1, s + h * v2, s - h * v2]),
        np.concatenate([v2, v2, v1, v1]),
    ).reshape(4, -1)
    return (q[0] - q[1]) / (2 * h) - (q[2] - q[3]) / (2 * h)


def curl_stencils(fields, variations, pairs: int, width: int):
    """Stacks ``(s, v1, v2)`` for :func:`curl`: every field with each of the
    first ``pairs`` pairs of consecutive variations."""
    triples = [(s, variations[i], variations[i + 1]) for s in fields for i in range(pairs)]
    return tuple(np.array([t[k] for t in triples]).reshape(-1, width) for k in range(3))


@dataclass(frozen=True)
class LocalityCheck:
    ok: bool
    rho_defect: float
    curvature_defect: float
    witness: Optional[dict]
    assumptions: dict


def check_local_declarations(
    field_space: ParameterSpace,
    generic_rho: OneForm,
    declared_rho: LocalOneForm,
    probe_fields: Sequence[np.ndarray],
    probe_variations: Sequence[np.ndarray],
    assumptions: Optional[dict] = None,
) -> LocalityCheck:
    """Verify a declared local connection density against the generic form.

    Also compares the induced curvature two-forms by central differences
    over field-space directions. A mismatch is reported with the offending
    field and variation.
    """
    declared = declared_rho.as_form(field_space)
    m = field_space.dimension
    probe_fields = np.asarray(probe_fields, dtype=float).reshape(-1, m)
    probe_variations = np.asarray(probe_variations, dtype=float).reshape(-1, m)
    fields = np.repeat(probe_fields, len(probe_variations), axis=0)
    variations = np.tile(probe_variations, (len(probe_fields), 1))
    declared_values = declared.many(fields, variations)
    generic_values = generic_rho.many(fields, variations)
    gaps = np.abs(declared_values - generic_values)
    rho_defect = float(np.max(gaps, initial=0.0))
    witness = None
    if rho_defect > DECLARATION_TOL:
        i = int(np.argmax(gaps))
        witness = {
            "field": [float(v) for v in fields[i]],
            "variation": [float(v) for v in variations[i]],
            "declared": float(declared_values[i]),
            "generic": float(generic_values[i]),
        }
    s, v1, v2 = curl_stencils(
        probe_fields[: max(1, len(probe_fields) // 2)],
        probe_variations,
        min(2, len(probe_variations) - 1),
        m,
    )
    h = field_space.fd_step
    curvature_defect = float(
        np.max(np.abs(curl(declared, s, v1, v2, h) - curl(generic_rho, s, v1, v2, h)), initial=0.0)
    )
    ok = rho_defect <= DECLARATION_TOL and curvature_defect <= 50 * DECLARATION_TOL
    if not ok and witness is None:
        witness = {"curvature_defect": curvature_defect}
    return LocalityCheck(ok, rho_defect, curvature_defect, witness, dict(assumptions or {}))


# ---------------------------------------------------------------------------
# Density ansatz bases


def density_basis(
    lattice: LatticeBase,
    jet_order: int,
    degree: int,
) -> List[Tuple[str, LocalDensity]]:
    """Monomials in the jet slots up to total degree."""
    symbols = JET_NAMES[: jet_order + 1]
    out: List[Tuple[str, LocalDensity]] = []
    for expo in monomial_exponents(len(symbols), degree):
        name = "*".join(
            (sym if k == 1 else f"{sym}^{k}") for sym, k in zip(symbols, expo) if k > 0
        ) or "1"

        def fn(env, expo=expo, symbols=symbols):
            acc = 1.0
            for sym, k in zip(symbols, expo):
                if k:
                    acc = acc * np.asarray(env[sym]) ** k
            return acc

        out.append((name, LocalDensity(lattice, fn, jet_order, name=name)))
    return out


def one_form_density_basis(
    lattice: LatticeBase,
    jet_order: int,
    degree: int,
    slots: Optional[Sequence[int]] = None,
) -> List[Tuple[str, LocalOneForm]]:
    """Coefficient densities on each variation slot up to the jet order."""
    if slots is None:
        slots = range(jet_order + 1)
    scalars = density_basis(lattice, jet_order, degree)
    zero = LocalDensity(lattice, lambda env: 0.0, jet_order, name="0")
    out: List[Tuple[str, LocalOneForm]] = []
    for name, dens in scalars:
        for k in slots:
            coeffs = [zero] * (jet_order + 1)
            coeffs[k] = dens
            slot_name = "du" if k == 0 else f"du{k}"
            out.append((f"{name} {slot_name}", LocalOneForm(lattice, coeffs, name=f"{name} {slot_name}")))
    return out


def random_fields(lattice: LatticeBase, n: int, rng) -> List[np.ndarray]:
    """Seeded band-limited probe fields with a random constant mode."""
    xs = lattice.coordinates
    amplitude = PROBE_FIELD_AMPLITUDE
    out = []
    for _ in range(n):
        s = np.full(lattice.sites, rng.normal() * amplitude)
        for k in range(1, PROBE_FIELD_MODES + 1):
            w = 2.0 * np.pi * k / lattice.period
            s = s + (amplitude / k) * (
                rng.normal() * np.cos(w * xs) + rng.normal() * np.sin(w * xs)
            )
        out.append(s)
    return out
