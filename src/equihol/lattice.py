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

Jets are computed only as far as a density reads them, and a constant-0
slot reads none. The density basis checks finiteness once per contraction,
on its small result, and scans its member tensor only when that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

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
    linear_combination,
    monomial_exponents,
    monomial_name,
    monomial_power,
    richardson_slope,
)

MAX_JET_ORDER = 6
JET_NAMES = ("u",) + tuple(f"u{k}" for k in range(1, MAX_JET_ORDER + 1))
# Half-width of the probe box of a field space.
PROBE_HALFWIDTH = 2.0
# Fourier modes and amplitude of seeded probe fields.
PROBE_FIELD_MODES = 3
PROBE_FIELD_AMPLITUDE = 0.8


@dataclass(frozen=True)
class LatticeBase:
    """m sites on an oriented circle of the given period."""

    sites: int
    period: float = 1.0

    def __post_init__(self):
        if self.sites < 8:
            raise ValueError("a lattice needs at least 8 sites")
        if not 0 < self.period < np.inf:
            raise ValueError("period must be finite and positive")

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
    """Centered difference along the last (site) axis, on a circle of sites.

    One subtraction runs over the whole flattened stack, so every interior
    site reads its two neighbours; at the first and last site of a row it
    reads across the row boundary, and those two columns are then rewritten
    from their neighbours on the circle."""
    values = np.ascontiguousarray(values, dtype=float)
    out = np.empty(values.shape)
    flat, into = values.reshape(-1), out.reshape(-1)
    np.subtract(flat[2:], flat[:-2], out=into[1:-1])
    np.subtract(values[..., 1], values[..., -1], out=out[..., 0])
    np.subtract(values[..., 0], values[..., -2], out=out[..., -1])
    return np.divide(out, 2.0 * lattice.spacing, out=out)


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
    locality structurally. Of the jets up to ``order`` it reads those up to
    ``reads`` (lower for an expression); ``zero`` marks the expression 0.
    """

    def __init__(self, lattice: LatticeBase, fn: Callable[[dict], np.ndarray], order: int, name=""):
        self.lattice = lattice
        self.fn = fn
        self.order = self.reads = order
        self.name = name
        self.zero = False

    @classmethod
    def from_expression(cls, lattice: LatticeBase, text_or_ast, order: int, name=""):
        symbols = ("x",) + JET_NAMES[: order + 1]
        ast = (
            expressions.parse(text_or_ast, symbols)
            if isinstance(text_or_ast, str)
            else text_or_ast
        )
        ev = expressions.compile_expr(ast)
        dens = cls(lattice, ev, order, name or expressions.to_source(ast))
        dens.reads = max(map(JET_NAMES.index, expressions.names(ast) & set(JET_NAMES)), default=0)
        dens.zero = ast == expressions.Num(0.0)
        return dens

    def values(self, field_values) -> np.ndarray:
        return self.on_jets(jets(self.lattice, field_values, self.reads))

    def on_jets(self, env: Dict[str, np.ndarray]) -> np.ndarray:
        """The density at every site of jets from :func:`jets`, up to the
        order it reads or higher; the shape is that of ``env["u"]``."""
        out = np.broadcast_to(np.asarray(self.fn(env), dtype=float), np.shape(env["u"]))
        _require_finite(out, self.name)
        return out


def _require_finite(values: np.ndarray, name: str) -> None:
    """Raise an EvaluationError naming the site, or the (row, site) on a
    stack, of the first non-finite value of the density ``name``."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        at = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), values.shape))
        where = f"site {at[0]}" if len(at) == 1 else f"row {at[0]}, site {at[1]}"
        raise EvaluationError(
            f"density {name!r} non-finite at {where}", point=at[0] if len(at) == 1 else at
        )


class LocalFunctional:
    """A density summed over sites times the spacing."""

    def __init__(self, density: LocalDensity, name=""):
        self.density = density
        self.lattice = density.lattice
        self.name = name or density.name

    def __call__(self, field_values) -> float:
        return float(self.values(field_values))

    def values(self, field_values):
        """The functional at one field, or ``(N,)`` values on a stack."""
        return np.sum(self.density.values(field_values), axis=-1) * self.lattice.spacing

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
    A constant-0 slot adds no term (it would add exactly +-0.0). The jets
    of s and ds are computed once per call, up to the highest order the
    terms read, and every argument may be an ``(N, m)`` stack.
    """

    def __init__(self, lattice: LatticeBase, slot_densities: Sequence[LocalDensity], name=""):
        if not slot_densities:
            raise PreconditionError("a local one-form needs at least one slot density")
        self.lattice = lattice
        self.slot_densities = list(slot_densities)
        self.name = name
        self._terms = [(k, dens) for k, dens in enumerate(self.slot_densities) if not dens.zero]

    def __call__(self, field_values, variation) -> float:
        return float(self.values(field_values, variation))

    def values(self, field_values, variations):
        """The form at a field and variation, or ``(N,)`` values on stacks."""
        env = jets(self.lattice, field_values, max((d.reads for _, d in self._terms), default=0))
        dv = jets(self.lattice, variations, max((k for k, _ in self._terms), default=0))
        total = np.zeros(np.broadcast_shapes(env["u"].shape, dv["u"].shape)[:-1])
        for k, dens in self._terms:
            total = total + np.sum(dens.on_jets(env) * dv[JET_NAMES[k]], axis=-1)
        return total * self.lattice.spacing

    def as_form(self, field_space: ParameterSpace) -> OneForm:
        return OneForm(field_space, self.values, name=self.name)


def integrate_local(density: LocalDensity, field_values) -> float:
    """Lattice integral of the density over the field's jets."""
    return LocalFunctional(density)(field_values)


# ---------------------------------------------------------------------------
# Projectable actions on the lattice bundle


def _chi_values(lattice: LatticeBase, chi) -> np.ndarray:
    """Site values of a fiber shift given as a number or as an expression
    in ``x`` (text or parsed); a non-finite value raises an EvaluationError."""
    if chi is None:
        return np.zeros(lattice.sites)
    if isinstance(chi, str):
        chi = expressions.parse(chi, ("x",))
    if not isinstance(chi, (int, float)):
        chi = expressions.compile_expr(chi)({"x": lattice.coordinates})
    values = np.empty(lattice.sites)
    values[:] = chi  # a constant broadcasts
    return as_field(lattice, values)


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


def flow_slope(values: Callable, generator: LieElement, fields, step: float = 1e-3):
    """Richardson slope of ``values`` along the generator's flow at one
    field, or at every row of an ``(N, m)`` stack; ``values`` maps fields
    to ``(N,)`` or ``(N, K)`` reals."""

    def slope(h):
        ahead, behind = generator.flow_at(h, fields), generator.flow_at(-h, fields)
        return (values(ahead) - values(behind)) / (2 * h)

    return richardson_slope(slope, step)


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
    value = float(flow_slope(functional.values, generator, s, step))

    induced = None
    if kind in ("fiber_translation", "shift"):
        lattice = functional.lattice
        order = functional.density.order
        slots = functional.differential().slot_densities
        if kind == "fiber_translation":
            chi_env = jets(lattice, _chi_values(lattice, chi if chi is not None else 1.0), order)
            variation_jet = lambda env, k: chi_env[JET_NAMES[k]]
            induced_order = order
        else:
            if order + 1 > MAX_JET_ORDER:
                raise PreconditionError(
                    "shift chain rule needs one jet order above the density's"
                )
            # The variation jet of the shift is minus the next derivative,
            # read off the incoming environment so the density stays local.
            variation_jet = lambda env, k: -np.asarray(env[JET_NAMES[k + 1]])
            induced_order = order + 1

        def induced_fn(env):
            return linear_combination([dens.fn(env) for dens in slots],
                                      [variation_jet(env, k) for k in range(len(slots))])

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
# Curl stencils


def curl_stencils(fields, variations, pairs: int):
    """Stacks ``(s, v1, v2)`` of the curl rows ``central_difference(space, many,
    s, v1, v2)``: every field with each of the first ``pairs`` pairs of
    consecutive variations, field-major."""
    fields, variations = np.asarray(fields, dtype=float), np.asarray(variations, dtype=float)
    tile = lambda vs: np.tile(vs, (len(fields), 1))
    return np.repeat(fields, pairs, axis=0), tile(variations[:pairs]), tile(variations[1:pairs + 1])


# ---------------------------------------------------------------------------
# Density ansatz basis


class DensityBasis:
    """Monomials in the jet slots up to a total degree: the lattice ansatz,
    counterpart of ``solvers.ScalarBasis`` and ``FormBasis``. Its matrices
    read one ``(M, N, m)`` member tensor of a whole field stack, on jets
    computed once, and reduce it over sites, the last axis; a non-finite
    member makes every reduced value it enters non-finite (inf * 0 is nan)."""

    def __init__(self, lattice: LatticeBase, jet_order: int, degree: int):
        self.lattice, self.jet_order = lattice, jet_order
        self.symbols = JET_NAMES[: jet_order + 1]
        self.exponents = monomial_exponents(len(self.symbols), degree)
        self.names = tuple(monomial_name(self.symbols, e) for e in self.exponents)

    def form_names(self, slots: Sequence[int]) -> list:
        """Column names of :meth:`forms`, as ``"u*u1 du2"``."""
        return [f"{name} d{JET_NAMES[k]}" for name in self.names for k in slots]

    def powers(self, env: Dict[str, np.ndarray], members: Sequence[int]) -> dict:
        """Each jet power ``monomial_power(env[sym], k)`` the members use,
        keyed ``(sym, k)``."""
        used = {(sym, k) for j in members for sym, k in zip(self.symbols, self.exponents[j]) if k}
        return {(sym, k): monomial_power(np.asarray(env[sym]), k) for sym, k in used}

    def _factors(self, j: int, powers: dict) -> list:
        """Member j's jet powers off a :meth:`powers` table, in slot order."""
        return [powers[sym, k] for sym, k in zip(self.symbols, self.exponents[j]) if k]

    def member(self, env: Dict[str, np.ndarray], j: int, powers=None):
        """Member j on jets from :func:`jets`, or off a :meth:`powers` table:
        the product of its factors in slot order, from 1.0."""
        powers = self.powers(env, [j]) if powers is None else powers
        return math.prod(self._factors(j, powers), start=1.0)

    def members(self, fields) -> np.ndarray:
        """The ``(M, N, m)`` tensor of every member on the jets of a field
        stack, off one power table, unchecked: see :meth:`_reduced`."""
        env = jets(self.lattice, np.reshape(fields, (-1, self.lattice.sites)), self.jet_order)
        tensor = np.empty((len(self.names),) + env["u"].shape)
        with np.errstate(over="ignore", invalid="ignore"):
            powers = self.powers(env, range(len(self.names)))
            # The product rule of member(), written into the tensor's rows:
            # 1.0 * x == x * 1.0 == x exactly, so starting from the product
            # of the first two factors keeps every bit.
            for j, row in enumerate(tensor):
                first, *rest = self._factors(j, powers) or [1.0]
                np.multiply(first, rest.pop(0) if rest else 1.0, out=row)
                for factor in rest:
                    np.multiply(row, factor, out=row)
        return tensor

    def _reduced(self, fields, reduce: Callable) -> np.ndarray:
        """``reduce`` of the member tensor, checked for finiteness once; only a
        non-finite value scans the tensor for its first non-finite member."""
        tensor = self.members(fields)
        with np.errstate(over="ignore", invalid="ignore"):
            values = reduce(tensor)
        if not np.isfinite(values).all():
            for name, member in zip(self.names, tensor):
                _require_finite(member, name)
        return values

    def functionals(self, fields) -> np.ndarray:
        """``(N, M)`` lattice integrals of the members."""
        sums = self._reduced(fields, lambda t: np.sum(t, axis=-1).T)
        return np.ascontiguousarray(sums) * self.lattice.spacing

    def forms(self, fields, variations, slots: Sequence[int]) -> np.ndarray:
        """``(N, M * S)`` values of the one-forms ``member du<k>`` at stacked
        fields and variations: column ``j * S + q`` is member j on the
        variation jet ``slots[q]``. One batched matmul over the site axis,
        ``(N, M, m) @ (N, m, S)``, contracts every row on its own."""
        dv = jets(self.lattice, np.reshape(variations, (-1, self.lattice.sites)), max(slots))
        on_slots = np.stack([dv[JET_NAMES[k]] for k in slots], axis=-1)
        values = self._reduced(fields, lambda t: np.matmul(t.transpose(1, 0, 2), on_slots))
        return values.reshape(len(values), -1) * self.lattice.spacing

    def combine(self, coefficients, slots: Optional[Sequence[int]] = None):
        """The fitted density ``sum_j c_j member_j``, adding its terms in
        member order from zero; with slots, the fitted one-form whose values
        are ``forms(fields, variations, slots) @ c``."""
        if slots is None:
            members = range(len(self.names))

            def fn(env):
                powers = self.powers(env, members)
                return linear_combination(coefficients, (self.member(env, j, powers) for j in members))

            return LocalDensity(self.lattice, fn, self.jet_order, name="fit")
        return FittedOneForm(self, coefficients, slots)


class FittedOneForm:
    """``sum_q c_q`` times column q of :meth:`DensityBasis.forms`: the local
    one-form a search fits over the basis."""

    def __init__(self, basis: DensityBasis, coefficients, slots: Sequence[int]):
        self.basis, self.slots = basis, list(slots)
        self.coefficients = np.asarray(coefficients, dtype=float)

    def values(self, field_values, variations) -> np.ndarray:
        """``(N,)`` values on stacked fields and variations, one dot product
        per row: a matrix-vector product of the whole stack would round a
        row by its place in the stack."""
        rows = self.basis.forms(field_values, variations, self.slots)
        return np.matmul(rows[:, None, :], self.coefficients)[:, 0]

    def as_form(self, field_space: ParameterSpace) -> OneForm:
        return OneForm(field_space, self.values, name="fit")


def random_fields(lattice: LatticeBase, n: int, rng) -> np.ndarray:
    """An ``(n, m)`` stack of seeded band-limited probe fields, each with a
    random constant mode; row i takes the i-th run of draws."""
    xs = lattice.coordinates
    amplitude = PROBE_FIELD_AMPLITUDE
    draws = rng.normal(size=(n, 1 + 2 * PROBE_FIELD_MODES))
    s = np.repeat(draws[:, :1] * amplitude, lattice.sites, axis=1)
    for k in range(1, PROBE_FIELD_MODES + 1):
        w = 2.0 * np.pi * k / lattice.period
        a, b = draws[:, 2 * k - 1, None], draws[:, 2 * k, None]
        s = s + (amplitude / k) * (a * np.cos(w * xs) + b * np.sin(w * xs))
    return s
