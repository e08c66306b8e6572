"""Runtime re-derivation of the calibrated sign convention.

Builds two small scenarios whose data pin the sign relating flow
derivatives of the cocycle to moments and descent residuals:

* a one-parameter rotation of the plane with a radial connection, whose
  declared moment has a nonzero contraction term;
* a shear translation whose anomaly depends on position, pinning the
  descent sign through a nonzero gradient term.

:func:`run` returns the sign that makes both identities hold and the
residual each choice leaves. The shipped constant in
:mod:`equihol.conventions` must match; a test enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import Cocycle, Connection, EquivariantBundle, Section, infinitesimal_anomaly
from .geometry import (
    CircleValue,
    GroupAction,
    GroupElement,
    LieElement,
    OneForm,
    ParameterSpace,
    ScalarField,
    VectorField,
    exterior_derivative,
    lie_derivative_one_form,
    stacked,
)
from .probes import probe_points


@dataclass(frozen=True)
class CalibrationResult:
    sign: int
    moment_residuals: dict
    descent_residuals: dict


CALIBRATION_PROBES = 12


def _rotation_pieces():
    space = ParameterSpace(2, "euclidean-box", lower=(-6.0, -6.0), upper=(6.0, 6.0))
    angle = 0.7

    def rot(t):
        # A point (2,) or a stack (N, 2), coordinates on the last axis.
        c, s = np.cos(t), np.sin(t)
        return stacked(
            lambda x: np.stack([c * x[..., 0] - s * x[..., 1], s * x[..., 0] + c * x[..., 1]], -1)
        )

    g = GroupElement("r", rot(angle), rot(-angle), space, in_identity_component=True)
    action = GroupAction(space, [g])
    cocycle = Cocycle(
        {"r": stacked(lambda xs: 0.25 * angle)},
        family=stacked(lambda e, xs: 0.25 * angle * e["r"]),
        flow_values={"X": lambda t, x: CircleValue(0.25 * t)},
    )
    X = LieElement(
        "X",
        VectorField(space, lambda x: np.array([-x[1], x[0]])),
        flow=lambda t, x: rot(t)(x),
    )
    bundle = EquivariantBundle(space, action, cocycle, [X])
    rho = OneForm.from_expressions(space, ["-0.1*x2", "0.1*x1"], name="0.1(x1 dx2 - x2 dx1)")
    moment = ScalarField(space, lambda x: 0.25 - 0.1 * (x[0] ** 2 + x[1] ** 2))
    return bundle, Connection(rho), moment, "X"


def _shear_pieces():
    space = ParameterSpace(2, "euclidean-box", lower=(-16.0, -4.0), upper=(16.0, 4.0))
    step = np.array([1.0, 0.0])
    g = GroupElement(
        "s", stacked(lambda x: x + step), stacked(lambda x: x - step), space,
        in_identity_component=True,
    )
    action = GroupAction(space, [g])
    cocycle = Cocycle(
        {"s": stacked(lambda xs: xs[:, 1])},
        family=stacked(lambda e, xs: e["s"] * xs[:, 1]),
        flow_values={"T": lambda t, x: CircleValue(t * x[1])},
    )
    T = LieElement(
        "T", VectorField(space, lambda x: np.array([1.0, 0.0])), flow=lambda t, x: x + t * step
    )
    bundle = EquivariantBundle(space, action, cocycle, [T])
    rho = OneForm.from_expressions(space, ["0", "x1"], name="x1 dx2")
    moment = ScalarField(space, lambda x: x[1])
    return bundle, Connection(rho), moment, "T"


def run() -> CalibrationResult:
    """Pick the sign that reconciles flow derivatives with moments and descent."""
    section = Section()
    moment_res = {+1: 0.0, -1: 0.0}
    descent_res = {+1: 0.0, -1: 0.0}
    for pieces in (_rotation_pieces(), _shear_pieces()):
        bundle, connection, moment, label = pieces
        rho = connection.rho(section)
        field = bundle.lie(label).generator_field
        anomaly = infinitesimal_anomaly(bundle, section, label)
        lie_term = lie_derivative_one_form(rho, field)
        grad = exterior_derivative(anomaly)
        pts = probe_points(bundle.space, CALIBRATION_PROBES, 0, tag="calibration")
        for x in pts:
            a = anomaly(x)
            contraction = rho(x, field(x))
            for sign in (+1, -1):
                moment_res[sign] = max(
                    moment_res[sign], abs(sign * (moment(x) + contraction) - a)
                )
            for i in range(bundle.space.dimension):
                v = bundle.space.basis_vector(i)
                lead = lie_term(x, v)
                for sign in (+1, -1):
                    descent_res[sign] = max(descent_res[sign], abs(lead - sign * grad(x, v)))
    scores = {s: max(moment_res[s], descent_res[s]) for s in (+1, -1)}
    sign = min(scores, key=scores.get)
    if scores[sign] > 1e-4:
        raise RuntimeError(f"calibration failed: best residual {scores[sign]:.3e}")
    return CalibrationResult(sign, moment_res, descent_res)
