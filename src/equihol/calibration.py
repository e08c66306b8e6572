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
    GroupAction,
    GroupElement,
    LieElement,
    OneForm,
    ParameterSpace,
    ScalarField,
    VectorField,
    exterior_derivative,
    lie_derivative_one_form,
    max_abs,
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
        c, s = np.cos(t), np.sin(t)
        return lambda xs: np.stack([c * xs[:, 0] - s * xs[:, 1], s * xs[:, 0] + c * xs[:, 1]], -1)

    g = GroupElement("r", rot(angle), rot(-angle), space, in_identity_component=True)
    action = GroupAction(space, [g])
    cocycle = Cocycle.batched(
        {"r": lambda xs: 0.25 * angle},
        family=lambda e, xs: 0.25 * angle * e["r"],
        flow_values={"X": lambda t, xs: 0.25 * t},
    )
    X = LieElement(
        "X",
        VectorField.from_expressions(space, ["-x2", "x1"]),
        flow=lambda t, xs: rot(t)(xs),
    )
    bundle = EquivariantBundle(space, action, cocycle, [X])
    rho = OneForm.from_expressions(space, ["-0.1*x2", "0.1*x1"], name="0.1(x1 dx2 - x2 dx1)")
    moment = ScalarField.from_expression(space, "0.25 - 0.1 * (x1^2 + x2^2)")
    return bundle, Connection(rho), moment, "X"


def _shear_pieces():
    space = ParameterSpace(2, "euclidean-box", lower=(-16.0, -4.0), upper=(16.0, 4.0))
    step = np.array([1.0, 0.0])
    g = GroupElement(
        "s", lambda xs: xs + step, lambda xs: xs - step, space, in_identity_component=True
    )
    action = GroupAction(space, [g])
    cocycle = Cocycle.batched(
        {"s": lambda xs: xs[:, 1]},
        family=lambda e, xs: e["s"] * xs[:, 1],
        flow_values={"T": lambda t, xs: t * xs[:, 1]},
    )
    T = LieElement(
        "T", VectorField(space, lambda xs: step), flow=lambda t, xs: xs + t * step
    )
    bundle = EquivariantBundle(space, action, cocycle, [T])
    rho = OneForm.from_expressions(space, ["0", "x1"], name="x1 dx2")
    moment = ScalarField.from_expression(space, "x2")
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
        a = anomaly.many(pts)
        pulled = moment.many(pts) + rho.many(pts, field.many(pts))
        axes = [np.tile(e, (len(pts), 1)) for e in np.eye(bundle.space.dimension)]
        lead = [lie_term.many(pts, v) for v in axes]
        slope = [grad.many(pts, v) for v in axes]
        for sign in (+1, -1):
            moment_res[sign] = max(moment_res[sign], max_abs(sign * pulled - a))
            for lead_i, slope_i in zip(lead, slope):
                descent_res[sign] = max(descent_res[sign], max_abs(lead_i - sign * slope_i))
    scores = {s: max(moment_res[s], descent_res[s]) for s in (+1, -1)}
    sign = min(scores, key=scores.get)
    if scores[sign] > 1e-4:
        raise RuntimeError(f"calibration failed: best residual {scores[sign]:.3e}")
    return CalibrationResult(sign, moment_res, descent_res)
