"""Runtime re-derivation of the calibrated sign convention.

Loads two bundled scenarios whose data pin the sign relating flow
derivatives of the cocycle to moments and descent residuals:

* ``rotation_anomalous.scn``, a one-parameter rotation of the plane with a
  radial connection, whose declared moment has a nonzero contraction term;
* ``translation_shear.scn``, a shear translation whose anomaly depends on
  position, pinning the descent sign through a nonzero gradient term.

:func:`run` returns the sign that makes both identities hold and the
residual each choice leaves. The shipped constant in
:mod:`equihol.conventions` must match; a test enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import Section, infinitesimal_anomaly
from .geometry import exterior_derivative, lie_derivative_one_form, max_abs
from .probes import probe_points
from .scenario import load_scenario


@dataclass(frozen=True)
class CalibrationResult:
    sign: int
    moment_residuals: dict
    descent_residuals: dict


CALIBRATION_PROBES = 12


def run() -> CalibrationResult:
    """Pick the sign that reconciles flow derivatives with moments and descent."""
    section = Section()
    moment_res = {+1: 0.0, -1: 0.0}
    descent_res = {+1: 0.0, -1: 0.0}
    for name in ("rotation_anomalous", "translation_shear"):
        model = load_scenario(name).build_model()
        bundle = model.bundle
        rho = model.connection.rho(section)
        pts = probe_points(bundle.space, CALIBRATION_PROBES, 0, tag="calibration")
        axes = [np.tile(e, (len(pts), 1)) for e in np.eye(bundle.space.dimension)]
        for label, moment in model.declared_moment.items():
            field = bundle.lie(label).generator_field
            anomaly = infinitesimal_anomaly(bundle, section, label)
            lie_term = lie_derivative_one_form(rho, field)
            grad = exterior_derivative(anomaly)
            a = anomaly.many(pts)
            pulled = moment.many(pts) + rho.many(pts, field.many(pts))
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
