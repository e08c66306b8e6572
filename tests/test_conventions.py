"""The shipped sign convention, re-derived through the library's own
identities.

Two bundled scenarios pin ``ANOMALY_MOMENT_SIGN``: ``rotation_anomalous``,
a rotation with a radial connection whose declared moment has a nonzero
contraction term, and ``translation_shear``, a shear translation whose
anomaly depends on position, so that the descent identity has a nonzero
gradient term. Under the shipped sign the flow-derivative anomaly equals
the moment formula and the descent residual vanishes; under the other
sign each misses on one scenario by far more than quadrature noise.
"""

import numpy as np

from equihol import bundle
from equihol.bundle import Section, descent_residual, infinitesimal_anomaly
from equihol.conventions import ANOMALY_MOMENT_SIGN
from equihol.geometry import max_abs
from equihol.probes import probe_points
from equihol.scenario import load_scenario

PROBES = 12


def identity_residuals():
    """The largest moment-identity and descent residuals of the declared
    moments of both scenarios at the probes, under the current sign."""
    moment_res = descent_res = 0.0
    for name in ("rotation_anomalous", "translation_shear"):
        model = load_scenario(name).build_model()
        b, section = model.bundle, Section()
        pts = probe_points(b.space, PROBES, 0, tag="calibration")
        axes = [np.tile(e, (PROBES, 1)) for e in np.eye(b.space.dimension)]
        for label, moment in model.declared_moment.items():
            flow = infinitesimal_anomaly(b, section, label)
            formula = infinitesimal_anomaly(
                b, section, label, "moment-formula", model.connection, moment
            )
            moment_res = max(moment_res, max_abs(formula.many(pts) - flow.many(pts)))
            descent = descent_residual(b, model.connection, section, label)
            descent_res = max([descent_res] + [max_abs(descent.many(pts, v)) for v in axes])
    return moment_res, descent_res


def test_calibration_rederives_shipped_sign(monkeypatch):
    for sign in (+1, -1):
        monkeypatch.setattr(bundle, "ANOMALY_MOMENT_SIGN", sign)
        moment_res, descent_res = identity_residuals()
        if sign == ANOMALY_MOMENT_SIGN:
            assert moment_res < 1e-8 and descent_res < 1e-6, (sign, moment_res, descent_res)
        else:
            # the shipped sign is decisive, not marginal
            assert moment_res > 0.1 and descent_res > 0.1, (sign, moment_res, descent_res)
