"""House orientation and sign conventions, fixed once by calibration.

Fundamental vector fields are flow derivatives: for a one-parameter family
``phi_t`` the field is ``X(x) = d/dt phi_t(x)`` at ``t = 0``. Left actions
admit the opposite choice, which flips the moment and descent identities;
the resolution is pinned numerically on two bundled scenarios,
``rotation_anomalous.scn`` (a rotation with a radial connection) and
``translation_shear.scn`` (a shear translation), through the library's own
``infinitesimal_anomaly`` and ``descent_residual`` under each sign
(``tests/test_conventions.py``), and recorded here. See
``docs/conventions.md``.

With ``ANOMALY_MOMENT_SIGN = +1`` the identities in force are::

    moment(X)         = anomaly(X) - rho(X)        (moment identity)
    L_X rho - d(anomaly(X)) = 0                    (descent identity)
    contract(X, curv) = d(moment(X))               (equivariant closedness)
"""

# Global sign relating the flow derivative of the cocycle to the moment map.
ANOMALY_MOMENT_SIGN = +1
