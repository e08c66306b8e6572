"""Equivariant circle-bundle toolkit.

Represents equivariant circle bundles with invariant connections over
finite-dimensional parameter spaces, computes equivariant holonomy and
curvature in the Cartan model, and decides cancellation criteria, both
topological (an equivariant section exists) and physical (a local
equivariant section exists over a lattice jet-density model).
"""

from .geometry import (
    CircleValue,
    GroupAction,
    GroupElement,
    LieElement,
    OneForm,
    ParameterSpace,
    Path,
    ScalarField,
    TwoForm,
    VectorField,
    circle_differential,
    exterior_derivative,
    format_word,
    lie_bracket,
    line_integral,
    parse_word,
)
from .bundle import (
    Cocycle,
    Connection,
    EquivariantBundle,
    EquivariantCurvature,
    Section,
    check_cocycle,
    connection_report,
    descent_residual,
    infinitesimal_anomaly,
    lie_cocycle_residual,
    section_cocycle,
)
from .holonomy import (
    Character,
    HolonomyResult,
    equivariant_holonomy,
    flat_character,
    holonomy_invariance_report,
    transport_cocycle,
)

__version__ = "0.1.0"
