"""Exception hierarchy shared by every module."""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class EvaluationError(ToolkitError):
    """A field, form or density produced a non-finite value.

    Carries the offending point (or lattice site index) when known.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class DomainError(ToolkitError):
    """A finite-difference stencil or path sample left the declared domain."""


class ResolutionError(ToolkitError):
    """Circle-valued data could not be unwrapped at the stencil scale.

    The standard fix is to shrink ``fd_step`` (or the flow step) so adjacent
    stencil values stay within circle distance 0.25.
    """


class CompositionError(ToolkitError):
    """Path endpoints do not match up for the requested operation."""


class PathClassError(ToolkitError):
    """A path does not connect a point to its image under the group word."""


class ConsistencyError(ToolkitError):
    """Independently computed quantities disagree beyond tolerance.

    Signals inconsistent scenario data (or a genuine bug), never a benign
    numerical wobble.
    """


class PreconditionError(ToolkitError):
    """An operation's stated precondition failed its numerical check."""


class NotFlatError(PreconditionError):
    """The equivariant curvature does not vanish to tolerance."""


class ConditioningError(ToolkitError):
    """A least-squares system is too ill-conditioned to trust.

    Shrinking the ansatz (or dropping near-dependent members) is the usual
    remedy.
    """


class InvalidCharacterError(ToolkitError):
    """A circle-valued character violates the group presentation."""


class LocalityDeclarationError(ToolkitError):
    """A declared local density does not reproduce the generic evaluator."""


class ScenarioError(ToolkitError):
    """Problem with a scenario file; carries a source position when known."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class ExpressionSyntaxError(ScenarioError):
    """The expression text does not match the published grammar."""


class ExpressionNameError(ScenarioError):
    """An expression references a name not allowed in its context."""
