"""Exception hierarchy shared by all modules.

Every precondition failure raises a subclass of :class:`VnalgError`; the
``name`` attribute is the stable machine-readable identifier used by the CLI.
"""


class VnalgError(Exception):
    name = "Error"


class AlgebraMismatch(VnalgError):
    """Operands belong to different algebras."""
    name = "AlgebraMismatch"


class NotSelfAdjoint(VnalgError):
    name = "NotSelfAdjoint"


class NotPositive(VnalgError):
    name = "NotPositive"


class NotEffect(VnalgError):
    name = "NotEffect"


class NotProjection(VnalgError):
    name = "NotProjection"


class NotNormal(VnalgError):
    name = "NotNormal"


class FunctionUndefinedOnSpectrum(VnalgError):
    name = "FunctionUndefinedOnSpectrum"


class NotFinite(VnalgError):
    """Input data holds a NaN or infinite entry."""
    name = "NotFinite"


class ShapeMismatch(VnalgError):
    """Linear-map data does not match the declared domain or codomain."""
    name = "ShapeMismatch"


class DivisionUndefined(VnalgError):
    name = "DivisionUndefined"


class QuotientUndefined(VnalgError):
    name = "QuotientUndefined"


class FilterBoundViolated(VnalgError):
    name = "FilterBoundViolated"


class CarrierViolated(VnalgError):
    name = "CarrierViolated"


class ClosureViolated(VnalgError):
    name = "ClosureViolated"


class PostconditionViolated(VnalgError):
    name = "PostconditionViolated"


class NotCommutative(VnalgError):
    name = "NotCommutative"


class SampleBudgetExhausted(VnalgError, RuntimeError):
    name = "SampleBudgetExhausted"
