"""Error types shared across the package."""


class NonConvergedError(RuntimeError):
    """An iterative routine hit its iteration cap before reaching tolerance."""


class InfeasibleError(RuntimeError):
    """A constraint set is (numerically) empty or unreachable."""


class AuditError(ValueError):
    """An audit cannot be evaluated on its input (e.g. an infeasible iterate)."""


class UnsupportedCombinationError(ValueError):
    """Problem data fall outside the documented support matrix."""


class ScenarioParseError(ValueError):
    """A scenario document could not be parsed; message carries the location."""


class ScenarioValidationError(ValueError):
    """A scenario document parsed but failed validation; message names the field."""
