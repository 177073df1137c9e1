"""Error types shared across the package."""


class NonConvergedError(RuntimeError):
    """An iterative routine hit its iteration cap before reaching tolerance."""

    outcome = "non_converged"  # the report outcome of a run it ends


class InfeasibleError(RuntimeError):
    """A constraint set is (numerically) empty or unreachable."""

    outcome = "infeasible"


class AuditError(ValueError):
    """An audit cannot be evaluated on its input (e.g. an infeasible iterate)."""

    outcome = "audit_error"


class UnsupportedCombinationError(ValueError):
    """Problem data fall outside the documented support matrix."""

    outcome = "unsupported"


#: the errors that end a solver run, each naming its report outcome
SOLVER_ERRORS = (UnsupportedCombinationError, NonConvergedError, InfeasibleError, AuditError)


class ScenarioParseError(ValueError):
    """A scenario document could not be parsed; message carries the location."""


class ScenarioValidationError(ValueError):
    """A scenario document parsed but failed validation; message names the field."""
