"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An operation was called outside its stated preconditions."""


class UnsupportedRegime(ValueError):
    """Requested a regime the discrete calculus does not implement (e.g. rho <= 0)."""


class ResolventFailure(RuntimeError):
    """A relation's resolvent could not be evaluated to tolerance; ``.residual`` is the last one."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConditionCheckError(ValueError):
    """A material family violates one of its structural conditions."""


class StepSizeError(ValueError):
    """Time step too large for the implicit step to stay coercive.

    ``suggested_dt`` carries the admissible step computed from the family constants.
    """

    def __init__(self, message, suggested_dt=None):
        super().__init__(message)
        self.suggested_dt = suggested_dt


class StepFailure(RuntimeError):
    """A per-step solve did not converge; ``.step`` is the failing node index."""

    def __init__(self, message, step, residual=None):
        super().__init__(message)
        self.step = step
        self.residual = residual
