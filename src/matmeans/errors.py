"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument violates a mathematical precondition (wrong sign, range, order)."""


class RequestError(DomainError):
    """A harness request is rejected before any instance is drawn: an unknown
    case, a config no case runs, or a sweep the case cannot make."""


class ConvergenceError(RuntimeError):
    """The LAPACK Hermitian eigensolver failed to converge; the input is pathological."""
