"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad ids, invalid weights, ...)."""


class CapExceeded(RuntimeError):
    """Instance is larger than an operation's documented size cap."""


class PerturbationFailed(RuntimeError):
    """Ties forced by zero weights survive perturbation; carries the result."""

    def __init__(self, message, last_candidate=None):
        super().__init__(message)
        self.last_candidate = last_candidate
