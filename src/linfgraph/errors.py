"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad ids, invalid weights, ...)."""


class CapExceeded(RuntimeError):
    """Instance is larger than an operation's documented size cap."""
