"""Exception types shared across the toolkit."""


class HerglotzError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(HerglotzError):
    """Malformed expression text. ``offset`` is the 1-based byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownFunction(HerglotzError):
    def __init__(self, name, offset):
        super().__init__(f"unknown function '{name}' (at offset {offset})")
        self.name = name
        self.offset = offset


class UnboundVariable(HerglotzError):
    def __init__(self, name):
        super().__init__(f"variable '{name}' is not bound")
        self.name = name


class DomainError(HerglotzError):
    """log or sqrt of a negative argument."""


class ValidationError(HerglotzError):
    """One or more violated invariants; ``problems`` lists all of them."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class OutOfHistoryRange(HerglotzError):
    pass


class GridTooSmall(HerglotzError):
    pass


class NonFiniteLagrangian(HerglotzError):
    def __init__(self, t):
        super().__init__(f"Lagrangian evaluated to NaN/Inf near t={t!r}")
        self.t = t


class ZeroDelay(HerglotzError):
    """The reduction requires tau > 0; use the direct code paths instead."""


class SingularJacobian(HerglotzError):
    def __init__(self):
        super().__init__("Newton Jacobian is singular")

