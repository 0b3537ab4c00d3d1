"""Exception types shared across the package."""

from __future__ import annotations


class ToricPolarError(Exception):
    """Base class for all package-specific errors."""


class ParseError(ToricPolarError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PreconditionError(ToricPolarError, ValueError):
    """An operation was called on input violating its contract.

    A message about one variable has "{var}" where its name goes and
    carries its index as `variable`; `named(names)` spells it with the
    caller's variable names, str() as x<index>.
    """

    def __init__(self, message: str, variable: int | None = None):
        self.template = message
        self.variable = variable
        super().__init__(self.named())

    def named(self, names=None) -> str:
        """The message, the variable spelled as names[variable] when
        `names` is given, else as x<variable>."""
        if self.variable is None:
            return self.template
        i = self.variable
        return self.template.format(var=names[i] if names else f"x{i}")


class SpecializationError(ToricPolarError):
    """Randomized modular computation hit an unlucky specialization.

    Signals either disagreement between independent trials or a slice of
    unexpected dimension.  Rerunning with a fresh seed (or another prime)
    is the intended recovery.
    """

    def __init__(self, message: str, seeds: tuple = ()):
        if seeds:
            message = f"{message} [seeds: {', '.join(map(str, seeds))}]"
        super().__init__(message)
        self.seeds = tuple(seeds)
