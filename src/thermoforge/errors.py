"""Exception taxonomy shared across the package.

The CLI maps these onto stable exit codes: parse failures (FormatError
among them) -> 2, DomainError/PreconditionError/ShapeError -> 3,
CapacityError -> 4, CoherenceError -> 5.
"""


class FormatError(ValueError):
    """An input file is structurally malformed (wrong nesting or count)."""


class ShapeError(ValueError):
    """Operand dimensions are inconsistent."""


class DomainError(ValueError):
    """Input violates a mathematical precondition (not just a shape)."""


class PreconditionError(ValueError):
    """A structural precondition fails (e.g. a singleton energy block)."""


class CapacityError(RuntimeError):
    """A configured size cap would be exceeded."""


class CoherenceError(ValueError):
    """An incoherent (diagonal) input was required but coherence was found."""
