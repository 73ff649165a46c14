"""Exception types shared across the toolkit."""


class RotamapError(Exception):
    """Base class for all toolkit errors."""


class ParseError(RotamapError):
    """Malformed presentation file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class CapExceededError(RotamapError):
    """Coset enumeration hit the coset cap (group may be infinite)."""

    def __init__(self, cap: int, cosets_in_use: int):
        super().__init__(
            f"coset cap {cap} exceeded with {cosets_in_use} cosets in use; "
            "the group may be infinite, or raise the cap"
        )
        self.cap = cap
        self.cosets_in_use = cosets_in_use


class NotPolytopalError(RotamapError):
    """An operation required the intersection condition and it failed."""


class ConstructionError(RotamapError):
    """A construction's verification contract failed; names the identity."""


class NotSelfDualError(ConstructionError):
    """A construction needed a duality the input group does not have."""


class CollapseError(ConstructionError):
    """A duality form is not an automorphism of the group, so the
    extension it presents collapses below twice the group's order."""


class InconsistencyError(RotamapError):
    """An internal cross-check failed; indicates a bug or impossible input."""
