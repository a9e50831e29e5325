"""Exception types shared across the package."""


class FcaError(Exception):
    """Base class for all errors raised by this package."""


class ContextError(FcaError, ValueError):
    """Invalid context data, whether parsed from text or constructed directly."""


class DuplicateName(ContextError):
    """An object or attribute name occurs more than once."""

    def __init__(self, kind: str, name: str):
        self.kind = kind
        self.name = name
        super().__init__(f"duplicate {kind} name: {name!r}")


class InvalidName(ContextError):
    """A name is empty, untrimmed, or contains a character the CSV format reserves."""

    def __init__(self, kind: str, name: str, reason: str):
        self.kind = kind
        self.name = name
        super().__init__(f"invalid {kind} name {name!r}: {reason}")


class MalformedCell(ContextError):
    """A CSV cell holds something other than what the format allows.

    ``row`` and ``column`` are zero-based field coordinates; row 0 is the header.
    """

    def __init__(self, row: int, column: int, reason: str):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column}: {reason}")


class RaggedRow(ContextError):
    """A CSV row has the wrong number of cells."""

    def __init__(self, row: int, expected: int, got: int):
        self.row = row
        self.expected = expected
        self.got = got
        super().__init__(f"row {row}: expected {expected} cells, got {got}")


class BadIndex(FcaError, IndexError):
    """An object or attribute index is out of bounds for the context."""

    def __init__(self, kind: str, index: int, size: int):
        self.kind = kind
        self.index = index
        self.size = size
        super().__init__(f"{kind} index {index!r} out of range for size {size}")


class BadId(FcaError, IndexError):
    """A concept id does not exist in the lattice."""

    def __init__(self, concept_id: object, size: int):
        self.concept_id = concept_id
        self.size = size
        super().__init__(f"concept id {concept_id!r} out of range for lattice of {size} concepts")


class BadArgument(FcaError, ValueError):
    """An argument is out of range, or asks for more work than a documented limit allows."""


class MixedContext(FcaError, ValueError):
    """An operation mixed concepts, contexts, or lattices that do not belong together."""


class EmptyCategory(FcaError, ValueError):
    """No object carries every attribute of the requested category."""

    def __init__(self, attributes):
        self.attributes = tuple(attributes)
        super().__init__(
            "no object has all category attributes: " + ", ".join(map(repr, self.attributes))
        )
