"""Shared exception types."""


class ParseError(ValueError):
    """Malformed sequence text. `position` is 1-based; `line` is set by file readers."""

    def __init__(self, message, position=None, line=None):
        super().__init__(message)
        self.position = position
        self.line = line


class ResourceLimitError(RuntimeError):
    """A computation would exceed its configured work or enumeration budget."""
