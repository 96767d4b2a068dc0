"""Exception types shared across parsers, generators and checkers."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed input text. Carries a 1-based line and column when the
    failing token is known."""

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class DuplicateCellError(ParseError):
    """Two MACRO blocks share one cell name."""


class NonIntegerHeightError(ParseError):
    """Cell height is not an integer multiple of the row height."""


class ShapeOutOfBoundsError(ParseError):
    """A shape or pin rectangle leaves the cell outline."""


class MissingLayerRuleError(ValueError):
    """A required rule deck entry is absent."""


class InconsistentSpacingError(ValueError):
    """Rule values contradict each other (e.g. same-mask spacing below
    any-mask spacing)."""


class CaseTooWideError(ValueError):
    """A testcase is wider than the floorplan row limit."""
