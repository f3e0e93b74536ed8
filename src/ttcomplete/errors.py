"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Array dimensions or rank chains do not match what an operation needs."""


class BoundsError(IndexError):
    """A multi-index or linear offset lies outside its shape; ``row`` is its 0-based row if known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class CapacityError(ValueError):
    """Materializing a tensor would exceed the element limit."""


class FormatError(ValueError):
    """A data file does not conform to its on-disk format."""


class NumericError(ArithmeticError):
    """A NaN or infinity appeared where a finite value is required."""
