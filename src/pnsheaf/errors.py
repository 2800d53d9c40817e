"""Exception types shared across the package."""


class PnsheafError(Exception):
    """Base class for every error raised by this package."""


class InputError(PnsheafError):
    """Caller passed something malformed (CLI exit code 2)."""


class ParseError(InputError):
    """Expression or polynomial text could not be parsed.

    Carries the character position and the tokens that would have been
    accepted there.
    """

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} at position {position}"
        if self.expected:
            detail += " (expected " + " | ".join(self.expected) + ")"
        super().__init__(detail)


def read_int(digits: str, position: int) -> int:
    """int(digits), or a ParseError at position when digits is longer than
    Python turns into an int (4,300 digits by default)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"integer literal of {len(digits)} characters is too long", position
        ) from None


class UnsupportedPlethysm(PnsheafError):
    """wedge/sym applied to a summand outside the supported classes (exit code 3)."""


class ScaleExceeded(PnsheafError):
    """Computation beyond a desk-scale guard (exit code 3)."""


class EulerViolation(InputError):
    """Coefficient vector fails the Euler relation; carries the residual."""

    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"Euler relation violated, residual {residual}")


class ConsistencyError(PnsheafError):
    """An internal exact-arithmetic cross-check failed; indicates a bug."""
