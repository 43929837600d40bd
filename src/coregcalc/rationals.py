"""Exact rational scalars and their text form.

Every quantity in this package is a ``fractions.Fraction``; floating point is
never used.  The wire format is ``p/q`` in lowest terms, or a bare integer
when the denominator is one.
"""

from fractions import Fraction


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


def parse_int(text: str, lineno: int) -> int:
    """Parse an integer field of line `lineno` of an input file."""
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"line {lineno}: expected an integer, got {text!r}") from None


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or a bare integer; rejects floats and empty input."""
    text = text.strip()
    if not text:
        raise ValueError("empty rational")
    if "." in text or "e" in text or "E" in text:
        raise ValueError(f"not an exact rational: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
