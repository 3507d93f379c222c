"""Exact rational arithmetic helpers.

Function values, critical values and radii are ``fractions.Fraction``
instances at the API and file boundary. These helpers normalize
user-facing inputs (ints, strings like ``"3/4"`` or ``"-1.25"``) into
``Fraction`` and format them back out in ``p/q`` text form. A token of
an optional ``-``, ASCII digits, and optionally ``/`` and ASCII digits
not all zero is read with ``int``; any other (``+3``, ``2.5``, ``1_0``,
``1/0``, non-ASCII digits) goes to ``Fraction(str)``, as do its errors.
Inside, `scaled` puts the values one computation compares on a common
integer scale, and graph building, `reeb_of_complex`, the smoothing
sweep, the rank refutation and `transport` work on those integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ParseError, ValidationError


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, or numeric string to an exact Fraction.

    Floats are rejected: they carry binary rounding error and silently
    break tie detection. Write ``Fraction(1, 3)`` or pass the string
    ``"1/3"`` instead.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ParseError(f"not a rational value: {value!r}")


def as_radius(value, what: str) -> Fraction:
    """Coerce a radius like `as_rational` and reject a negative one,
    naming what kind of radius it is."""
    value = as_rational(value)
    if value < 0:
        raise ValidationError(f"{what} radius must be nonnegative")
    return value


def parse_rational(token: str) -> Fraction:
    """Parse ``"7"``, ``"-3/4"`` or ``"2.5"`` into a Fraction."""
    token = token.strip()
    if not token:
        raise ParseError("empty rational token")
    num, slash, den = token.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    try:
        if digits.isascii() and digits.isdigit():
            if not slash:
                return Fraction(int(num))
            if den.isascii() and den.isdigit() and den.strip("0"):
                return Fraction(int(num), int(den))
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational token {token!r}: {exc}") from None


def scaled(values) -> tuple[int, list[int]]:
    """The least common denominator of a sequence of rationals, and each times it."""
    scale = lcm(*{x.denominator for x in values})
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def format_rational(value: Fraction) -> str:
    """Render a Fraction (or an int) as ``p`` or ``p/q`` with no whitespace."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
