"""Exact rational arithmetic helpers.

Function values, critical values and radii are ``fractions.Fraction``
instances at the API and file boundary. These helpers normalize
user-facing inputs (ints, strings like ``"3/4"`` or ``"-1.25"``) into
``Fraction`` and format them back out in ``p/q`` text form. A token of
an optional ``-``, ASCII digits, and optionally ``/`` and ASCII digits
not all zero is read with ``int``; any other (``+3``, ``2.5``, ``1_0``,
``1/0``, non-ASCII digits) goes to ``Fraction(str)``, as do its errors,
except that an exponent beyond ``EXPONENT_LIMIT`` in magnitude (``1e9999``)
is rejected first, since ``Fraction`` would build the whole power of ten,
and a value it reads whose numerator or denominator has more than
``EXPONENT_LIMIT`` digits (``1e4300``) is rejected after, since it could
not be printed back.
Inside, `scaled` puts the values one computation compares on a common
integer scale, and graph building, `reeb_of_complex`, the smoothing
sweep, the rank refutation and `transport` work on those integers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import ParseError, ValidationError

# the largest exponent magnitude a token may carry and the most digits a
# value read from text may have, the size of Python's default limit on
# the digits of an int read from or written to text
EXPONENT_LIMIT = 4300
_TOO_LONG = 10 ** EXPONENT_LIMIT     # the least integer of more digits than that
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")


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
        if (exp := _EXPONENT.search(token)) and abs(int(exp[1])) > EXPONENT_LIMIT:
            raise ParseError(f"bad rational token {token!r}: exponent beyond "
                             f"{EXPONENT_LIMIT} in magnitude")
        value = Fraction(token)
        if abs(value.numerator) >= _TOO_LONG or value.denominator >= _TOO_LONG:
            raise ParseError(f"bad rational token {token!r}: more than "
                             f"{EXPONENT_LIMIT} digits")
        return value
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational token {token!r}: {exc}") from None


def scaled(values) -> tuple[int, list[int]]:
    """The least common denominator of a sequence of rationals, and each times it."""
    scale = lcm(*{x.denominator for x in values})
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def _digits(n: int) -> int:
    """The number of decimal digits of n, without writing it out."""
    n = abs(n)
    d = max(1, int((n.bit_length() - 1) * 0.30102999566398120))   # log10(2)
    while n >= 10 ** d:
        d += 1
    return d


def format_rational(value: Fraction) -> str:
    """Render a Fraction (or an int) as ``p`` or ``p/q`` with no whitespace.
    A numerator or denominator beyond Python's limit on the digits of an
    int written as text is a ValidationError giving its digit count."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        n = max(_digits(value.numerator), _digits(value.denominator))
        raise ValidationError(f"value of {n} digits is too long to write as "
                              "text") from None
