"""Scalar utilities and the verification error shared by every module.

Two arithmetic modes coexist throughout the library: exact rationals
(int / fractions.Fraction) for polyhedral data, and binary floats for
smooth p-norms.  Helpers here classify values, convert between modes,
and parse the "num/den" encoding used by the file formats.  The
exponent p = infinity is always the distinguished value math.inf,
never a large float.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Union

INF = math.inf

Scalar = Union[int, Fraction, float]


class VerificationError(AssertionError):
    """A certificate check failed: the computed object does not have the
    property it was built to have.  Raised explicitly, so the checks run
    under ``python -O`` too; an AssertionError, so callers that catch
    those still see it.  The CLI reports it with exit status 2."""


def is_rational(x) -> bool:
    """True for exact-mode scalars (int or Fraction, not bool)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def all_rational(values: Iterable) -> bool:
    return all(is_rational(v) for v in values)


def to_float(x) -> float:
    return float(x)


def as_fraction(x) -> Fraction:
    """Coerce to Fraction.  Floats convert via their exact binary value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if math.isinf(x) or math.isnan(x):
            raise ValueError(f"cannot represent {x!r} as a rational")
        return Fraction(x)
    if isinstance(x, str):
        return _rational_from_string(x)
    raise TypeError(f"unsupported scalar type: {type(x).__name__}")


def _rational_from_string(text: str) -> Fraction:
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        if int(den) == 0:
            raise ValueError("zero denominator in %r" % (text,))
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def parse_scalar(value) -> Scalar:
    """Parse a scalar from file/CLI input.

    Accepted forms: int, float, "num/den", "inf"/"+inf", decimal strings.
    Rational strings and integers stay exact; everything else is float.
    Other values, and a zero denominator, raise ValueError.
    """
    if isinstance(value, bool):
        raise ValueError("bool is not a scalar")
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        s = value.strip().lower()
        if s in ("inf", "+inf", "infinity", "oo"):
            return INF
        if "/" in s:
            return _rational_from_string(s)
        try:
            return int(s)
        except ValueError:
            return float(s)
    raise ValueError(f"cannot parse a scalar from {type(value).__name__}")


def sqrt_exact(x: Fraction):
    """Square root of a nonnegative rational if it is again rational, else None."""
    x = as_fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def golden_section_min(g: Callable[[float], float], a: float, b: float):
    """Golden-section search for the minimum of a unimodal g on [a, b].

    Shrinks the bracket until it is at most 1e-12 wide and returns
    (x, g(x)) at its midpoint.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    gc, gd = g(c), g(d)
    while b - a > 1e-12:
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - invphi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + invphi * (b - a)
            gd = g(d)
    x = (a + b) / 2.0
    return x, g(x)
