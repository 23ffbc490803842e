"""Scalar utilities and the verification error shared by every module.

Two arithmetic modes coexist throughout the library: exact rationals
(int / fractions.Fraction) for polyhedral data, and binary floats for
smooth p-norms.  One rule chooses between them, written once in
same_mode: a result is exact when every input is rational, and a float
otherwise.  Helpers here classify values, convert between modes, and
parse the "num/den" encoding used by the file formats.  The exponent
p = infinity is always the distinguished value math.inf, never a large
float.  record makes the value classes; dataclasses would import inspect.
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


def record(cls=None, *, slots: bool = False):
    """Freeze cls as dataclass(frozen=True) would: its own annotations are
    its fields, in order, class attributes their defaults, and __init__ ends
    with __post_init__.  A __repr__ of cls's stays; slots=True sets __slots__."""
    if cls is None:
        return lambda c: record(c, slots=slots)
    names = tuple(vars(cls).get("__annotations__", ()))
    defaults = {n: vars(cls)[n] for n in names if n in vars(cls)}
    set_, post_init = object.__setattr__, getattr(cls, "__post_init__", lambda self: None)
    if slots:
        ns = {k: v for k, v in vars(cls).items() if k not in (*names, "__dict__", "__weakref__")}
        cls = type(cls)(cls.__name__, cls.__bases__, dict(ns, __slots__=names))

    def __init__(self, *args, **kwargs):
        for name, value in zip(names, args):
            set_(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs and name not in defaults:
                raise TypeError("%s() missing argument %r" % (cls.__qualname__, name))
            set_(self, name, kwargs.pop(name) if name in kwargs else defaults[name])
        if kwargs or len(args) > len(names):
            raise TypeError("%s%r got an unknown or repeated argument" % (cls.__qualname__, names))
        post_init(self)

    def values(self) -> tuple:
        return tuple(map(self.__getattribute__, names))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or values(self) == values(other)

    def frozen(self, name, *value):
        raise AttributeError("%s is frozen: cannot set or delete %r" % (cls.__qualname__, name))

    cls.__init__, cls.__eq__, cls.__hash__ = __init__, __eq__, lambda self: hash(values(self))
    cls.__setattr__ = cls.__delattr__ = frozen
    if "__repr__" not in vars(cls):
        cls.__repr__ = lambda self: "%s(%s)" % (
            cls.__qualname__, ", ".join("%s=%r" % pair for pair in zip(names, values(self))))
    return cls


def is_rational(x) -> bool:
    """True for exact-mode scalars (int or Fraction, not bool)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def all_rational(values: Iterable) -> bool:
    return all(is_rational(v) for v in values)


def float_or_inf(x) -> float:
    """float(x), with a magnitude beyond the float range sent to +-inf."""
    try:
        return float(x)
    except OverflowError:
        return INF if x > 0 else -INF


def same_mode(*values) -> tuple:
    """All the values as Fractions when every one is rational, all as
    floats otherwise, so that one formula serves both modes."""
    if all_rational(values):
        return tuple(map(as_fraction, values))
    return tuple(map(float, values))


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
    raise TypeError(f"unsupported scalar type: {type(x).__name__}")


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
            num, den = s.split("/", 1)
            if int(den) == 0:
                raise ValueError("zero denominator in %r" % (s,))
            return Fraction(int(num), int(den))
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


def root_float(x, p: int) -> float:
    """The float nearest x**(1/p) for a rational x >= 0 and an integer p >= 1:
    r = floor(x**(1/p) * 2**k) has at least 55 bits, so no rounding boundary
    lies strictly between r and r + 1, and r + 1/2 rounds as an inexact root."""
    a, b = as_fraction(x).as_integer_ratio()
    if a == 0:
        return 0.0
    k = 56 + -(-max(0, b.bit_length() - a.bit_length() + 1) // p)
    y = a << (p * k)
    n = y // b
    r = 1 << -(-n.bit_length() // p)  # Newton's method from above
    while (s := ((p - 1) * r + n // r ** (p - 1)) // p) < r:
        r = s
    return float(Fraction(2 * r + (r ** p * b != y), 1 << (k + 1)))


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
