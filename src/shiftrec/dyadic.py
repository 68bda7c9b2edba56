"""Exact arithmetic on rationals with power-of-two denominators."""

from __future__ import annotations

import re
from fractions import Fraction


class Dyadic:
    """``num / 2**exp`` in canonical form: ``num`` odd or zero, ``exp >= 0``.

    Addition, multiplication and comparison are exact; there is no division
    because none of the measure identities need one.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        elif exp > 0:
            tz = (num & -num).bit_length() - 1
            s = min(tz, exp)
            num >>= s
            exp -= s
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    @classmethod
    def from_string(cls, text: str) -> "Dyadic":
        m = re.fullmatch(r"\s*(-?\d+)\s*/\s*2\^(\d+)\s*", text)
        if m:
            return cls(int(m.group(1)), int(m.group(2)))
        m = re.fullmatch(r"\s*(-?\d+)\s*", text)
        if m:
            return cls(int(m.group(1)))
        raise ValueError(f"not a dyadic literal: {text!r}")

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    @staticmethod
    def _coerce(other) -> "Dyadic | None":
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) + (o.num << (e - o.exp)), e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) - (o.num << (e - o.exp)), e)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dyadic(self.num * o.num, self.exp + o.exp)

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            return NotImplemented
        return Dyadic(self.num**power, self.exp * power)

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            if isinstance(other, Fraction):
                f = self.as_fraction()
                return (f > other) - (f < other)
            raise TypeError(f"cannot compare Dyadic with {type(other).__name__}")
        e = max(self.exp, o.exp)
        a = self.num << (e - self.exp)
        b = o.num << (e - o.exp)
        return (a > b) - (a < b)

    def __eq__(self, other):
        if isinstance(other, (Dyadic, int, Fraction)):
            return self._cmp(other) == 0
        return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash(self.as_fraction())

    def __bool__(self):
        return self.num != 0

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"


D_ZERO = Dyadic(0)
D_ONE = Dyadic(1)


def half_power(exp: int) -> Dyadic:
    """``2**-exp`` as a dyadic."""
    return Dyadic(1, exp)
