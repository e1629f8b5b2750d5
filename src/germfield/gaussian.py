"""Exact Gaussian-rational arithmetic: the coefficient field Q(i).

A GaussianRational stores (a + b*i)/d as three Python ints, normalized so that
d > 0 and gcd(a, b, d) = 1: equal values have equal fields.  A product costs
four int products and one gcd, and a sum over a common denominator needs no
cross-multiplication.  The read-only properties re and im give the parts as
Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

RationalLike = int | Fraction

_gcd = math.gcd
_new = object.__new__


def _make(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d from ints that are already normalized (d > 0, gcd 1)."""
    g = _new(GaussianRational)
    g._a, g._b, g._d = a, b, d
    return g


def _reduce(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d for any d > 0."""
    if d != 1:
        g = _gcd(a, b, d)
        if g != 1:
            return _make(a // g, b // g, d // g)
    return _make(a, b, d)


def over_common_denominator(values) -> tuple[int, list[tuple[int, int]]]:
    """(D, [(a, b), ...]) writing each of the values as (a + b*i)/D, where D is
    the lcm of their denominators: numerators for fraction-free loops."""
    d = math.lcm(*(v._d for v in values))
    return d, [(v._a * (m := d // v._d), v._b * m) for v in values]


def _add(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int) -> "GaussianRational":
    """(a1 + b1*i)/d1 + (a2 + b2*i)/d2 for normalized operands."""
    if d1 == d2:
        return _reduce(a1 + a2, b1 + b2, d1)
    g = _gcd(d1, d2)
    s, t = d1 // g, d2 // g
    a, b = a1 * t + a2 * s, b1 * t + b2 * s
    # over the lcm s * d2 only primes of g can divide a, b and the lcm together
    h = _gcd(a, b, g)
    return _make(a // h, b // h, s * (d2 // h))


class GaussianRational:
    """An element of Q(i), immutable and hashable."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            # over d = lcm of the denominators the numerators share no factor with d
            d = math.lcm(dr := re.denominator, di := im.denominator)
            self._a, self._b, self._d = re.numerator * (d // dr), im.numerator * (d // di), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_rational(self) -> bool:
        return not self._b

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    # -- field arithmetic ------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return _add(self._a, self._b, self._d, other._a, other._b, other._d)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return _add(self._a, self._b, self._d, -other._a, -other._b, other._d)

    def __rsub__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "GaussianRational":
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other) -> "GaussianRational":
        if type(other) is int:
            return _reduce(self._a * other, self._b * other, self._d)
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduce(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        a2, b2 = other._a, other._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        # x / y = x * conj(y) * d2 / |a2 + b2 i|^2
        a1, b1, d2 = self._a, self._b, other._d
        return _reduce((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * n)

    def __rtruediv__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return ONE / (self ** (-k))
        result, base = ONE, self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure -------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """re^2 + im^2 (the field norm down to Q)."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def sqrt(self) -> "GaussianRational | None":
        """An exact square root within Q(i), or None when none exists."""
        # self = (p + q*i)/d^2 with p + q*i in Z[i], so a root is (x + y*i)/d
        # with x + y*i in Z[i]: x^2 = (p + |p + q*i|)/2 and 2xy = q; the root
        # with x > 0 is returned, or the one with y > 0 when x = 0
        d = self._d
        p, q = self._a * d, self._b * d
        n = math.isqrt(p * p + q * q)
        x = math.isqrt((p + n) // 2)
        root = _reduce(x, q // (2 * x), d) if x else _reduce(0, math.isqrt(n), d)
        return root if root * root == self else None

    def sort_key(self) -> tuple[Fraction, Fraction]:
        """Deterministic total order on Q(i) used for stable output."""
        return (self.re, self.im)

    # -- comparison / hashing / display ----------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        # a real value hashes as the int or Fraction it equals
        a, b, d = self._a, self._b, self._d
        if b:
            return hash((a, b, d))
        return hash(a) if d == 1 else hash(Fraction(a, d))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def _coerce(value) -> GaussianRational:
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return NotImplemented


def gq(re: RationalLike = 0, im: RationalLike = 0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
