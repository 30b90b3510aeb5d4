"""Exact arithmetic in the cyclotomic field Q(zeta_8).

Elements are stored as integer coordinate vectors (a0, a1, a2, a3) over a
common positive denominator, representing

    (a0 + a1*z + a2*z^2 + a3*z^3) / den,      z = e^{2 pi i / 8},  z^4 = -1.

The library computes in the rings its values live in: character values as
Z/4 exponents, cocycle values and Gauss sums as Gaussian integers, operators
as zeta^e sqrt2^s times Gaussian-integer matrices.  Reports print them all
in Cyc8 coordinates: Cyc8 numbers are built only by the output encoders,
and no computation runs over Q(zeta_8).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd


class Cyc8:
    __slots__ = ("a", "den")

    def __init__(self, coeffs, den=1):
        a0, a1, a2, a3 = (int(c) for c in coeffs)
        den = int(den)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            a0, a1, a2, a3, den = -a0, -a1, -a2, -a3, -den
        if den != 1:
            g = gcd(gcd(gcd(abs(a0), abs(a1)), gcd(abs(a2), abs(a3))), den)
            if g > 1:
                a0, a1, a2, a3, den = a0 // g, a1 // g, a2 // g, a3 // g, den // g
        object.__setattr__(self, "a", (a0, a1, a2, a3))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("Cyc8 is immutable")

    # -- basic predicates ------------------------------------------------
    def is_zero(self) -> bool:
        return self.a == (0, 0, 0, 0)

    def is_rational(self) -> bool:
        return self.a[1] == self.a[2] == self.a[3] == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self!r}")
        return Fraction(self.a[0], self.den)

    # -- ring operations --------------------------------------------------
    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyc8):
            return x
        if isinstance(x, int):
            return Cyc8((x, 0, 0, 0))
        if isinstance(x, Fraction):
            return Cyc8((x.numerator, 0, 0, 0), x.denominator)
        return None

    def __add__(self, other):
        o = Cyc8._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.den, o.den
        return Cyc8(tuple(x * d2 + y * d1 for x, y in zip(self.a, o.a)), d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return Cyc8(tuple(-x for x in self.a), self.den)

    def __sub__(self, other):
        o = Cyc8._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = Cyc8._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = Cyc8._coerce(other)
        if o is None:
            return NotImplemented
        a0, a1, a2, a3 = self.a
        b0, b1, b2, b3 = o.a
        # multiplication mod z^4 + 1
        return Cyc8(
            (
                a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
                a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
                a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
                a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
            ),
            self.den * o.den,
        )

    __rmul__ = __mul__

    def galois(self, k: int) -> "Cyc8":
        """The Galois automorphism z -> z^k, k odd."""
        if k % 2 == 0:
            raise ValueError("Galois exponent must be odd")
        out = [0, 0, 0, 0]
        for i, c in enumerate(self.a):
            j = (i * k) % 8
            if j < 4:
                out[j] += c
            else:
                out[j - 4] -= c
        return Cyc8(out, self.den)

    def inverse(self) -> "Cyc8":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_8)")
        # product of the other Galois conjugates; self * cofactor is rational
        cofactor = self.galois(3) * self.galois(5) * self.galois(7)
        norm = (self * cofactor).rational_value()
        return cofactor / norm

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return Cyc8(tuple(x * q.denominator for x in self.a), self.den * q.numerator)
        if isinstance(other, Cyc8):
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = Cyc8((1, 0, 0, 0))
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- equality / hashing ------------------------------------------------
    def __eq__(self, other):
        o = Cyc8._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.den == o.den

    def __hash__(self):
        return hash((self.a, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.den == 1:
            return f"Cyc8{self.a}"
        return f"Cyc8{self.a}/{self.den}"

    def __str__(self):
        names = ["", "z", "z^2", "z^3"]
        terms = []
        for c, nm in zip(self.a, names):
            if c == 0:
                continue
            if nm == "":
                terms.append(str(c))
            elif c == 1:
                terms.append(nm)
            elif c == -1:
                terms.append("-" + nm)
            else:
                terms.append(f"{c}{nm}")
        s = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return s if self.den == 1 else f"({s})/{self.den}"

    # -- serialization ------------------------------------------------------
    def to_json(self):
        """Four coordinate strings "p/q" (a0..a3 over the common denominator)."""
        return [str(Fraction(c, self.den)) for c in self.a]


ZERO = Cyc8((0, 0, 0, 0))
ONE = Cyc8((1, 0, 0, 0))
I = Cyc8((0, 0, 1, 0))
ZETA = Cyc8((0, 1, 0, 0))
SQRT2 = Cyc8((0, 1, 0, -1))  # z + z^-1
