"""Galois rings R = GR(4, d) = Z4[x]/(f) with trace, norm, Frobenius.

The modulus f is the Graeffe lift of an irreducible polynomial over F2: if
g is irreducible over F2 and ghat is its {0,1} lift, then ghat(x)*ghat(-x)
is an even polynomial q(x^2) over Z4 and f(y) = (-1)^deg * q(y) is the basic
irreducible modulus whose roots are Teichmuller units.

Elements are encoded as integers 0 .. 4^d-1: the element sum(c_i x^i) has
index sum(c_i 4^i).  All unary/binary operations are table lookups, which
keeps the exhaustive sweeps downstream fast.  The residue field k = F_{2^d}
uses bitmask encoding (bit i = coefficient of x^i), so k-addition is XOR.
"""
from __future__ import annotations

import itertools

# irreducible ground polynomials over F2 (coefficients low -> high, monic)
GROUND_POLYS = {
    1: (1, 1),          # x + 1
    2: (1, 1, 1),       # x^2 + x + 1
    3: (1, 1, 0, 1),    # x^3 + x + 1
    4: (1, 1, 0, 0, 1),  # x^4 + x + 1
}

MAX_D = 4


def _polmul(a, b, m=4):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % m
    return out


def _polmod(a, f, m=4):
    a = [x % m for x in a]
    d = len(f) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        if c:
            for j in range(len(f)):
                a[i - d + j] = (a[i - d + j] - c * f[j]) % m
    return a[:d]


def is_irreducible_f2(g) -> bool:
    """Brute-force irreducibility over F2 (degree <= 4 is all we need)."""
    deg = len(g) - 1
    if deg < 1 or g[-1] % 2 != 1:
        return False
    g2 = [c % 2 for c in g]
    for k in range(1, deg // 2 + 1):
        for lowbits in itertools.product((0, 1), repeat=k):
            h = list(lowbits) + [1]
            # trial division of g2 by h over F2
            r = list(g2)
            for i in range(len(r) - 1, k - 1, -1):
                if r[i]:
                    for j in range(k + 1):
                        r[i - k + j] ^= h[j]
            if not any(r[:k]):
                return False
    return True


def graeffe_lift(g) -> tuple:
    """Lift an irreducible g over F2 to the basic irreducible modulus over Z4."""
    d = len(g) - 1
    ghat = [c % 2 for c in g]
    gneg = [(c if i % 2 == 0 else -c) % 4 for i, c in enumerate(ghat)]
    p = _polmul(ghat, gneg)
    if any(c for c in p[1::2]):
        raise RuntimeError("Graeffe product is not even")
    sign = 1 if d % 2 == 0 else -1
    f = tuple((sign * p[2 * i]) % 4 for i in range(d + 1))
    if f[-1] != 1:
        raise RuntimeError("Graeffe lift is not monic")
    return f


class GaloisRing:
    """GR(4, d) with all element operations precomputed as tables."""

    def __init__(self, d: int):
        if not (1 <= d <= MAX_D):
            raise ValueError(f"d must be in 1..{MAX_D}, got {d}")
        modulus = graeffe_lift(GROUND_POLYS[d])
        if len(modulus) != d + 1 or modulus[-1] != 1:
            raise RuntimeError("modulus must be monic of degree d")
        if not is_irreducible_f2(modulus):
            raise RuntimeError("modulus does not reduce to an irreducible over F2")
        self.d = d
        self.modulus = modulus
        self.size = 4 ** d
        self.field_size = 2 ** d
        self.one = self.from_coords([1] + [0] * (d - 1))
        self.two = self.from_coords([2] + [0] * (d - 1))
        self._build_tables()

    # -- coordinates ------------------------------------------------------
    def coords(self, idx: int):
        return tuple((idx >> (2 * i)) & 3 for i in range(self.d))

    def from_coords(self, cs):
        return sum((c % 4) << (2 * i) for i, c in enumerate(cs))

    def _build_tables(self):
        d, size = self.d, self.size
        coords = [self.coords(i) for i in range(size)]
        f = list(self.modulus)
        self._mul = [[0] * size for _ in range(size)]
        for a in range(size):
            pa = list(coords[a])
            for b in range(a, size):
                p = _polmod(_polmul(pa, list(coords[b])), f)
                v = self.from_coords(p)
                self._mul[a][b] = v
                self._mul[b][a] = v
        self._neg = [self.from_coords([-c for c in coords[a]]) for a in range(size)]
        self._add = [[self._raw_add(a, b) for b in range(size)] for a in range(size)]
        # Frobenius: substitution x -> x^2 (the unique lift of y -> y^2)
        self._frob = []
        for a in range(size):
            acc = [0]
            for c in reversed(coords[a]):
                acc = _polmod(_polmul(acc, [0, 0, 1]), f)
                acc = [(u + v) % 4 for u, v in itertools.zip_longest(acc, [c], fillvalue=0)]
            self._frob.append(self.from_coords(acc))
        self._trace = []
        for a in range(size):
            t, cur = 0, a
            for _ in range(d):
                t = self.add(t, cur)
                cur = self._frob[cur]
            tc = self.coords(t)
            if any(tc[1:]):
                raise RuntimeError("trace escaped the prime subring")
            self._trace.append(tc[0])
        self.units = tuple(a for a in range(size) if any(c % 2 for c in coords[a]))
        self._inv = {}
        for a in self.units:
            for b in self.units:
                if self._mul[a][b] == self.one:
                    self._inv[a] = b
                    break
        self.unit_squares = frozenset(self._mul[u][u] for u in self.units)
        # residue field tables (bitmask encoding)
        self._fmul = [
            [self.reduce(self._mul[self.lift(x)][self.lift(y)])
             for y in range(self.field_size)]
            for x in range(self.field_size)
        ]

    # -- ring operations (integer indices in, integer indices out) ----------
    def _raw_add(self, a: int, b: int) -> int:
        s = 0
        for i in range(self.d):
            s |= ((((a >> (2 * i)) & 3) + ((b >> (2 * i)) & 3)) & 3) << (2 * i)
        return s

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def is_unit(self, a: int) -> bool:
        return a in self._inv

    def inv(self, a: int) -> int:
        try:
            return self._inv[a]
        except KeyError:
            raise ZeroDivisionError(f"element {self.coords(a)} is not a unit") from None

    def trace(self, a: int) -> int:
        return self._trace[a]

    def norm(self, a: int) -> int:
        if not self.is_unit(a):
            raise ZeroDivisionError("norm is only defined on units here")
        r, cur = self.one, a
        for _ in range(self.d):
            r = self._mul[r][cur]
            cur = self._frob[cur]
        rc = self.coords(r)
        if any(rc[1:]):
            raise RuntimeError("norm escaped the prime subring")
        return rc[0]

    def psi_exp(self, a: int) -> int:
        """Exponent e with psi(a) = i^e; the workhorse for hot loops."""
        return self._trace[a]

    # -- residue field ------------------------------------------------------
    def reduce(self, a: int) -> int:
        """Ring element -> residue field bitmask."""
        m = 0
        for i in range(self.d):
            m |= (((a >> (2 * i)) & 1)) << i
        return m

    def lift(self, m: int) -> int:
        """The {0,1}-coordinate section of reduce (not a ring map)."""
        a = 0
        for i in range(self.d):
            a |= ((m >> i) & 1) << (2 * i)
        return a

    def field_mul(self, x: int, y: int) -> int:
        return self._fmul[x][y]

    def two_torsion(self):
        """The ideal 2R, as element indices; m -> 2*lift(m) is a bijection
        from the residue field."""
        return tuple(sorted(self._mul[self.two][self.lift(m)] for m in range(self.field_size)))

    def disc_class(self, u: int) -> int:
        """Canonical representative of a unit modulo squares of units."""
        if not self.is_unit(u):
            raise ZeroDivisionError("discriminant class of a non-unit")
        return min(self._mul[u][s] for s in self.unit_squares)

    def __repr__(self):
        return f"GaloisRing(d={self.d}, modulus={list(self.modulus)})"


_CACHE = {}


def ring(d: int) -> GaloisRing:
    """Shared per-degree ring instance (tables are expensive to rebuild)."""
    if d not in _CACHE:
        _CACHE[d] = GaloisRing(d)
    return _CACHE[d]
