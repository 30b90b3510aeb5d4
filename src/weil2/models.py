"""Model spaces of the Heisenberg representation and the canonical
intertwiners between them.

For an enhanced Lagrangian (L, alpha) the model H_L consists of functions
on H(V) with
    f((l, z) * h) = psi(z - alpha(l)) f(h),
where psi(x) = i^{tr x} is the additive character of central character
psi.  Such f is determined by its values on (t, 0) for t in a fixed
transversal T_L of L in V (the span of the non-pivot standard basis
vectors, in lexicographic order).  An EnhancedLagrangian stands for its
model, and SympSpace.transversal holds T_L once per pivot set, packed.
Everything here reads alpha only through the psi digits psi_exp(alpha(l))
in Z/4 by span position: the operators through Subspace.index, the
character sum at the span positions of SympSpace.r_terms.

The right translation pi_L(h) f = f(. h) and the P_a of weil read f by one
packed rule, `monomial_operator`, with one psi-entry per matrix row.
Between two models the canonical intertwiner is averaging over the source
Lagrangian:
    (F_{M,L} f)(h) = sum_{m in M} f((m, alpha_M(m)) * h).
Its term m in row t_M needs the split of m + t_M along L; the split is
k-linear, so each m and each t_M is split once per matrix, on packed
vectors (see symplectic).
Operators are ZiMatrix values: a unit zeta^e sqrt2^s times a
Gaussian-integer matrix.  For a transversal pair every matrix entry of
F_{M,L} is a single fourth root of unity, and the composition route to the
association scalar is the ZiMatrix product F_{N,M} F_{M,L} divided by
F_{N,L}.
Every ZiMatrix product, inverses included, goes through one packed kernel
(`_zi_rows`): each row of the right operand, and i times it, is packed
once per matrix into one int of fixed-width slots, and each output row is
one integer linear combination of those ints (Kronecker substitution).
`@` reads the rows back slot by slot; a check that builds a product only
to compare it (`product_ratio`: cocycles, coboundaries, route 1, the
transport checks) compares the packed rows with the target's instead, and
unpacks one entry.  Ratios between operators compare packed rows the same
way (`_packed_proportion`).  Every ratio is a monomial zeta^e sqrt2^s read
by one rule, `gaussian_monomial`, on Gaussian integers, and stays an
exponent pair (e, s) until output.
The three routes give the association scalar as a Gaussian integer
(re, im), route 1 through `monomial_gaussian`; `gaussian_mul` multiplies.
"""
from __future__ import annotations

from typing import NamedTuple

from . import linalg
from .cyclotomic import Cyc8


def monomial_operator(e, points):
    """The monomial ZiMatrix whose row r reads f in the model of e at the
    r-th point (v, z) of H(V), given as (pack(v), psi_exp(z)):
        f((v, z)) = psi(z - alpha(l) - beta(l, t)) f((t, 0)),
    with l = split(pack(v)), t = pack(v) ^ l in the transversal, and
    psi_exp(beta(l, t)) = 2 parity(l & trace_mask(t))."""
    split, index, psi = e.span.split, e.span.index, e.psi
    columns = e.space.transversal(e.pivots)
    entries = []
    for v, z in points:
        l = split(v)
        j, T = columns[v ^ l]
        entries.append((z - psi[index[l]] - 2 * ((l & T).bit_count() & 1), j))
    return ZiMatrix.monomial(entries, len(columns))


def pi_matrix(e, h):
    """pi_L(h) f = f(. h) on the model of e, L = e.span, for h = (packed v,
    z): row t reads f at (t, 0) (v, z) = (t + v, z + beta(t, v))."""
    sp = e.space
    v, z = h
    x, T = sp.R.psi_exp(z), sp.trace_mask(v)
    return monomial_operator(e, ((t ^ v, x + 2 * ((t & T).bit_count() & 1))
                                 for t in sp.transversal(e.pivots)))


def intertwiner_matrix(eM, eL):
    """F_{M,L} as a ZiMatrix; works for any pair (entries are Z[i] sums
    over the fibre of m + t_M + t_L in L).  The term m of row t_M is
    psi(alpha_M(m) + beta(m, t_M) - alpha_L(l) - beta(l, t_L)), where
    m + t_M = l + t_L with l in L.  On packed vectors, with T the trace
    mask of symplectic, its exponent is
        psi_exp(alpha_M(m)) - psi_exp(alpha_L(l))
            + 2 (parity(m & T(t_M)) xor parity(l & T(t_L)))   mod 4.
    The split along L is k-linear, so each m and each t_M is split once per
    matrix and the term's split is the XOR of the two."""
    sp = eM.space
    split, index, aL = eL.span.split, eL.span.index, eL.psi
    cols = sp.transversal(eL.pivots)
    split_m = []
    for m, am in zip(eM.span.packed, eM.psi):
        l = split(m)
        split_m.append((m, am, l, m ^ l))
    split_t = []
    for v, (_, T_M) in sp.transversal(eM.pivots).items():
        l = split(v)
        split_t.append((T_M, l, v ^ l))
    if any(l not in index for *_, l, _ in split_m + split_t):
        raise RuntimeError("split left the Lagrangian")
    out = []
    for T_M, l_t, t_t in split_t:
        row = [[0, 0, 0, 0] for _ in range(len(cols))]
        for m, am, l_m, t_m in split_m:
            l = l_m ^ l_t
            j, T_L = cols[t_m ^ t_t]
            parity = ((m & T_M) ^ (l & T_L)).bit_count() & 1
            row[j][(am - aL[index[l]] + 2 * parity) % 4] += 1
        out.append(tuple((c[0] - c[2], c[1] - c[3]) for c in row))
    return ZiMatrix(0, 0, out)


# -- exact operators ---------------------------------------------------------------
# Every operator of the models -> transports -> Weil layers is a unit monomial
# times a Gaussian-integer matrix: pi(h) and P_a are monomial with mu4
# entries, intertwiners have Z[i] entries, and every root and transport
# scalar is zeta^e sqrt2^s.  So an operator is kept as that triple, every
# scalar as its exponent pair (e, s), every cocycle value and Gauss sum as a
# Gaussian integer (re, im), and Cyc8 numbers are built only for output.

_I_POW = ((1, 0), (0, 1), (-1, 0), (0, -1))


def monomial_cyc(e, s):
    """zeta^e sqrt2^s as a Cyc8."""
    t, odd = divmod(s, 2)
    c = [0, 0, 0, 0]
    # sqrt2 = z - z^3
    for k, sign in (((e + 1, 1), (e + 3, -1)) if odd else ((e, 1),)):
        k %= 8
        c[k % 4] += sign if k < 4 else -sign
    if t >= 0:
        return Cyc8([x << t for x in c])
    return Cyc8(c, 1 << -t)


def gaussian_monomial(p, q):
    """(e, s) with p / q = zeta^e sqrt2^s for Gaussian integers p and q, e in
    0..7; None when p / q is not of that form, p or q zero included.

    zeta sqrt2 = 1 + i, so the test is p = i^k (1 + i)^b q, with e = 2k + b
    and s = b; it forces |p|^2 = 2^b |q|^2, so b is the difference of the
    bit lengths of the two norms.  With b = 2t + o, o in {0, 1}, and
    (1 + i)^2 = 2i it reads 2^-t p = i^(k + t) (1 + i)^o q, and then
    e = 2(k + t) + o."""
    (pr, pi), (qr, qi) = p, q
    if not (qr or qi):
        return None
    b = (pr * pr + pi * pi).bit_length() - (qr * qr + qi * qi).bit_length()
    t, o = divmod(b, 2)
    if o:
        qr, qi = qr - qi, qr + qi
    if t > 0:
        qr, qi = qr << t, qi << t
    else:
        pr, pi = pr << -t, pi << -t
    for c, rot in enumerate(((qr, qi), (-qi, qr), (-qr, -qi), (qi, -qr))):
        if (pr, pi) == rot:
            return (2 * c + o) % 8, b
    return None


def monomial_gaussian(e, s):
    """zeta^e sqrt2^s as a Gaussian integer (re, im), the inverse of
    gaussian_monomial(., (1, 0)); None when it is not one (s < 0, or e - s
    odd).  With s = 2t + o it is 2^t i^((e - s) / 2 + t) (1 + i)^o."""
    if s < 0 or (e - s) % 2:
        return None
    t, o = divmod(s, 2)
    re, im = _I_POW[((e - s) // 2 + t) % 4]
    if o:
        re, im = re - im, re + im
    return re << t, im << t


def gaussian_mul(p, q):
    """The product of the Gaussian integers p and q."""
    (pr, pi), (qr, qi) = p, q
    return pr * qr - pi * qi, pr * qi + pi * qr


def _slot_width(bits):
    """bits rounded up to a multiple of 8, so that operators of about one
    size share their packs."""
    return -(-bits // 8) * 8


def _product_bits(X, Y):
    """A bound b(X Y) on the bit length of every part of X Y: each part is
    below k 2^(b(X) + b(Y) + 1), with k the inner dimension and b(.) the
    bit length of the largest real or imaginary part."""
    return X._entry_bits() + Y._entry_bits() + len(Y.rows).bit_length() + 1


def _zi_rows(X, PQ):
    """The packed rows of X Y, for PQ the packs of Y at a slot width W
    (Y._packed): row r is the int sum_k re(X[r][k]) P_k + im(X[r][k]) Q_k
    (Kronecker substitution), signed and with no bias, which is
    sum_j re((X Y)[r][j]) 2^(2jW) + im((X Y)[r][j]) 2^((2j+1)W) at any W.
    The one product kernel: `@` and `product_ratio` both read it."""
    out = []
    for row in X.rows:
        acc = 0
        for (ar, ai), (p, q) in zip(row, PQ):
            acc += ar * p + ai * q
        out.append(acc)
    return out


def _zi_product(X, Y):
    """The Z[i] rows of X Y, read back from `_zi_rows` slot by slot.  At
    W = b(X Y) + 1, rounded up, every part is below 2^(W-1) in absolute
    value; the bias adds 2^(W-1) to every slot, so no slot is negative and
    none borrows from the next."""
    width = _slot_width(_product_bits(X, Y) + 1)
    PQ, bias = Y._packed(width)
    half, mask = 1 << (width - 1), (1 << width) - 1
    shifts = range(0, 2 * width * len(Y.rows[0]), 2 * width)
    return tuple(tuple((((acc >> s) & mask) - half,
                        ((acc >> (s + width)) & mask) - half) for s in shifts)
                 for acc in (a + bias for a in _zi_rows(X, PQ)))


def _packed_proportion(rows, width, Z):
    """(p, q) with X q == Z p, for the Z[i] matrix X whose packed rows at
    slot width `width` are `rows` (one int per row, as `_zi_rows` gives
    them), q the first nonzero entry of Z and p the entry of X there; None
    when Z is zero or X is not proportional to it.

    Only p is unpacked, with the bias of `_zi_product`.  X q == Z p exactly
    when X |q|^2 == c Z for c = p conj(q), as conj(q) != 0, which on packed
    rows is one integer test per row against Z's packs (P_r, Q_r):
        rows[r] |q|^2 == re(c) P_r + im(c) Q_r.
    Equal ints mean equal slots when width >= b(X) + 2 b(Z) + 2.  Proof:
    let S = 2^b(X) - 1 and T = 2^b(Z) - 1 bound the parts of the entries x
    of X and z of Z.  For Gaussian integers u and v,
    |re(u v)| + |im(u v)| <= 2 |u|_oo |v|_oo (the sum and the difference of
    the two parts are each at most that), and a part of u w is at most
    |u|_oo (|re w| + |im w|).  So every part of c z = p (conj(q) z) is at
    most 2 S T^2, and so is every part of x |q|^2, as |q|^2 <= 2 T^2.  The
    slot differences d_j of the two sides are at most
    4 S T^2 < 2^(b(X) + 2 b(Z) + 2) <= 2^width, and if
    sum_j d_j 2^(j width) = 0 with some d_j != 0, the lowest such d_j is a
    nonzero multiple of 2^width, which it is too small to be."""
    first = Z._anchor()
    if first is None:
        return None
    r0, j0, q = first
    PQ, bias = Z._packed(width)
    half, mask, at = 1 << (width - 1), (1 << width) - 1, 2 * j0 * width
    acc = rows[r0] + bias
    p = ((acc >> at) & mask) - half, ((acc >> (at + width)) & mask) - half
    (pr, pi), (qr, qi) = p, q
    n, cr, ci = qr * qr + qi * qi, pr * qr + pi * qi, pi * qr - pr * qi
    for a, (P, Q) in zip(rows, PQ):
        if a * n != cr * P + ci * Q:
            return None
    return p, q


def _packed_ratio(rows, width, e, s, Z):
    """(e', s') with zeta^e sqrt2^s X == zeta^e' sqrt2^s' Z, e' in 0..7,
    for X as in `_packed_proportion`, by `gaussian_monomial` on its
    (p, q); None when X or Z is zero or the ratio is no such monomial."""
    pq = _packed_proportion(rows, width, Z)
    r = None if pq is None else gaussian_monomial(*pq)
    if r is None:
        return None
    return (r[0] + e - Z.zeta_exp) % 8, r[1] + s - Z.sqrt2_exp


def mu4_exponent(r):
    """The c in 0..3 with zeta^e sqrt2^s = i^c for r = (e, s); None when r
    is None or no power of i."""
    if r is None or r[1] or r[0] % 2:
        return None
    return r[0] // 2


class ZiMatrix:
    """The exact matrix zeta^zeta_exp * sqrt2^sqrt2_exp * rows, where rows is
    a tuple of row tuples of Gaussian integers (re, im).

    Two values are equal when the matrices they stand for are, whatever
    their triples.  Products add exponents and multiply the Z[i] parts in
    one packed kernel (`_zi_rows`); inverses go by the adjoint; `ratio`
    gives the exponents (e, s) of zeta^e sqrt2^s between proportional
    operators by `gaussian_monomial`, on packed rows, and `mu4_ratio` and
    `==` read it; `product_ratio` is the ratio of a product, compared on
    its packed rows without building it, and `intertwines` compares two
    products the same way; `trace` is the trace of the Z[i]
    part; `to_cyc` gives the dense Cyc8 matrix for output.  The entry bit
    bound, the first nonzero entry and the packed rows are memoized on the
    instance, since the value is immutable."""

    __slots__ = ("zeta_exp", "sqrt2_exp", "rows", "_bits", "_first", "_packs")

    def __init__(self, zeta_exp, sqrt2_exp, rows):
        object.__setattr__(self, "zeta_exp", zeta_exp % 8)
        object.__setattr__(self, "sqrt2_exp", sqrt2_exp)
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))

    def __setattr__(self, *_):
        raise AttributeError("ZiMatrix is immutable")

    def _entry_bits(self):
        """The bit length of the largest real or imaginary part."""
        try:
            return self._bits
        except AttributeError:
            bits = max((abs(x) for row in self.rows for z in row for x in z),
                       default=0).bit_length()
            object.__setattr__(self, "_bits", bits)
            return bits

    def _anchor(self):
        """(r, j, q) for the first nonzero entry q, in row r and column j;
        None when every entry is zero."""
        try:
            return self._first
        except AttributeError:
            first = next(((r, j, z) for r, row in enumerate(self.rows)
                          for j, z in enumerate(row) if z != (0, 0)), None)
            object.__setattr__(self, "_first", first)
            return first

    def _packed(self, width):
        """(PQ, bias) at slot width `width`: PQ holds the pair (P_k, Q_k)
        of each row k, the packs of the row and of i times it, and bias is
        2^(width-1) in every slot of a row."""
        try:
            memo = self._packs
        except AttributeError:
            memo = {}
            object.__setattr__(self, "_packs", memo)
        packs = memo.get(width)
        if packs is None:
            cols = len(self.rows[0])
            starts = range(0, 2 * width * cols, 2 * width)
            PQ = []
            for row in self.rows:
                p = q = 0
                for s, (re, im) in zip(starts, row):
                    p += (re << s) + (im << (s + width))
                    q += (re << (s + width)) - (im << s)
                PQ.append((p, q))
            bias = ((1 << (width - 1)) * ((1 << (2 * width * cols)) - 1)
                    // ((1 << width) - 1))
            packs = memo[width] = (PQ, bias)
        return packs

    @staticmethod
    def monomial(entries, cols):
        """The Z[i] matrix with one i^e per row: entries is (e, column) per
        row."""
        zero = (0, 0)
        rows = []
        for e, j in entries:
            row = [zero] * cols
            row[j] = _I_POW[e % 4]
            rows.append(tuple(row))
        return ZiMatrix(0, 0, rows)

    @property
    def shape(self):
        return len(self.rows), len(self.rows[0])

    def __matmul__(self, other):
        if not isinstance(other, ZiMatrix):
            return NotImplemented
        if len(self.rows[0]) != len(other.rows):
            raise ValueError(f"shapes {self.shape} and {other.shape} do not chain")
        return ZiMatrix(self.zeta_exp + other.zeta_exp,
                        self.sqrt2_exp + other.sqrt2_exp,
                        _zi_product(self, other))

    def scaled(self, e, s):
        """zeta^e sqrt2^s * self."""
        return ZiMatrix(self.zeta_exp + e, self.sqrt2_exp + s, self.rows)

    def kron(self, other):
        """The Kronecker product: entry (i b + k, j b' + l) is
        self[i][j] * other[k][l]."""
        rows = []
        for ra in self.rows:
            for rb in other.rows:
                rows.append(tuple((ar * br - ai * bi, ar * bi + ai * br)
                                  for ar, ai in ra for br, bi in rb))
        return ZiMatrix(self.zeta_exp + other.zeta_exp,
                        self.sqrt2_exp + other.sqrt2_exp, rows)

    def adjoint(self):
        """The conjugate transpose."""
        return ZiMatrix(-self.zeta_exp, self.sqrt2_exp,
                        [tuple((re, -im) for re, im in col)
                         for col in zip(*self.rows)])

    def inverse(self):
        """A^{-1} = A* / c from A A* = c I.  Raises ValueError unless the
        Z[i] part satisfies that with c a power of 2 (so that the inverse is
        again of this form).  A A* is summed by row inner products, not by
        `_zi_rows`, so a faulty kernel shows in the products checked."""
        n, m = self.shape
        if n != m:
            raise ValueError("A A* is not a nonzero scalar matrix")
        adj = self.adjoint()
        P = [[(sum(ar * br + ai * bi for (ar, ai), (br, bi) in zip(x, y)),
               sum(ai * br - ar * bi for (ar, ai), (br, bi) in zip(x, y)))
              for y in self.rows] for x in self.rows]
        c = P[0][0][0]
        k = c.bit_length() - 1
        if c <= 0 or any(P[i][j] != ((c, 0) if i == j else (0, 0))
                         for i in range(n) for j in range(n)):
            raise ValueError("A A* is not a nonzero scalar matrix")
        if c != 1 << k:
            raise ValueError(f"A A* = {c} I: not a power of 2")
        return ZiMatrix(-self.zeta_exp, -self.sqrt2_exp - 2 * k, adj.rows)

    def ratio(self, other):
        """(e, s) with self == zeta^e sqrt2^s * other, e in 0..7, or None
        when either is zero or the ratio is no such monomial: the packed
        comparison of `_packed_proportion`, on self's own packed rows."""
        if self.shape != other.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} differ")
        width = _slot_width(self._entry_bits() + 2 * other._entry_bits() + 2)
        return _packed_ratio([P for P, _ in self._packed(width)[0]], width,
                             self.zeta_exp, self.sqrt2_exp, other)

    def product_ratio(self, other, target):
        """(self @ other).ratio(target), without building self @ other: its
        packed rows from `_zi_rows` go straight into `_packed_ratio`, at a
        width from the bound b(self @ other) of `_product_bits`."""
        shape = len(self.rows), len(other.rows[0])
        if len(self.rows[0]) != len(other.rows):
            raise ValueError(f"shapes {self.shape} and {other.shape} do not chain")
        if shape != target.shape:
            raise ValueError(f"shapes {shape} and {target.shape} differ")
        width = _slot_width(_product_bits(self, other)
                            + 2 * target._entry_bits() + 2)
        return _packed_ratio(_zi_rows(self, other._packed(width)[0]), width,
                             self.zeta_exp + other.zeta_exp,
                             self.sqrt2_exp + other.sqrt2_exp, target)

    def intertwines(self, Y, Z):
        """Whether self @ Y == Z @ self, compared as the packed rows
        (`_zi_rows`) of the two Z[i] products at one slot width; neither
        product is built.

        Precondition: Y and Z have exponents (0, 0).  The two sides are
        then self's monomial times their Z[i] products, so they are equal
        exactly when the products are.  A pair that breaks the
        precondition fails, as its Z[i] parts may differ by a unit while
        the operators agree.

        Width: b = max of `_product_bits` over the two products bounds the
        bit length of every part of either, so each part is below 2^b in
        absolute value and the difference d_j of the two products' parts in
        slot j is at most 2^(b+1) - 2 < 2^width for width >= b + 1.  The
        signed packed rows are sum_j x_j 2^(j width) on each side; if they
        are equal while some d_j != 0, the lowest such d_j is a nonzero
        multiple of 2^width, which it is too small to be.  So equal ints
        mean equal parts."""
        if self.shape != Y.shape or Y.shape != Z.shape:
            raise ValueError(
                f"shapes {self.shape}, {Y.shape} and {Z.shape} differ")
        if (Y.zeta_exp, Y.sqrt2_exp, Z.zeta_exp, Z.sqrt2_exp) != (0, 0, 0, 0):
            return False
        width = _slot_width(max(_product_bits(self, Y),
                                _product_bits(Z, self)) + 1)
        return (_zi_rows(self, Y._packed(width)[0])
                == _zi_rows(Z, self._packed(width)[0]))

    def mu4_ratio(self, other):
        """The c in 0..3 with self == i^c * other, or None when there is no
        such c."""
        return mu4_exponent(self.ratio(other))

    def __eq__(self, other):
        if not isinstance(other, ZiMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        r = self.ratio(other)
        if r is None:
            return other.is_zero() and self.is_zero()
        return r == (0, 0)

    def is_zero(self):
        return self._anchor() is None

    def trace(self):
        """The trace of the Z[i] part, a Gaussian integer (re, im); the
        operator's trace is zeta^zeta_exp sqrt2^sqrt2_exp times it."""
        re = im = 0
        for i, row in enumerate(self.rows):
            x, y = row[i]
            re, im = re + x, im + y
        return re, im

    def to_cyc(self):
        """The dense matrix of Cyc8 entries."""
        u = monomial_cyc(self.zeta_exp, self.sqrt2_exp)
        return tuple(tuple(u * Cyc8((re, 0, im, 0)) for re, im in row)
                     for row in self.rows)

    def __repr__(self):
        return (f"ZiMatrix(zeta^{self.zeta_exp} sqrt2^{self.sqrt2_exp}, "
                f"{self.rows})")


# -- the three routes to the association scalar ---------------------------------

def composition_scalar(space, eN, eM, eL):
    """Route 1: compose F_{N,M} F_{M,L} and divide by F_{N,L}, checking full
    proportionality, as a Gaussian integer (re, im); None when the
    composite is not a monomial zeta^e sqrt2^s in Z[i] times the target,
    which the three-route check counts as a disagreement.
    Requires all three pairs transversal."""
    for a, b in ((eN, eM), (eM, eL), (eN, eL)):
        if not space.transversal_k(a.rows, b.rows):
            raise ValueError("composition route requires a transversal pair")
    r = intertwiner_matrix(eN, eM).product_ratio(
        intertwiner_matrix(eM, eL), intertwiner_matrix(eN, eL))
    return None if r is None else monomial_gaussian(*r)


def formula_scalar(space, eN, eM, eL):
    """Route 2: the quadratic character sum
    C = sum_{m in M} psi(alpha_M(m) + alpha_N(r(m)) - alpha_L(m - r(m))
                         - beta(m, r(m))),
    with r the projection onto N along L, through the CharacterSum of the
    subspace triple; a Gaussian integer (re, im)."""
    k = CharacterSum(space, eM.rows, eN.rows, eL.rows)
    return k.value(k.pack_N(eN) + k.pack_M(eM) + k.pack_L(eL))


class CharacterSum:
    """Route 2 over one subspace triple (M, N, L), with the enhancements as
    packed Z/4 digit vectors.

    psi is an additive character, so the psi-exponent of the term at m_j
    (the j-th element of M in span order) is a sum mod 4 of three digits,
    one per enhancement:
        eM: psi_exp(alpha_M(m_j)) - psi_exp(beta(m_j, r(m_j)))
        eN: psi_exp(alpha_N(r(m_j)))
        eL: -psi_exp(alpha_L(m_j - r(m_j)))
    Each enhancement's psi digits are read at the span positions that
    space.r_terms gives for m_j, r(m_j) and m_j - r(m_j).  Each pack_*
    reduces its digits mod 4 and puts digit j in bits 4j..4j+3 of one int.
    The sum of one pack of each kind holds at most 9 < 16 per field, so no
    carry crosses a field, and bits 0 and 1 of field j are the term's
    exponent mod 4; `value` counts the exponents by popcount into a
    Gaussian integer (re, im).
    `values` sweeps enhanced triples over the subspace triple: it packs
    each enhancement once and pays two int additions and one `value` per
    enhanced triple."""

    __slots__ = ("size", "_rows", "_m", "_n", "_l", "_ones")

    def __init__(self, space, M_rows, N_rows, L_rows):
        terms = space.r_terms(M_rows, N_rows, L_rows)
        self._rows = (tuple(M_rows), tuple(N_rows), tuple(L_rows))
        self.size = len(terms)
        shifts = range(0, 4 * self.size, 4)
        self._m = tuple((m, b, s) for (m, _, _, b), s in zip(terms, shifts))
        self._n = tuple((rm, s) for (_, rm, _, _), s in zip(terms, shifts))
        self._l = tuple((lm, s) for (_, _, lm, _), s in zip(terms, shifts))
        # bit 0 of every field
        self._ones = sum(1 << s for s in shifts)

    def _psi(self, e, i, name):
        if e.rows != self._rows[i]:
            raise ValueError(f"enhancement is not over {name}")
        return e.psi

    def pack_M(self, eM):
        a = self._psi(eM, 0, "M")
        return sum(((a[m] - b) % 4) << s for m, b, s in self._m)

    def pack_N(self, eN):
        a = self._psi(eN, 1, "N")
        return sum(a[rm] << s for rm, s in self._n)

    def pack_L(self, eL):
        a = self._psi(eL, 2, "L")
        return sum((-a[lm] % 4) << s for lm, s in self._l)

    def value(self, packed):
        """C for a sum of one pack of each kind.  With lo and hi the bits 0
        and 1 of the fields, n1 + n3 = |lo|, n2 + n3 = |hi| and
        n3 = |lo & hi|, where n_e counts the terms with exponent e, and
        C = (n0 - n2) + i (n1 - n3)."""
        lo = packed & self._ones
        hi = (packed >> 1) & self._ones
        a, b, c = lo.bit_count(), hi.bit_count(), (lo & hi).bit_count()
        return self.size - a - 2 * b + 2 * c, a - 2 * c

    def values(self, eNs, eMs, eLs):
        """C for every (eN, eM, eL) of the three enhancement lists, in
        itertools.product order; each enhancement is packed once."""
        value = self.value
        packs_M = [self.pack_M(eM) for eM in eMs]
        packs_L = [self.pack_L(eL) for eL in eLs]
        for eN in eNs:
            pN = self.pack_N(eN)
            for pM in packs_M:
                pNM = pN + pM
                for pL in packs_L:
                    yield value(pNM + pL)


class LiftGauss(NamedTuple):
    """What route 3 and the oriented identity read of a free lift triple
    (Nt, Mt, Lt), built once per triple by `lift_gauss`: the canonical
    enhancements of Nt, Mt and Lt, the Gram matrix of the R-valued
    symmetric form omt_L(m1, m2) = omt(r^Lt(m1), m2) on Mt, and its Gauss
    sum G([Mt, tr omt_L]) as a Gaussian integer."""
    canon: tuple
    gram: tuple
    gauss: tuple


def lift_gauss(space, Nt, Mt, Lt):
    """The LiftGauss of the free lift triple (Nt, Mt, Lt), canonical bases.
    Imports witt on its first call, so that route 2 alone does not load
    it."""
    from .witt import gauss_sum, trace_form

    gram = space.omega_tilde_L_gram(Mt, Nt, Lt)
    if gram != linalg.transpose(gram):
        raise RuntimeError("omt_L must be symmetric")
    return LiftGauss(tuple(map(space.enhance_from_lift, (Nt, Mt, Lt))), gram,
                     gauss_sum(trace_form(space.R, gram)))


def gauss_scalar(space, eN, eM, eL, lifted):
    """Route 3: reduce the character sum to a Gauss character of omt_L on
    the free lift Mt of `lifted`, a LiftGauss of lifts over the three
    subspaces; any canonical lifts work, and their pivots are those of
    the subspaces.

    The lifts split Q into the lift part omt_L(mt, mt) plus a 2R-valued
    defect sigma, the enhancements' difference from the lifts' canonical
    ones; sigma matches a linear character psi(2 omt_L(mt_s, .)) and
    completes into the square, so
    C = psi(-omt_L(mt_s, mt_s)) * G([Mt, tr omt_L]) as the pair (re, im).
    None when sigma matches no linear character, which the three-route
    check counts as a disagreement, as it does route 1's None.  A
    ValueError when a canonical enhancement is over another subspace.
    """
    R, gram = space.R, lifted.gram
    pairs = tuple(zip((eN, eM, eL), lifted.canon))
    if any(c.rows != e.rows for e, c in pairs):
        raise ValueError("a lift is not over its enhancement's subspace")
    # psi digits of alpha minus those of the canonical enhancement of the
    # lift, over the same span: exact mod 4, as the trace is additive
    dN, dM, dL = ([x - y for x, y in zip(e.psi, c.psi)] for e, c in pairs)
    # psi-exponent of sigma(m_i), the enhancement part of the character sum
    # relative to the canonical enhancements, for the elements m_i of M in order
    sigma_exp = [(dM[i] + dN[j] - dL[k]) % 4
                 for i, j, k, _ in space.r_terms(eM.rows, eN.rows, eL.rows)]

    # ring coefficients of the {0,1}-coordinate lift of each m against Mt
    coeffs = [tuple(R.lift(m[p]) for p in eM.pivots)
              for m in map(space.unpack, eM.span.packed)]

    def gram_eval(a, b):
        s = 0
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        s = R.add(s, R.mul(ai, R.mul(gram[i][j], bj)))
        return s

    # match sigma against the linear characters 2 omt_L(mt_s, .)
    cs = next((cc for cc in coeffs
               if all(s == R.psi_exp(R.mul(R.two, gram_eval(cc, cm)))
                      for s, cm in zip(sigma_exp, coeffs))), None)
    if cs is None:
        return None

    shift = _I_POW[-R.psi_exp(gram_eval(cs, cs)) % 4]
    return gaussian_mul(shift, lifted.gauss)
