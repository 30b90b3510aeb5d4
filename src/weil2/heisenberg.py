"""The Heisenberg group H(V) = V x R attached to (V, beta), its enhanced
automorphism group ASp(V), and lifts from the symplectic groups Sp(Vt) and
Sp(V).

Multiplication uses the splitting cocycle beta:
    (v1, z1) * (v2, z2) = (v1 + v2, z1 + z2 + beta(v1, v2)),
so the commutator of (v, 0) and (w, 0) is (0, om(v, w)) and the center is
0 x R.  An element of H(V) is (packed v, z): v + w is an XOR, and beta
reads masks (SympSpace.beta).  An element of ASp(V) is a pair (g, alpha)
with g in Sp(V) and
    alpha(v1 + v2) - alpha(v1) - alpha(v2) = beta(g v1, g v2) - beta(v1, v2);
it acts on H(V) by (v, z) -> (g v, z + alpha(v)).  alpha is a table indexed
by packed v, filled from the unit generators by symplectic.fill_quadratic.

Sp(V) and Sp(Vt) are frames (linalg.frames) under one live rule,
linalg.gram_live, and ASp(V) is built from Sp(V).
Each enumeration, H(V)'s included, is a Group: refused above MAX_LISTING
elements predicted by group_order before its elements are listed, checked
against the same closed form, and carrying its product, positions and
Cayley table.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator

from . import linalg, symplectic
from .symplectic import (
    EnhancedLagrangian,
    Twists,
    _Keyed,
    _check_rank,
    _form_value,
    _refuse_above,
    fill_quadratic,
    polarizes,
)


# -- the group H(V) ---------------------------------------------------------

def h_mul(space, h1, h2):
    v1, z1 = h1
    v2, z2 = h2
    R = space.R
    return (v1 ^ v2, R.add(R.add(z1, z2), space.beta(v1, v2)))


def all_h_elements(space):
    """All of H(V), (packed v, z) in lexicographic order of (v, z):
    SympSpace.whole().packed lists V in lexicographic order."""
    return _enumerate_group(space, "H(V)", h_mul, lambda sp: itertools.product(
        sp.whole().packed, range(sp.R.size)))


# -- ASp(V) ------------------------------------------------------------------

class AspElement(_Keyed):
    """(g, alpha): a symplectic k-matrix g together with a compatible shift
    alpha of the center coordinate, stored as a table indexed by packed v
    next to act = SympSpace.action(g); key() is (g, alpha in lexicographic
    order of V), built once."""

    __slots__ = ("space", "g", "act", "alpha", "_key")

    def __init__(self, space, g, alpha, validate=True):
        self.space = space
        self.g = tuple(tuple(r) for r in g)
        self.act = space.action(self.g)
        self.alpha = tuple(alpha)
        if validate:
            self._validate()
        self._key = (self.g, tuple(map(self.alpha.__getitem__,
                                       space.whole().packed)))

    def _validate(self):
        """Compatibility on V x the unit generators: the all-pairs check by
        symplectic.polarizes, as beta(g., g.) - beta is biadditive."""
        sp = self.space
        if len(self.alpha) != len(self.act):
            raise ValueError("alpha must be total on V")
        if not polarizes(self.alpha, range(len(self.alpha)), sp.whole().gens,
                         _asp_pairing(sp, self.act, sp._two_lift), sp.R.sub):
            raise ValueError("alpha is not compatible with g")

    def apply_h(self, h):
        """The action on H(V)."""
        x, z = h
        return self.act[x], self.space.R.add(z, self.alpha[x])

    def key(self):
        return self._key

    def __repr__(self):
        return f"AspElement(g={self.g}, alpha={self.key()[1]})"


def _asp_pairing(space, act, values):
    """(x, j) -> values[b(g x, g u_j) - b(x, u_j)] on packed x, for b the
    k-valued residue of bt read at beta masks, the unit generators u_j of
    V and act the packed action of g.  values = space._two_lift gives
    beta(g x, g u_j) - beta(x, u_j)."""
    whole = space.whole()
    gmasks = [space.beta_masks(act[u]) for u in whole.gens]
    return lambda x, j: values[_form_value(act[x], gmasks[j])
                               ^ _form_value(x, whole.beta_masks[j])]


def asp_mul(space, a, b):
    """(g, alpha_g) (h, alpha_h) = (g h, alpha_g o h + alpha_h): apply b
    first, then a."""
    alpha = map(space.R.add, map(a.alpha.__getitem__, b.act), b.alpha)
    return AspElement(space, _sp_k_mul(space, a.g, b.g), alpha, validate=False)


def asp_inv(space, a):
    """(g, alpha)^-1 = (g^-1, -alpha o g^-1).  The action table of g is a
    permutation of packed V; inverted, it is the action of g^-1, whose row
    i is the image of the unit vector 1 << i d."""
    R, d = space.R, space.R.d
    inv = [0] * len(a.act)
    for x, y in enumerate(a.act):
        inv[y] = x
    ginv = tuple(space.unpack(inv[1 << i * d]) for i in range(space.dim))
    return AspElement(space, ginv, (R.neg(a.alpha[y]) for y in inv), validate=False)


# -- symplectic groups and lifts ----------------------------------------------

def _sp_k_mul(space, g, h):
    """The product of Sp(V), and the g-part of asp_mul: the matrix with
    rows h[i] g (h acts first), read off the action table of g."""
    act = space.action(g)
    return tuple(space.unpack(act[space.pack(r)]) for r in h)


def _sp_R_mul(space, g, h):
    """The product of Sp(Vt) in the same convention: rows h[i] g, read off
    the row action of g over R (SympSpace.ring_action)."""
    act = space.ring_action(g)
    return tuple(map(act.__getitem__, h))


def group_order(d, n, group):
    """The closed-form order of "H(V)", "Sp(V)", "Sp(Vt)" or "ASp(V)" over
    GR(4, d)^{2n}, q = 2^d: |H(V)| = |V| |R| = q^{2n+2}; |Sp_{2n}(F_q)| =
    q^{n^2} prod_{i<=n} (q^{2i} - 1); reduction Sp(Vt) -> Sp(V) is onto
    with kernel 1 + 2 sp_{2n}(F_q), of order q^{n(2n+1)}; ASp(V) is Sp(V)
    times the torsor Hom(V, 2R), of order q^{2dn}."""
    q = 2 ** d
    sp = q ** (n * n) * math.prod(q ** (2 * i) - 1 for i in range(1, n + 1))
    return {"H(V)": q ** (2 * n + 2), "Sp(V)": sp,
            "Sp(Vt)": sp * q ** (n * (2 * n + 1)),
            "ASp(V)": sp * q ** (2 * d * n)}[group]


def check_group(d, n, group):
    """The order of `group` at d, n; listing it is refused above
    MAX_LISTING before any work, the ring included."""
    _check_rank(n)
    order = group_order(d, n, group)
    _refuse_above(order, symplectic.MAX_LISTING,
                  f"{group} enumeration at d{d}n{n}", "build {} elements")
    return order


class Group(tuple):
    """The elements of an enumerated finite group, in enumeration order,
    with three members:

    mul(x, y)    the product in the operator convention: the element xy
                 with W(x) W(y) in mu4 W(xy) (pi(x) pi(y) = pi(xy) on H(V));
    position(x)  the position of x, a RuntimeError for an element outside;
    table()      the Cayley table as positions, built once and refused
                 above MAX_LISTING entries."""

    def __new__(cls, elements, mul, name):
        self = super().__new__(cls, elements)
        self.mul, self.name = mul, name
        self._pos = {x: i for i, x in enumerate(self)}
        self._table = None
        return self

    def position(self, x):
        try:
            return self._pos[x]
        except KeyError:
            raise RuntimeError(f"{x!r} is not an element of {self.name}") from None

    def table(self):
        """table[i][j] = position(mul(self[i], self[j]))."""
        if self._table is None:
            _refuse_above(len(self) ** 2, symplectic.MAX_LISTING,
                          f"the {self.name} Cayley table", "fill {} entries")
            self._table = tuple(tuple(self.position(self.mul(x, y)) for y in self)
                                for x in self)
        return self._table


def _enumerate_group(space, group, mul, elements):
    """The elements(space) as a Group with product mul(space, x, y),
    refused by check_group before elements is called, and a RuntimeError
    unless it yields exactly group_order many distinct elements."""
    order = check_group(space.R.d, space.n, group)
    out = Group(elements(space), functools.partial(mul, space), group)
    count = len(out._pos)
    if count != order:
        raise RuntimeError(f"{group} enumeration found {count:,} distinct "
                           f"elements, expected {order:,}")
    return out


def enumerate_sp_k(space):
    """All of Sp(V) over the residue field (row-action convention), in
    lexicographic order: the frames of packed vectors, over
    SympSpace.whole().packed, whose Gram matrix of the residue of omt (read
    at omega masks) is the residue of standard_omt_gram, each unpacked to
    its k-vector rows.  A matrix preserving a non-degenerate form is
    invertible, so no rank test is needed."""
    return _enumerate_group(space, "Sp(V)", _sp_k_mul, _sp_k_elements)


def _sp_k_elements(space):
    vectors = space.whole().packed
    masks = dict(zip(vectors, map(space.omega_masks, vectors)))
    gram = tuple(map(space.reduce_vec, space.standard_omt_gram()))
    live = linalg.gram_live(lambda x, y: _form_value(y, masks[x]), gram)
    for frame in linalg.frames((vectors,) * space.dim, live):
        yield tuple(map(space.unpack, frame))


def enumerate_sp_R(space):
    """All of Sp(Vt) over R (row-action), in lexicographic order of ring
    indices: the frames whose omt Gram matrix is that of e_1..f_n, the
    {0,1} lifts of the standard basis.  A matrix preserving a
    non-degenerate form is invertible, so no rank test is needed."""
    return _enumerate_group(space, "Sp(Vt)", _sp_R_mul, _sp_R_elements)


def _sp_R_elements(space):
    vectors = tuple(itertools.product(range(space.R.size), repeat=space.dim))
    return linalg.frames((vectors,) * space.dim,
                         linalg.gram_live(space.omt, space.standard_omt_gram()))


def lift_sp(space, gt, validate=True):
    """The canonical section Sp(Vt) -> ASp(V):
    alpha(v) = bt(g vt, g vt) - bt(vt, vt), with the {0,1} lift vt of v.
    Well-defined because g preserves omt; filled from the unit generators
    of V, as it polarizes beta(g., g.) - beta."""
    R = space.R
    g = tuple(space.reduce_vec(r) for r in gt)
    values = []
    for u in space.whole().gens:
        ut = space.lift_vec(space.unpack(u))
        gut = linalg.vec_mat(R, ut, gt)
        values.append(R.sub(space.bt(gut, gut), space.bt(ut, ut)))
    alpha = fill_quadratic(space.whole().gens, values,
                           _asp_pairing(space, space.action(g), space._two_lift), R.add)
    return AspElement(space, g, alpha.values(), validate=validate)


def symplectic_lift_matrix(space, g):
    """Some gt in Sp(Vt) reducing to g in Sp(V): lift rows {0,1}, then run
    symplectic Gram-Schmidt over R.  All correction coefficients live in 2R,
    so the residue never moves."""
    R, n = space.R, space.n
    b = [space.lift_vec(tuple(g[i])) for i in range(n)]
    b = space.make_isotropic(b, space._dual_family(b))
    c = [space.lift_vec(tuple(g[n + i])) for i in range(n)]
    # restore the exact b-c pairing: subtract the 2-torsion defects along
    # fresh duals of the corrected b's
    duals = space._dual_family(b)
    c = [linalg.vec_add(R, cj, linalg.vec_mat(
             R, [R.sub(R.one if i == j else 0, space.omt(bi, cj))
                 for i, bi in enumerate(b)], duals))
         for j, cj in enumerate(c)]
    # clear the c-c pairings by adding b's (leaves the b-c pairing alone, so
    # the c_i from before this step pair with c_j as the corrected ones do)
    c = [linalg.vec_add(R, cj, linalg.vec_mat(
             R, [space.omt(ci, cj) if i < j else 0 for i, ci in enumerate(c)], b))
         for j, cj in enumerate(c)]
    gt = tuple(b) + tuple(c)
    # the rows of gt, the images of e_1..f_n, must keep their omt Gram matrix
    if space.omt_gram(gt, gt) != space.standard_omt_gram():
        raise RuntimeError("symplectic lift failed")
    if tuple(space.reduce_vec(r) for r in gt) != tuple(map(tuple, g)):
        raise RuntimeError("lift does not reduce to g")
    return gt


def act_on_enhanced(space, a, enh):
    """ASp(V) acting on enhanced Lagrangians:
    (g, alpha_g) . (L, alpha) = (g L, g l -> alpha(l) + alpha_g(l)), read
    in the span order of g L through the packed action table."""
    R, act = space.R, a.act
    moved = {act[x]: R.add(ax, a.alpha[x]) for x, ax in zip(enh.span.packed, enh.alpha)}
    span = space.subspace(_sp_k_mul(space, a.g, enh.rows))
    return EnhancedLagrangian(space, span.rows, map(moved.__getitem__, span.packed))


def enumerate_asp(space):
    """All of ASp(V), refused above MAX_LISTING predicted elements before
    Sp(V) is built."""
    return _enumerate_group(space, "ASp(V)", asp_mul, _asp_elements)


def _asp_elements(space):
    """One section alpha per g in Sp(V) (via a symplectic lift), shifted by
    the torsor Hom(V, 2R)."""
    for g in enumerate_sp_k(space):
        base = lift_sp(space, symplectic_lift_matrix(space, g), validate=False)
        twists = Twists(space.R, base.alpha, space.whole().gens,
                        range(len(base.alpha)))
        for alpha in twists.all():
            yield AspElement(space, g, alpha, validate=False)


# -- the k-valued obstruction -------------------------------------------------

def preserves_residue_quadratic(space, g):
    """Whether g preserves Q(v) = bt(v, v) mod 2 (the residue quadratic
    form of the splitting), on every packed v and its image in the action
    table of g: beta(v, v) = 2 lift(Q(v)) determines Q(v)."""
    beta = space.beta
    return all(beta(gx, gx) == beta(x, x)
               for x, gx in enumerate(space.action(g)))


def residue_polarization(space, g):
    """A k-valued phi with
    phi(v+w) - phi(v) - phi(w) = bt(gv, gw) - bt(v, w)  (all mod 2),
    as a table indexed by packed v, when one exists (iff g preserves the
    residue quadratic form), else None.  phi is filled with value 0 on the
    unit generators; some phi exists exactly when this one polarizes."""
    pair = _asp_pairing(space, space.action(g), range(space.R.field_size))
    gens = space.whole().gens
    phi = fill_quadratic(gens, [0] * len(gens), pair, operator.xor)
    if not polarizes(phi, phi.keys(), gens, pair, operator.xor):
        return None
    return tuple(phi.values())
