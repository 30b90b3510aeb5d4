"""The finite Heisenberg group H = Vt x R, the symplectic groups over the
residue field and over R, and the enhanced (affine) symplectic group ASp.

Frozen orders at d = n = 1: |H| = 16 (V x Z4), |Sp(V)| = 6, |Sp(Vt)| = 48,
|ASp| = 24; the closed forms of heisenberg.group_order hold at every shape
the enumerations accept.
"""

import itertools
import math
import random
import re

import pytest

import kref
from weil2 import heisenberg, linalg, symplectic
from weil2.galois import ring
from weil2.symplectic import CapExceeded, SympSpace, enumerate_enhanced
from weil2.heisenberg import (
    AspElement, act_on_enhanced, all_h_elements, asp_inv, asp_mul,
    enumerate_asp, enumerate_sp_R, enumerate_sp_k, group_order, h_mul,
    lift_sp, preserves_residue_quadratic,
    residue_polarization, symplectic_lift_matrix,
)


def _space():
    return SympSpace(ring(1), 1)


# the identity of ASp(V) at d = n = 1: the lift of the identity of Sp(Vt)
ASP_IDENTITY_D1N1 = ((1, 0), (0, 1))


def _h_inv(sp, h):
    """(v, z)^-1 = (v, -z + beta(v, v)) in H(V), v packed."""
    v, z = h
    return (v, sp.R.add(sp.R.neg(z), sp.beta(v, v)))


def test_group_orders():
    sp = _space()
    assert len(list(all_h_elements(sp))) == 16
    assert len(list(enumerate_sp_k(sp))) == 6
    assert len(list(enumerate_sp_R(sp))) == 48
    assert len(list(enumerate_asp(sp))) == 24


def test_heisenberg_group_axioms():
    sp = _space()
    elems = list(all_h_elements(sp))
    e = (0, 0)
    for h in elems:
        assert h_mul(sp, h, e) == h
        assert h_mul(sp, e, h) == h
        assert h_mul(sp, h, _h_inv(sp, h)) == e
    rng = random.Random(0)
    for _ in range(400):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert h_mul(sp, h_mul(sp, a, b), c) == h_mul(sp, a, h_mul(sp, b, c))


def test_center_and_commutators():
    sp = _space()
    R = sp.R
    elems = list(all_h_elements(sp))
    for z in range(4):
        zc = (0, z)
        for h in elems:
            assert h_mul(sp, zc, h) == h_mul(sp, h, zc)
    # the commutator of h1 and h2 is the central element
    # omega(v1, v2) = 2 * lift(omega_field(v1, v2))
    for h1 in elems:
        for h2 in elems[::5]:
            comm = h_mul(sp, h_mul(sp, h1, h2), _h_inv(sp, h_mul(sp, h2, h1)))
            v1, v2 = sp.unpack(h1[0]), sp.unpack(h2[0])
            omega = R.mul(R.two, R.lift(kref.omega_field(sp, v1, v2)))
            assert comm == (0, omega)


def test_symplectic_membership():
    sp = _space()
    for g in enumerate_sp_R(sp):
        assert sp.omt_gram(g, g) == sp.standard_omt_gram()
    g = ((1, 0), (0, 2))
    assert sp.omt_gram(g, g) != sp.standard_omt_gram()


def test_sp_R_is_closed_under_row_products():
    sp = _space()
    gs = enumerate_sp_R(sp)
    keys = set(gs)
    rng = random.Random(3)
    for _ in range(200):
        g, h = rng.choice(gs), rng.choice(gs)
        assert gs.mul(h, g) in keys


def test_asp_group_axioms():
    sp = _space()
    asp = list(enumerate_asp(sp))
    e = lift_sp(sp, ASP_IDENTITY_D1N1)
    keys = {a.key() for a in asp}
    assert len(keys) == 24
    for a in asp:
        assert asp_mul(sp, a, asp_inv(sp, a)).key() == e.key()
        for b in asp[::5]:
            assert asp_mul(sp, a, b).key() in keys


@pytest.mark.parametrize("d,n", [(2, 1), (1, 2)])
def test_asp_inv_beyond_d1n1(d, n):
    """On 200 seeded elements (g, alpha), g uniform in Sp(V) and alpha its
    lifted section twisted by a uniform Hom(V, 2R): a a^-1 = a^-1 a = 1 in
    ASp(V), and g g^-1 = g^-1 g = I by the row action over k."""
    sp = SympSpace(ring(d), n)
    R = sp.R
    rng = random.Random(10 * d + n)
    spk = enumerate_sp_k(sp)
    I = tuple(map(sp.std_basis_k, range(sp.dim)))
    one = AspElement(sp, I, [0] * R.field_size ** sp.dim).key()
    for _ in range(200):
        g = rng.choice(spk)
        base = lift_sp(sp, symplectic_lift_matrix(sp, g))
        twists = symplectic.Twists(R, base.alpha, sp.whole().gens,
                                   range(len(base.alpha)))
        a = AspElement(sp, g, twists.sample(rng))
        inv = asp_inv(sp, a)
        assert asp_mul(sp, a, inv).key() == one
        assert asp_mul(sp, inv, a).key() == one
        for x, y in ((g, inv.g), (inv.g, g)):
            assert tuple(kref.vec_mat(R, row, y) for row in x) == I


def test_asp_acts_on_heisenberg():
    """apply_h is an automorphism fixing the center pointwise."""
    sp = _space()
    elems = list(all_h_elements(sp))
    for a in enumerate_asp(sp):
        for z in range(4):
            zc = (0, z)
            assert a.apply_h(zc) == zc
        for h1 in elems[::7]:
            for h2 in elems[::5]:
                assert a.apply_h(h_mul(sp, h1, h2)) == h_mul(
                    sp, a.apply_h(h1), a.apply_h(h2))


def test_symplectic_lift_matrix():
    sp = _space()
    for g in enumerate_sp_k(sp):
        gt = symplectic_lift_matrix(sp, g)
        assert sp.omt_gram(gt, gt) == sp.standard_omt_gram()
        assert tuple(sp.reduce_vec(row) for row in gt) == g


def test_lift_sp_kernel_is_plus_minus_one():
    """Sp(Vt) -> ASp via lift_sp is 2-to-1 and onto: gt and -gt agree."""
    sp = _space()
    gs = list(enumerate_sp_R(sp))
    keys = {}
    for gt in gs:
        a = lift_sp(sp, gt)
        assert a.g == tuple(sp.reduce_vec(row) for row in gt)
        keys.setdefault(a.key(), []).append(gt)
        neg = tuple(tuple(sp.R.neg(x) for x in row) for row in gt)
        assert lift_sp(sp, neg).key() == a.key()
    assert len(keys) == 24
    assert all(len(v) == 2 for v in keys.values())
    assert keys.keys() == {a.key() for a in enumerate_asp(sp)}


def test_lift_sp_multiplicative():
    sp = _space()
    gs = enumerate_sp_R(sp)
    rng = random.Random(11)
    for _ in range(150):
        g1, g2 = rng.choice(gs), rng.choice(gs)
        g12 = gs.mul(g2, g1)
        lhs = asp_mul(sp, lift_sp(sp, g2), lift_sp(sp, g1))
        assert lhs.key() == lift_sp(sp, g12).key()


VEC_MAT = linalg.vec_mat


def _sp_R_mul_reference(sp, g, h):
    """The product of Sp(Vt) row by row, rows h[i] g by linalg.vec_mat."""
    return tuple(VEC_MAT(sp.R, r, g) for r in h)


@pytest.mark.parametrize("d", [1, 2])
def test_sp_R_product_reads_the_row_action(d, monkeypatch):
    """Sp(Vt)'s product reads the memoized row action of SympSpace.ring_action
    and equals the row-by-row reference: on all 48^2 pairs at d1n1, where
    the Cayley table is the reference's and costs 48 * 16 row actions
    (|Sp(Vt)| |R^2|, where row-by-row products take 2 * 48^2), and on 300
    seeded pairs at d2n1."""
    sp = SympSpace(ring(d), 1)
    gs = enumerate_sp_R(sp)
    calls = []
    monkeypatch.setattr(linalg, "vec_mat",
                        lambda *args: calls.append(1) or VEC_MAT(*args))
    if d == 1:
        table = gs.table()
        assert len(calls) == 48 * 16
        assert len(sp._caches["ring_action"]) == 48
        assert table == tuple(
            tuple(gs.position(_sp_R_mul_reference(sp, g, h)) for h in gs)
            for g in gs)
    else:
        rng = random.Random(5)
        for _ in range(300):
            g, h = rng.choice(gs), rng.choice(gs)
            assert gs.mul(g, h) == _sp_R_mul_reference(sp, g, h)
        assert len(calls) == 256 * len(sp._caches["ring_action"])


def _lift_sp_reference(sp, gt):
    """The per-vector rule the generator fill replaced, read as
    AspElement.key() reads it: the residue of gt, and
    alpha(v) = bt(g vt, g vt) - bt(vt, vt) for the {0,1} lift vt of each v
    in lexicographic order of V."""
    R = sp.R
    alpha = []
    for v in kref.vectors(sp):
        vt = sp.lift_vec(v)
        gvt = linalg.vec_mat(R, vt, gt)
        alpha.append(R.sub(sp.bt(gvt, gvt), sp.bt(vt, vt)))
    return tuple(sp.reduce_vec(r) for r in gt), tuple(alpha)


@pytest.mark.parametrize("d,n", [(1, 1), (1, 2), (2, 1)])
def test_lift_sp_matches_the_per_vector_reference(d, n):
    """lift_sp, filled from the unit generators of V, equals the per-vector
    rule exactly: on all of Sp(Vt) at d1n1, and on symplectic_lift_matrix
    of every g in Sp(V) at d1n2 and d2n1."""
    sp = SympSpace(ring(d), n)
    if (d, n) == (1, 1):
        gts = enumerate_sp_R(sp)
        assert len(gts) == 48
    else:
        gts = [symplectic_lift_matrix(sp, g) for g in enumerate_sp_k(sp)]
    for gt in gts:
        assert lift_sp(sp, gt).key() == _lift_sp_reference(sp, gt)


def _compatible_on_all_pairs(sp, g, alpha):
    """The all-pairs reference of AspElement._validate, for alpha a table
    indexed by packed v: alpha(v + w) - alpha(v) - alpha(w) =
    beta(g v, g w) - beta(v, w) on every pair of V."""
    R = sp.R
    vecs = list(kref.vectors(sp))
    gv = {v: kref.vec_mat(R, v, g) for v in vecs}
    a = {v: alpha[sp.pack(v)] for v in vecs}
    return all(R.sub(R.sub(a[kref.xor(v, w)], a[v]), a[w])
               == R.sub(kref.beta(sp, gv[v], gv[w]), kref.beta(sp, v, w))
               for v in vecs for w in vecs)


def _refused(sp, g, alpha):
    """Whether AspElement refuses (g, alpha), and then with the
    compatibility message."""
    try:
        AspElement(sp, g, alpha)
    except ValueError as err:
        assert str(err) == "alpha is not compatible with g"
        return True
    return False


@pytest.mark.parametrize("d,n,sample", [(1, 1, None), (2, 1, 3), (1, 2, 4)])
def test_validation_refuses_what_all_pairs_refuses(d, n, sample):
    """Every element at d1n1, and seeded elements at d2n1 and d1n2, with
    alpha changed at one packed v by each nonzero ring value: the
    V x generators check refuses exactly when the all-pairs reference
    does.  The unchanged elements pass both."""
    sp = SympSpace(ring(d), n)
    R = sp.R
    asp = enumerate_asp(sp)
    elements = asp if sample is None else random.Random(d * 10 + n).sample(asp, sample)
    refused = 0
    for a in elements:
        assert _compatible_on_all_pairs(sp, a.g, a.alpha)
        assert not _refused(sp, a.g, a.alpha)
        for x in range(len(a.alpha)):
            for r in range(1, R.size):
                alpha = list(a.alpha)
                alpha[x] = R.add(alpha[x], r)
                mine = _refused(sp, a.g, alpha)
                assert mine == (not _compatible_on_all_pairs(sp, a.g, alpha))
                refused += mine
    assert refused > 0


def test_validation_refuses_a_partial_table_and_a_nonzero_alpha_of_zero():
    sp = _space()
    a = lift_sp(sp, ASP_IDENTITY_D1N1)
    for alpha in (a.alpha[:-1], a.alpha + (0,)):
        with pytest.raises(ValueError, match="^alpha must be total on V$"):
            AspElement(sp, a.g, alpha)
    assert a.alpha[0] == 0
    for r in range(1, sp.R.size):
        with pytest.raises(ValueError, match="^alpha is not compatible with g$"):
            AspElement(sp, a.g, (r,) + a.alpha[1:])


def test_act_on_enhanced_is_group_action():
    sp = _space()
    enh = enumerate_enhanced(sp)
    keys = {e.key() for e in enh}
    ident = lift_sp(sp, ASP_IDENTITY_D1N1)
    for e in enh:
        assert act_on_enhanced(sp, ident, e).key() == e.key()
    for a in enumerate_asp(sp):
        moved = {act_on_enhanced(sp, a, e).key() for e in enh}
        assert moved == keys
        for b in list(enumerate_asp(sp))[::7]:
            for e in enh:
                assert (act_on_enhanced(sp, a, act_on_enhanced(sp, b, e)).key()
                        == act_on_enhanced(sp, asp_mul(sp, a, b), e).key())


def test_residue_quadratic_preservers():
    """Exactly two of the six residue symplectic maps preserve the residue
    quadratic form."""
    sp = _space()
    winners = [g for g in enumerate_sp_k(sp) if preserves_residue_quadratic(sp, g)]
    assert winners == [((0, 1), (1, 0)), ((1, 0), (0, 1))]
    for g in enumerate_sp_k(sp):
        pol = residue_polarization(sp, g)
        assert (pol is not None) == preserves_residue_quadratic(sp, g)


# -- the row-by-row builder against the brute-force filters it replaced --------


def _filter_sp_k(sp):
    """Reference: every full-rank k-matrix whose rows keep omega's values
    on the standard basis, in lexicographic order of the entries."""
    R, m = sp.R, sp.dim
    e = [sp.std_basis_k(i) for i in range(m)]
    out = []
    for entries in itertools.product(range(R.field_size), repeat=m * m):
        g = tuple(tuple(entries[i * m:(i + 1) * m]) for i in range(m))
        if kref.rank(R, g) == m and all(
                kref.omega_field(sp, g[i], g[j]) == kref.omega_field(sp, e[i], e[j])
                for i in range(m) for j in range(i + 1, m)):
            out.append(g)
    return tuple(out)


def _filter_sp_R(sp):
    """Reference: every R-matrix of unit determinant whose rows keep omt's
    values on the standard basis, in lexicographic order of the entries."""
    R, m = sp.R, sp.dim
    e = [sp.lift_vec(sp.std_basis_k(i)) for i in range(m)]
    out = []
    for entries in itertools.product(range(R.size), repeat=m * m):
        g = tuple(tuple(entries[i * m:(i + 1) * m]) for i in range(m))
        if R.is_unit(linalg.det_ring(R, g)) and all(
                sp.omt(g[i], g[j]) == sp.omt(e[i], e[j])
                for i in range(m) for j in range(i + 1, m)):
            out.append(g)
    return tuple(out)


@pytest.mark.parametrize("d,n", [(1, 1), (2, 1), (3, 1)])
def test_sp_k_builder_matches_filter(d, n):
    sp = SympSpace(ring(d), n)
    assert enumerate_sp_k(sp) == _filter_sp_k(sp)


def test_sp_R_builder_matches_filter():
    sp = _space()
    assert enumerate_sp_R(sp) == _filter_sp_R(sp)


# every shape each enumeration accepts, with its closed-form order
ACCEPTED_ORDERS = [
    ("H(V)", all_h_elements, 1, 1, 16),
    ("H(V)", all_h_elements, 2, 1, 256),
    ("H(V)", all_h_elements, 1, 5, 4096),
    ("Sp(V)", enumerate_sp_k, 1, 1, 6),
    ("Sp(V)", enumerate_sp_k, 2, 1, 60),
    ("Sp(V)", enumerate_sp_k, 1, 2, 720),
    ("Sp(V)", enumerate_sp_k, 3, 1, 504),
    ("Sp(V)", enumerate_sp_k, 4, 1, 4080),
    ("Sp(Vt)", enumerate_sp_R, 1, 1, 48),
    ("Sp(Vt)", enumerate_sp_R, 2, 1, 3840),
    ("ASp(V)", enumerate_asp, 1, 1, 24),
    ("ASp(V)", enumerate_asp, 2, 1, 15360),
    ("ASp(V)", enumerate_asp, 1, 2, 11520),
]


@pytest.mark.parametrize("group,enumerate_group,d,n,order", ACCEPTED_ORDERS)
def test_closed_form_orders(group, enumerate_group, d, n, order):
    sp = SympSpace(ring(d), n)
    assert group_order(d, n, group) == order
    assert len(set(enumerate_group(sp))) == order


@pytest.mark.parametrize("group,enumerate_group,d,n,order", [
    ("H(V)", all_h_elements, 3, 2, 262144),
    ("Sp(V)", enumerate_sp_k, 1, 3, 1451520),
    ("Sp(V)", enumerate_sp_k, 2, 2, 979200),
    ("Sp(Vt)", enumerate_sp_R, 1, 2, 737280),
    ("Sp(Vt)", enumerate_sp_R, 3, 1, 258048),
    ("ASp(V)", enumerate_asp, 3, 1, 132120576),
])
def test_refused_above_max_group(group, enumerate_group, d, n, order):
    sp = SympSpace(ring(d), n)
    assert group_order(d, n, group) == order > symplectic.MAX_LISTING
    with pytest.raises(CapExceeded, match=f"build {order:,} elements"):
        enumerate_group(sp)


def test_lowered_listing_cap_refuses_a_group(monkeypatch):
    sp = SympSpace(ring(2), 1)
    monkeypatch.setattr(symplectic, "MAX_LISTING", 59)
    with pytest.raises(CapExceeded, match="build 60 elements > 59"):
        enumerate_sp_k(sp)


@pytest.mark.parametrize("group,enumerate_group", [
    ("H(V)", all_h_elements), ("Sp(V)", enumerate_sp_k),
    ("Sp(Vt)", enumerate_sp_R), ("ASp(V)", enumerate_asp),
])
def test_count_check_catches_a_wrong_order(monkeypatch, group, enumerate_group):
    """With the formula for one group off by one, its enumeration raises."""
    exact = group_order
    monkeypatch.setattr(heisenberg, "group_order",
                        lambda d, n, g: exact(d, n, g) + (g == group))
    with pytest.raises(RuntimeError, match=re.escape(f"{group} enumeration found")):
        enumerate_group(_space())


def test_h_elements_keep_their_order():
    """At d1n1, d2n1, d1n2 and d3n1, H(V) is (packed v, z), and unpacked
    it is the coordinate walk of kref, (v, z) in lexicographic order; its
    product is kref's."""
    for d, n in ((1, 1), (2, 1), (1, 2), (3, 1)):
        sp = SympSpace(ring(d), n)
        H = all_h_elements(sp)
        assert all(type(v) is int and type(z) is int for v, z in H)
        assert [(sp.unpack(v), z) for v, z in H] == kref.h_elements(sp)
        rng = random.Random(d * 10 + n)
        for _ in range(200):
            h1, h2 = rng.choice(H), rng.choice(H)
            v, z = h_mul(sp, h1, h2)
            assert (sp.unpack(v), z) == kref.h_mul(
                sp, (sp.unpack(h1[0]), h1[1]), (sp.unpack(h2[0]), h2[1]))


@pytest.mark.parametrize("d,n", [(1, 1), (2, 1), (1, 2), (3, 1)])
def test_sp_k_is_the_coordinate_walk(d, n):
    """enumerate_sp_k, walked on packed vectors under the omega masks,
    gives the tuples of kref's walk on k-vectors, in the same order."""
    sp = SympSpace(ring(d), n)
    assert tuple(enumerate_sp_k(sp)) == kref.sp_k(sp)


@pytest.mark.parametrize("group,enumerate_group", [
    ("H(V)", all_h_elements), ("Sp(V)", enumerate_sp_k)])
def test_refused_listing_builds_no_geometry(group, enumerate_group):
    """A refused H(V) or Sp(V) raises before it builds whole() or any
    subspace."""
    sp = SympSpace(ring(1), 8)
    with pytest.raises(CapExceeded, match=f"^{re.escape(group)} enumeration at d1n8"):
        enumerate_group(sp)
    assert "whole" not in sp._caches and "subspace" not in sp._caches


@pytest.mark.parametrize("enumerate_group,product", [
    (enumerate_asp, asp_mul),
    (enumerate_sp_R, lambda sp, g, h: tuple(linalg.vec_mat(sp.R, r, g) for r in h)),
], ids=["ASp(V)", "Sp(Vt)"])
def test_group_tables_are_the_group_law(enumerate_group, product):
    """Every row and column of the Cayley table is a permutation of the
    positions, and every entry is the position of the product, which is
    the row-action product written out."""
    sp = _space()
    group = enumerate_group(sp)
    table = group.table()
    everything = list(range(len(group)))
    for i, x in enumerate(group):
        assert sorted(table[i]) == everything
        assert sorted(row[i] for row in table) == everything
        for j, y in enumerate(group):
            assert group.mul(x, y) == product(sp, x, y)
            assert table[i][j] == group.position(group.mul(x, y))


def test_position_refuses_an_element_outside():
    sp = _space()
    with pytest.raises(RuntimeError, match="not an element of Sp"):
        enumerate_sp_R(sp).position(((1, 0), (0, 2)))
    # alpha(0) = 1 is not the identity's shift, nor any element's
    outside = AspElement(sp, lift_sp(sp, ASP_IDENTITY_D1N1).g,
                         (1,) * 4, validate=False)
    with pytest.raises(RuntimeError, match="not an element of ASp"):
        enumerate_asp(sp).position(outside)


def test_cayley_table_refused_above_max_group(monkeypatch):
    monkeypatch.setattr(symplectic, "MAX_LISTING", 575)
    asp = enumerate_asp(_space())
    with pytest.raises(CapExceeded, match="fill 576 entries > 575"):
        asp.table()
    monkeypatch.setattr(symplectic, "MAX_LISTING", 576)
    assert len(asp.table()) == 24


# -- Weil's pseudo-symplectic group is a strict subgroup ----------------------


def _orthogonal_plus_order(q, n):
    """|O+_{2n}(F_q)| = 2 q^{n(n-1)} (q^n - 1) prod_{i<n} (q^{2i} - 1)."""
    return (2 * q ** (n * (n - 1)) * (q ** n - 1)
            * math.prod(q ** (2 * i) - 1 for i in range(1, n)))


@pytest.mark.parametrize("d,n,count", [
    (1, 1, 2), (2, 1, 6), (1, 2, 72), (3, 1, 14), (4, 1, 30),
])
def test_residue_quadratic_preservers_are_orthogonal_plus(d, n, count):
    """The elements of Sp(V) preserving the residue quadratic form are a
    proper subgroup of order |O+_{2n}(F_q)|."""
    sp = SympSpace(ring(d), n)
    spk = enumerate_sp_k(sp)
    winners = [g for g in spk if preserves_residue_quadratic(sp, g)]
    assert len(winners) == count == _orthogonal_plus_order(2 ** d, n)
    assert count < len(spk)


def _residue_polarization_reference(sp, g):
    """The bit-pair sum the generator fill replaced, as a dict on k-vectors:
    phi(v) = sum of c(b_i, b_j) over the pairs i < j of F2-basis vectors
    b_i, one per set bit of v, with c(v, w) = bt(gv, gw) - bt(v, w) mod 2;
    None unless phi polarizes c on all of V x V."""
    R, m = sp.R, sp.dim
    vecs = list(kref.vectors(sp))
    gv = {v: kref.vec_mat(R, v, g) for v in vecs}

    def c(v, w):
        return kref.beta_field(sp, gv[v], gv[w]) ^ kref.beta_field(sp, v, w)

    phi = {}
    for v in vecs:
        bits = [tuple(1 << a if j == i else 0 for j in range(m))
                for i in range(m) for a in range(R.d) if (v[i] >> a) & 1]
        s = 0
        for x, y in itertools.combinations(bits, 2):
            s ^= c(x, y)
        phi[v] = s
    for v in vecs:
        for w in vecs:
            if phi[kref.xor(v, w)] ^ phi[v] ^ phi[w] != c(v, w):
                return None
    return phi


@pytest.mark.parametrize("d,n", [(1, 1), (2, 1), (1, 2)])
def test_residue_polarization_iff_orthogonal(d, n):
    """A polarization exists exactly for the g preserving the residue
    quadratic form, and its values, filled from the unit generators, are
    the bit-pair reference's."""
    sp = SympSpace(ring(d), n)
    for g in enumerate_sp_k(sp):
        pol = residue_polarization(sp, g)
        assert (pol is not None) == preserves_residue_quadratic(sp, g)
        ref = _residue_polarization_reference(sp, g)
        assert (ref is None) == (pol is None)
        if pol is not None:
            assert {sp.unpack(x): y for x, y in enumerate(pol)} == ref
