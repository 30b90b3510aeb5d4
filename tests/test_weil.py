"""Weil operators at d = n = 1, all verified exhaustively and exactly.

Frozen facts:
  * all 24 operators W(a) are unitary and W(1) = 1
  * Egorov: W(a) pi(h) = pi(a.h) W(a) exactly
  * the 2-cocycle takes values in mu_4 with exponent histogram
    {0: 280, 1: 56, 2: 56, 3: 184} over the 576 pairs
  * the split (oriented) representation has a mu_2 cocycle; -1 occurs
    1056 times over the 2304 pairs of Sp(Vt)
  * W_split(g) / W(lift(g)) has mu_4 exponent 0 or 3, never 1 or 2
  * each system has character norm (1/|G|) sum |tr|^2 = 1, so is
    irreducible
"""

import functools
from fractions import Fraction

import pytest

from weil2.cyclotomic import SQRT2, ZERO, ZETA, Cyc8, I, ONE
from weil2.galois import ring
from weil2.heisenberg import (
    all_h_elements, asp_mul, enumerate_asp,
    enumerate_sp_R, lift_sp,
)
from weil2.models import ZiMatrix, intertwiner_matrix, monomial_cyc, pi_matrix
from weil2.symplectic import SympSpace
from weil2.verify import schur_check
from weil2.weil import (
    SplitWeilRepresentation, WeilRepresentation, coboundary_ratio,
    canonical_root, character_norm_is_one,
)



def _space():
    return SympSpace(ring(1), 1)


def _identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def _dagger(M):
    return tuple(tuple(M[j][i].galois(7) for j in range(len(M)))
                 for i in range(len(M[0])))


def _mul(A, B):
    return tuple(
        tuple(sum((A[i][k] * B[k][j] for k in range(len(B))), ZERO)
              for j in range(len(B[0])))
        for i in range(len(A))
    )


@pytest.mark.parametrize("num,k", [(1, 0), (-1, 0), (1, 1), (-1, 1), (1, 3)])
def test_lambda_root_fourth_power(num, k):
    s = (0 if num > 0 else 4, -4 * k)
    assert monomial_cyc(*s) == ONE * Fraction(num, 4 ** k)
    assert monomial_cyc(*canonical_root(s, 4)) ** 4 == monomial_cyc(*s)


def test_lambda_root_frozen_value():
    # -1/4 = zeta^4 sqrt2^-4
    assert monomial_cyc(*canonical_root((4, -4), 4)) == \
        (ONE + I) * Fraction(1, 2)


def test_mu_root_squares():
    for c, s in ((ONE, (0, 0)), (-ONE, (4, 0)), (I, (2, 0)), (-I, (6, 0)),
                 (I * Fraction(1, 2), (2, -2)),
                 (ONE * Fraction(-1, 4), (4, -4))):
        assert monomial_cyc(*s) == c
        root = monomial_cyc(*canonical_root(s, 2))
        assert root * root == c
    assert monomial_cyc(*canonical_root((2, -2), 2)) == \
        (ONE + I) * Fraction(1, 2)


# (p, e, b) -> (j, c): the canonical p-th root of zeta^e sqrt2^b is
# zeta^j sqrt2^c; every other s with e in 0..7, b in -8..4 is refused
ROOTS = {
    (4, 0, -8): (0, -2), (4, 0, -4): (0, -1), (4, 0, 0): (0, 0),
    (4, 4, -8): (1, -2), (4, 4, -4): (1, -1), (4, 4, 0): (1, 0),
    (2, 0, -8): (0, -4), (2, 0, -6): (0, -3), (2, 0, -4): (0, -2),
    (2, 0, -2): (0, -1), (2, 0, 0): (0, 0),
    (2, 2, -8): (1, -4), (2, 2, -6): (1, -3), (2, 2, -4): (1, -2),
    (2, 2, -2): (1, -1), (2, 2, 0): (1, 0),
    (2, 4, -8): (2, -4), (2, 4, -6): (2, -3), (2, 4, -4): (2, -2),
    (2, 4, -2): (2, -1), (2, 4, 0): (2, 0),
    (2, 6, -8): (3, -4), (2, 6, -6): (3, -3), (2, 6, -4): (3, -2),
    (2, 6, -2): (3, -1), (2, 6, 0): (3, 0),
}


@pytest.mark.parametrize("p", [2, 4])
def test_root_rule_frozen(p):
    for e in range(8):
        for b in range(-8, 5):
            if (p, e, b) in ROOTS:
                root = canonical_root((e, b), p)
                assert root == ROOTS[p, e, b], (e, b)
                assert monomial_cyc(*root) ** p == \
                    ZETA ** e * SQRT2 ** b, (e, b)
            else:
                with pytest.raises(ValueError, match=f"no canonical {p}th root"):
                    canonical_root((e, b), p)


def test_sqrt2_pow_consistency():
    # 1/4 = sqrt2^-4 has the fourth root sqrt2^-1
    assert canonical_root((0, -4), 4) == (0, -1)
    assert monomial_cyc(0, -1) == SQRT2 ** -1


def test_weil_identity_and_unitarity():
    sp = _space()
    W = WeilRepresentation(sp)
    assert W.operator(lift_sp(sp, ((1, 0), (0, 1)))).to_cyc() == _identity(2)
    for a in enumerate_asp(sp):
        M = W.operator(a).to_cyc()
        assert _mul(M, _dagger(M)) == _identity(2)


def test_egorov_identity_exact():
    sp = _space()
    W = WeilRepresentation(sp)
    pi = functools.partial(pi_matrix, W.base_enhanced)
    for a in enumerate_asp(sp):
        Wa = W.operator(a)
        for h in all_h_elements(sp):
            assert Wa @ pi(h) == pi(a.apply_h(h)) @ Wa


def test_cocycle_exponent_histogram():
    sp = _space()
    W = WeilRepresentation(sp)
    asp = list(enumerate_asp(sp))
    hist = {}
    for a in asp:
        for b in asp:
            e = W.cocycle(a, b, asp_mul(sp, a, b))
            assert e in (0, 1, 2, 3)
            hist[e] = hist.get(e, 0) + 1
    assert hist == {0: 280, 1: 56, 2: 56, 3: 184}


def test_cocycle_identity_sampled():
    """c(a,b) c(ab,c) = c(b,c) c(a,bc) on a deterministic slice of ASp^3, as
    sums of mu4 exponents mod 4."""
    sp = _space()
    W = WeilRepresentation(sp)
    asp = list(enumerate_asp(sp))
    for a in asp[::3]:
        for b in asp[::4]:
            for c in asp[::5]:
                ab, bc = asp_mul(sp, a, b), asp_mul(sp, b, c)
                lhs = W.cocycle(a, b, ab) + W.cocycle(ab, c, asp_mul(sp, ab, c))
                rhs = W.cocycle(b, c, bc) + W.cocycle(a, bc, asp_mul(sp, a, bc))
                assert (lhs - rhs) % 4 == 0


def test_cocycle_none_off_mu4():
    """A wrong product is not proportional (W(c) fixes the action of c on
    H(V)), and a ratio outside mu4 is no exponent: both give None."""
    sp = _space()
    W = WeilRepresentation(sp)
    asp = list(enumerate_asp(sp))
    a, b = asp[1], asp[2]
    ab = asp_mul(sp, a, b)
    wrong = next(c for c in asp if c.g != ab.g)
    assert W.cocycle(a, b, wrong) is None
    X = W.operator(a)
    assert X.scaled(1, 0).mu4_ratio(X) is None
    assert X.scaled(0, 2).mu4_ratio(X) is None
    assert X.scaled(2, 0).mu4_ratio(X) == 1


def test_split_cocycle_is_sign():
    sp = _space()
    Ws = SplitWeilRepresentation(sp)
    gs = enumerate_sp_R(sp)
    minus = 0
    for g in gs:
        for h in gs:
            c = Ws.cocycle(g, h, gs.mul(g, h))
            assert c in (0, 2)
            if c == 2:
                minus += 1
    assert minus == 1056


def test_split_matches_enhanced_up_to_mu4():
    sp = _space()
    W = WeilRepresentation(sp)
    Ws = SplitWeilRepresentation(sp)
    exps = set()
    for g in enumerate_sp_R(sp):
        Wg, Wl = Ws.operator(g), W.operator(lift_sp(sp, g))
        c = Wg.mu4_ratio(Wl)
        assert Wg.ratio(Wl) == (2 * c, 0)
        exps.add(c)
    assert exps == {0, 3}


def _norm_reference(ops):
    """(1/|G|) sum |tr X|^2 over the dense Cyc8 matrices, as a Fraction:
    complex conjugation is the Galois map z -> z^7."""
    total = ZERO
    for M in (X.to_cyc() for X in ops):
        tr = sum((M[i][i] for i in range(len(M))), ZERO)
        total = total + tr * tr.galois(7)
    return total.rational_value() / len(ops)


def _identity_of(X):
    return ZiMatrix.monomial([(0, j) for j in range(X.shape[0])], X.shape[1])


def test_commutant_dimensions():
    """pi over H(V), W over ASp(V) and the 48 split operators over Sp(Vt)
    have one-dimensional commutants: their character norm, the commutant's
    dimension on a whole group, is 1, as the Cyc8 reference computes it;
    ZiMatrix.trace is the Z[i] part's trace.  Changes that move the norm
    (sqrt2 on every operator, identities in their place, sqrt2^-1 on one
    operator of nonzero trace) are refused, and one that keeps it (zeta
    on that operator) is not."""
    sp = _space()
    W = WeilRepresentation(sp)
    Ws = SplitWeilRepresentation(sp)
    systems = [[pi_matrix(W.base, h) for h in all_h_elements(sp)],
               [W.operator(a) for a in enumerate_asp(sp)],
               [Ws.operator(g) for g in enumerate_sp_R(sp)]]
    assert [len(ops) for ops in systems] == [16, 24, 48]
    for ops in systems:
        for X in ops:
            re, im = X.trace()
            M = X.to_cyc()
            assert sum((M[i][i] for i in range(len(M))), ZERO) == \
                monomial_cyc(X.zeta_exp, X.sqrt2_exp) * Cyc8((re, 0, im, 0))
        k = next(i for i, X in enumerate(ops) if X.trace() != (0, 0))

        def one_scaled(e, s):
            return ops[:k] + [ops[k].scaled(e, s)] + ops[k + 1:]

        variants = [(ops, True), ([X.scaled(0, 1) for X in ops], False),
                    ([_identity_of(X) for X in ops], False),
                    (one_scaled(1, 0), True), (one_scaled(0, -1), False)]
        for variant, norm_one in variants:
            assert (_norm_reference(variant) == 1) == norm_one
            assert character_norm_is_one(variant) == norm_one


def test_schur_check_needs_a_projective_representation():
    """schur_check passes pi over H(V); it fails when the closure is
    denied, and on a constant rank-1 projection P, which is closed
    (P P = P) and has norm 1 but acts at the identity by no scalar."""
    sp = _space()
    W = WeilRepresentation(sp)
    H = all_h_elements(sp)
    ops = [pi_matrix(W.base, h) for h in H]
    assert schur_check("x", ops, H.table(), True, "").passed
    assert not schur_check("x", ops, H.table(), False, "").passed
    P = ZiMatrix(0, 0, [((1, 0), (0, 0)), ((0, 0), (0, 0))])
    proj = [P] * len(H)
    assert all(P.product_ratio(P, proj[p]) == (0, 0)
               for row in H.table() for p in row)
    assert character_norm_is_one(proj)
    assert not schur_check("x", proj, H.table(), True, "").passed


def _at_zeta2(X):
    """The operator X with 2 added to its zeta exponent and its Z[i] part
    times -i, as zeta^2 = i."""
    return ZiMatrix(X.zeta_exp + 2, X.sqrt2_exp,
                    [tuple((y, -x) for x, y in row) for row in X.rows])


def test_egorov_packed_matches_the_built_products():
    """ZiMatrix.intertwines against the built products on all 24 x 16
    pairs, and with pi(h) in place of pi(a h), where it fails on some
    pairs.  A pi with a nonzero exponent fails the pair, whether the
    operators are equal (written with another Z[i] part) or not (i pi(h),
    whose Z[i] part is pi(h)'s)."""
    sp = _space()
    W = WeilRepresentation(sp)
    pi = {h: pi_matrix(W.base_enhanced, h) for h in all_h_elements(sp)}
    swapped = []
    for a in enumerate_asp(sp):
        Wa = W.operator(a)
        for h, pi_h in pi.items():
            pi_ah = pi[a.apply_h(h)]
            assert Wa.intertwines(pi_h, pi_ah)
            assert Wa @ pi_h == pi_ah @ Wa
            swapped.append(Wa.intertwines(pi_h, pi_h))
            assert swapped[-1] == (Wa @ pi_h == pi_h @ Wa)
            for X in (pi_h, pi_ah):
                assert _at_zeta2(X) == X
            assert not Wa.intertwines(_at_zeta2(pi_h), pi_ah)
            assert not Wa.intertwines(pi_h, _at_zeta2(pi_ah))
            # i pi(h) has pi(h)'s Z[i] part: only the precondition refuses it
            assert Wa @ pi_h.scaled(2, 0) != pi_ah @ Wa
            assert not Wa.intertwines(pi_h.scaled(2, 0), pi_ah)
    with pytest.raises(ValueError, match=r"^shapes \(2, 2\), \(1, 1\) and"):
        Wa.intertwines(ZiMatrix.monomial([(0, 0)], 1), pi_ah)
    assert len(swapped) == 384 and True in swapped and False in swapped


def test_object_independence_coboundary():
    """Changing the base object changes the cocycle by an exact coboundary."""
    sp = _space()
    W = WeilRepresentation(sp)
    dual = sp.enhance_from_lift(sp.initial_lift(sp.dual_standard_lagrangian()))
    W2 = WeilRepresentation(sp, base=dual)
    Phi = intertwiner_matrix(W2.base, W.base)
    asp = list(enumerate_asp(sp))
    b = {a.key(): coboundary_ratio(W2, W, Phi, a) for a in asp}
    assert set(b.values()) <= {0, 1, 2, 3}
    for a1 in asp[::3]:
        for a2 in asp[::4]:
            prod = asp_mul(sp, a1, a2)
            lhs = W2.cocycle(a1, a2, prod) + b[prod.key()]
            rhs = W.cocycle(a1, a2, prod) + b[a1.key()] + b[a2.key()]
            assert (lhs - rhs) % 4 == 0


def test_transition_inverts():
    sp = _space()
    W = WeilRepresentation(sp)
    std = sp.enhance_from_lift(sp.standard_oriented().basis)
    dual = sp.enhance_from_lift(sp.initial_lift(sp.dual_standard_lagrangian()))
    fwd = W.transition(dual, std)
    back = W.transition(std, dual)
    assert (fwd @ back).to_cyc() == _identity(2)


def test_coboundary_matches_the_conjugate():
    """coboundary_ratio compares W'(a) Phi with Phi W(a) on packed rows;
    the reference is the mu4 ratio of W'(a) to Phi W(a) Phi^-1, built."""
    sp = _space()
    W = WeilRepresentation(sp)
    dual = sp.enhance_from_lift(sp.initial_lift(sp.dual_standard_lagrangian()))
    W2 = WeilRepresentation(sp, base=dual)
    Phi = intertwiner_matrix(W2.base, W.base)
    seen = set()
    for a in enumerate_asp(sp):
        b = coboundary_ratio(W2, W, Phi, a)
        assert b == W2.operator(a).mu4_ratio(Phi @ W.operator(a) @ Phi.inverse())
        seen.add(b)
    assert None not in seen and len(seen) > 1


def test_cocycles_build_no_operator(monkeypatch):
    """Over the cached operators of suite_weil, W.cocycle (576 pairs of
    ASp(V)) and S.cocycle (2,304 pairs of Sp(Vt)) compare W(x) W(y) with
    W(xy) on packed rows: no ZiMatrix is constructed.  The values match
    the built products' mu4 ratios."""
    sp = _space()
    asp, spR = enumerate_asp(sp), enumerate_sp_R(sp)
    W, S = WeilRepresentation(sp), SplitWeilRepresentation(sp)
    sweeps = [(rep, group, [(x, y, group[p]) for x, row in zip(group, group.table())
                            for y, p in zip(group, row)])
              for rep, group in ((W, asp), (S, spR))]
    for rep, group, _ in sweeps:
        for x in group:
            rep.operator(x)
    built = [[(rep.operator(x) @ rep.operator(y)).mu4_ratio(rep.operator(xy))
              for x, y, xy in pairs] for rep, _, pairs in sweeps]

    init, calls = ZiMatrix.__init__, []

    def counting(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(ZiMatrix, "__init__", counting)
    values = [[rep.cocycle(*t) for t in pairs] for rep, _, pairs in sweeps]
    assert [len(v) for v in values] == [576, 2304]
    assert calls == []
    assert values == built
    assert set(values[1]) == {0, 2}
