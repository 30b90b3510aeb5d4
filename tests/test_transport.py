"""Scaled transports: formal fourth/square roots of intertwiner composites.

A ScaledTransport stores a scalar s = zeta^e sqrt2^b, as its exponent pair
(e, b), together with one intertwiner matrix and the power p such that
root^p = s resolves the composite.  Frozen at d = n = 1:

  * trivialization scalar between the two standard enhancements: -1/4, p = 4
  * splitting scalars over all oriented pairs: i/2 (x4), -i/2 (x4),
    1/4 (x2), -1/4 (x2) relative to the standard base point
"""

from fractions import Fraction

import pytest

from weil2 import transport
from weil2.cyclotomic import ONE
from weil2.galois import ring
from weil2.models import ZiMatrix, monomial_cyc
from weil2.symplectic import SympSpace, enumerate_enhanced
from weil2.transport import (
    ScaledTransport, enhanced_of_oriented, first_transversal_rows,
    monomial_product, splitting_scalar, splitting_transport,
    transport_square, trivialization_transport, trivializing_scalar,
)


def _space():
    return SympSpace(ring(1), 1)


def test_trivializing_scalar():
    for d, n in ((1, 1), (2, 1), (1, 2)):
        sp = SympSpace(ring(d), n)
        dn = d * n
        want = ONE * Fraction((-1) ** dn, 4 ** dn)
        assert trivializing_scalar(sp) == (4 * dn % 8, -4 * dn)
        assert monomial_cyc(*trivializing_scalar(sp)) == want


def test_trivialization_scalar_frozen():
    sp = _space()
    std = sp.enhance_from_lift(sp.standard_oriented().basis)
    dual = sp.enhance_from_lift(sp.initial_lift(sp.dual_standard_lagrangian()))
    T = trivialization_transport(sp, dual, std)
    assert T.scalar == (4, -4)
    assert monomial_cyc(*T.scalar) == ONE * Fraction(-1, 4)
    assert T.power == 4


def test_transport_composition():
    """T_{N,M} o T_{M,L} = T_{N,L} for a sample of enhanced triples."""
    sp = _space()
    enh = enumerate_enhanced(sp)
    checked = 0
    for a in enh[::2]:
        for b in enh:
            for c in enh[::2]:
                Tab = trivialization_transport(sp, a, b)
                Tbc = trivialization_transport(sp, b, c)
                Tac = trivialization_transport(sp, a, c)
                assert Tab.composes_to(Tbc, Tac)
                # the built composite, the reference for the packed check
                built = ScaledTransport(monomial_product(Tab.scalar, Tbc.scalar),
                                        Tab.matrix @ Tbc.matrix, 4)
                assert built == Tac
                minus = ScaledTransport(monomial_product(Tac.scalar, (4, 0)),
                                        Tac.matrix, 4)
                assert not Tab.composes_to(Tbc, minus) and not built == minus
                checked += 1
    assert checked == 54


def test_composes_to_refuses_mixed_powers():
    sp = _space()
    a, b = enumerate_enhanced(sp)[:2]
    T = trivialization_transport(sp, a, b)
    S = ScaledTransport(T.scalar, T.matrix, 2)
    with pytest.raises(ValueError, match="different powers"):
        T.composes_to(S, T)
    # a target of another power is another kind of transport
    assert not S.composes_to(S, T)


def test_transport_to_self_is_trivial():
    sp = _space()
    for e in enumerate_enhanced(sp):
        T = trivialization_transport(sp, e, e)
        M = T.matrix
        # the resolved matrix is scalar * identity once the root is taken;
        # at the transport level the composite must be proportional to 1
        n = M.shape[0]
        ratio = M.ratio(ZiMatrix.monomial([(0, i) for i in range(n)], n))
        assert ratio is not None


def test_splitting_scalar_histogram():
    sp = _space()
    base = sp.standard_oriented()
    hist = {}
    for o in sp.enumerate_oriented():
        T = splitting_transport(sp, o, base)
        # transversal over R exactly when the reductions are (Nakayama)
        if sp.transversal_k(tuple(map(sp.reduce_vec, o.basis)),
                            tuple(map(sp.reduce_vec, base.basis))):
            # the direct transversal formula matches the transport scalar
            assert splitting_scalar(sp, o, base) == T.scalar
        key = str(monomial_cyc(*T.scalar))
        hist[key] = hist.get(key, 0) + 1
    assert hist == {"(z^2)/2": 4, "(-z^2)/2": 4, "(1)/4": 2, "(-1)/4": 2}


def test_splitting_square_is_trivialization():
    """S_{M,L}^2 = T_{M,L} through the forgetful map on base points."""
    sp = _space()
    oriented = list(sp.enumerate_oriented())
    for oM in oriented[::3]:
        for oL in oriented[::5]:
            S = splitting_transport(sp, oM, oL)
            eM = enhanced_of_oriented(sp, oM)
            eL = enhanced_of_oriented(sp, oL)
            assert transport_square(S) == trivialization_transport(sp, eM, eL)


def test_splitting_multiplicative_sample():
    sp = _space()
    oriented = list(sp.enumerate_oriented())
    for a in oriented[::4]:
        for b in oriented[::5]:
            for c in oriented[::6]:
                Sab = splitting_transport(sp, a, b)
                Sbc = splitting_transport(sp, b, c)
                assert Sab.composes_to(Sbc, splitting_transport(sp, a, c))


def test_first_transversal_rows():
    sp = _space()
    for rows in sp.enumerate_lagrangians():
        for rows2 in sp.enumerate_lagrangians():
            k = first_transversal_rows(sp, rows, rows2)
            assert sp.transversal_k(k, rows)
            assert sp.transversal_k(k, rows2)


def test_scaled_transport_equality_semantics():
    """Transports compare by resolved value: the matrices up to a factor r,
    with r^p absorbed by the scalar."""
    sp = _space()
    enh = enumerate_enhanced(sp)
    a, b = enh[0], enh[3]
    T = trivialization_transport(sp, a, b)
    assert T == ScaledTransport(T.scalar, T.matrix, T.power)
    minus = monomial_product(T.scalar, (4, 0))
    assert not (T == ScaledTransport(minus, T.matrix, T.power))
    # i^4 = 1: i times the matrix is the same transport at p = 4
    assert T == ScaledTransport(T.scalar, T.matrix.scaled(2, 0), T.power)
    # zeta^4 = -1 and (sqrt2 / 2)^4 = 1/4 are taken up by the scalar
    assert not (T == ScaledTransport(T.scalar, T.matrix.scaled(1, 0), T.power))
    assert T == ScaledTransport(minus, T.matrix.scaled(1, 0), T.power)
    assert T == ScaledTransport(monomial_product(T.scalar, (0, 4)),
                                T.matrix.scaled(0, -1), T.power)


def test_splitting_scalar_refuses_a_gauss_sum_off_the_monomials(monkeypatch):
    """G^2 / 4^dn is read from the exponents of G; a Gauss sum that is no
    zeta^e sqrt2^s is an invariant broken, not a scalar."""
    sp = _space()
    base = sp.standard_oriented()
    o = next(o for o in sp.enumerate_oriented()
             if sp.transversal_k(tuple(map(sp.reduce_vec, o.basis)),
                                 tuple(map(sp.reduce_vec, base.basis))))
    monkeypatch.setattr(transport, "gauss_sum", lambda B: (3, 0))
    with pytest.raises(RuntimeError, match="not zeta"):
        splitting_scalar(sp, o, base)
