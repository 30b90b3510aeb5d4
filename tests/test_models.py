"""Model spaces of the Heisenberg group and the canonical intertwiners
between them.

At d = n = 1 the three Lagrangian subspaces give 2-dimensional models; the
composite of the three canonical intertwiners around a transversal triangle
is a scalar, frozen below for every ordering of {std, dual, third}.
"""

import itertools
import random

import pytest

from weil2.cyclotomic import ZETA, Cyc8, I, ONE
from weil2.galois import ring
from weil2.heisenberg import all_h_elements, h_mul
from weil2.models import (
    Model, composition_scalar, formula_scalar, gauss_scalar,
    intertwiner_matrix, matrix_inverse_cyc, matrix_mul_cyc, standard_model,
)
from weil2.symplectic import SympSpace, enumerate_enhanced

MINUS_FOUR = Cyc8.from_rational(-4)


def _space():
    return SympSpace(ring(1), 1)


def _named_enhanced(sp):
    std = sp.standard_lagrangian()
    dual = sp.dual_standard_lagrangian()
    third = next(s for s in sp.enumerate_lagrangians() if s not in (std, dual))
    return {
        name: sp.enhance_from_lift(sp.initial_lift(rows))
        for name, rows in (("std", std), ("dual", dual), ("third", third))
    }


def test_model_dimensions():
    for d, n in ((1, 1), (2, 1), (1, 2)):
        sp = SympSpace(ring(d), n)
        for e in enumerate_enhanced(sp):
            assert Model(sp, e).dim == 2 ** (d * n)


def test_pi_is_a_representation():
    sp = _space()
    m = standard_model(sp)
    elems = list(all_h_elements(sp))
    for h1 in elems:
        for h2 in elems:
            lhs = matrix_mul_cyc(m.pi_matrix(h1), m.pi_matrix(h2))
            assert lhs == m.pi_matrix(h_mul(sp, h1, h2))


def test_pi_central_character():
    """The center acts by i^z; the representation has central character psi."""
    sp = _space()
    for e in enumerate_enhanced(sp):
        m = Model(sp, e)
        for z in range(4):
            mat = m.pi_matrix((sp.zero_vec_k(), z))
            for r in range(m.dim):
                for c in range(m.dim):
                    want = Cyc8.i_pow(z) if r == c else Cyc8.from_rational(0)
                    assert mat[r][c] == want


def test_intertwiner_dual_to_std_is_fourier():
    sp = _space()
    e = _named_enhanced(sp)
    F = intertwiner_matrix(Model(sp, e["std"]), Model(sp, e["dual"]))
    assert F == ((ONE, ONE), (ONE, -ONE))


def test_intertwiner_property():
    """F_{M,L} pi_L(h) = pi_M(h) F_{M,L} for every h and every pair."""
    sp = _space()
    enh = enumerate_enhanced(sp)
    elems = list(all_h_elements(sp))
    for eM in enh:
        for eL in enh:
            if not sp.transversal_k(eM.rows, eL.rows):
                continue
            mM, mL = Model(sp, eM), Model(sp, eL)
            F = intertwiner_matrix(mM, mL)
            for h in elems:
                assert matrix_mul_cyc(F, mL.pi_matrix(h)) == \
                    matrix_mul_cyc(mM.pi_matrix(h), F)


def test_intertwiner_entries_are_fourth_roots():
    """Every entry of a canonical intertwiner is a fourth root of unity;
    in particular the matrices are dense."""
    sp = _space()
    enh = enumerate_enhanced(sp)
    mu4 = {Cyc8.i_pow(k) for k in range(4)}
    for eM in enh:
        for eL in enh:
            if not sp.transversal_k(eM.rows, eL.rows):
                continue
            F = intertwiner_matrix(Model(sp, eM), Model(sp, eL))
            for row in F:
                for x in row:
                    assert x in mu4


FROZEN_TRIANGLE = {
    ("std", "dual", "third"): ONE - I,
    ("std", "third", "dual"): ONE + I,
    ("dual", "std", "third"): ONE + I,
    ("dual", "third", "std"): ONE - I,
    ("third", "std", "dual"): ONE - I,
    ("third", "dual", "std"): ONE + I,
}


def test_composition_scalar_frozen_triangle():
    sp = _space()
    e = _named_enhanced(sp)
    for order, want in FROZEN_TRIANGLE.items():
        got = composition_scalar(sp, *(e[name] for name in order))
        assert got == want
        assert got ** 4 == MINUS_FOUR


def test_three_routes_agree():
    """Composite, closed formula, and Gauss-sum route give one scalar."""
    sp = _space()
    enh = enumerate_enhanced(sp)
    by_rows = {}
    for e in enh:
        by_rows.setdefault(e.rows, []).append(e)
    rows = sorted(by_rows)
    count = 0
    for rN, rM, rL in itertools.permutations(rows, 3):
        for eN in by_rows[rN]:
            for eM in by_rows[rM]:
                for eL in by_rows[rL]:
                    c = composition_scalar(sp, eN, eM, eL)
                    assert formula_scalar(sp, eN, eM, eL) == c
                    assert gauss_scalar(sp, eN, eM, eL) == c
                    assert c ** 4 == MINUS_FOUR
                    count += 1
    assert count == 48


def _formula_reference(sp, eN, eM, eL):
    """The character sum term by term: r(m), m - r(m) and beta(m, r(m))
    recomputed for every element of M."""
    R = sp.R
    r = sp.r_map(eM.rows, eN.rows, eL.rows)
    tally = [0, 0, 0, 0]
    for m in eM.elements:
        rm = r[m]
        lm = tuple(a ^ b for a, b in zip(m, rm))
        q = R.sub(R.sub(R.add(eM.alpha_of(m), eN.alpha_of(rm)), eL.alpha_of(lm)),
                  sp.beta(m, rm))
        tally[R.psi_exp(q)] += 1
    return Cyc8((tally[0] - tally[2], 0, tally[1] - tally[3], 0))


def test_formula_scalar_terms_once_per_subspace_triple():
    """All 30,720 enhanced triples at d1n2 against the term-by-term sum.
    The subspace terms are computed once per subspace triple: 480 entries,
    and beta runs once per element of M of each (4 * 480 times)."""
    from weil2.verify import _transversal_triples

    sp = SympSpace(ring(1), 2)
    ref = SympSpace(ring(1), 2)
    subs = sp.enumerate_lagrangians()
    enh = {s: sp.enumerate_enhancements(s) for s in subs}
    beta_calls = 0
    plain_beta = sp.beta

    def counted_beta(v, w):
        nonlocal beta_calls
        beta_calls += 1
        return plain_beta(v, w)

    sp.beta = counted_beta
    count = 0
    for rN, rM, rL in _transversal_triples(sp, subs):
        for eN in enh[rN]:
            for eM in enh[rM]:
                for eL in enh[rL]:
                    assert formula_scalar(sp, eN, eM, eL) == \
                        _formula_reference(ref, eN, eM, eL)
                    count += 1
    assert count == 30720
    assert len(sp._r_maps) == 480
    assert beta_calls == 4 * 480
    for (M, N, L), (r, terms) in sp._r_maps.items():
        assert sp.r_terms(M, N, L) is terms
        assert [t[:2] for t in terms] == list(r.items())
        assert [t[0] for t in terms] == list(sp.span_k(M))


@pytest.mark.parametrize("d,n,stride,pairs", [
    (1, 1, 1, 24), (2, 1, 1, 5120), (1, 2, 5, 384),
])
def test_intertwiner_adjoint_is_scaled_inverse(d, n, stride, pairs):
    """F* F = 2^{dn} I for the canonical intertwiner of a transversal pair:
    by irreducibility F* F is scalar, and its diagonal sums q^n squared
    fourth roots of unity.  Every ordered transversal pair of enhanced
    Lagrangians at d1n1 and d2n1; every `stride`-th one at d1n2."""
    sp = SympSpace(ring(d), n)
    enh = enumerate_enhanced(sp)
    models = [Model(sp, e) for e in enh]
    transversal = [
        (mM, mL) for mM in models for mL in models
        if sp.transversal_k(mM.enh.rows, mL.enh.rows)
    ][::stride]
    assert len(transversal) == pairs
    dim = models[0].dim
    scaled_identity = tuple(
        tuple(Cyc8.from_rational(2 ** (d * n) if i == j else 0) for j in range(dim))
        for i in range(dim)
    )
    for mM, mL in transversal:
        F = intertwiner_matrix(mM, mL)
        F_star = tuple(tuple(F[j][i].conj() for j in range(dim)) for i in range(dim))
        assert matrix_mul_cyc(F_star, F) == scaled_identity


def _matrix_mul_reference(A, B):
    """The definition: each entry a sum of Cyc8 products."""
    return tuple(
        tuple(sum((A[i][k] * B[k][j] for k in range(len(B))), Cyc8.from_rational(0))
              for j in range(len(B[0])))
        for i in range(len(A))
    )


def _random_matrix(rng, rows, cols, density):
    """Sparse entries with coefficients in -3..3 over mixed denominators."""
    def entry():
        if rng.random() >= density:
            return Cyc8.from_rational(0)
        return Cyc8(tuple(rng.randrange(-3, 4) for _ in range(4)),
                    rng.choice((1, 2, 3, 4, 6, 8, 9)))
    return tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))


def _with_zero_row(M, i):
    zero = (Cyc8.from_rational(0),) * len(M[0])
    return M[:i] + (zero,) + M[i + 1:]


def _with_zero_col(M, j):
    return tuple(r[:j] + (Cyc8.from_rational(0),) + r[j + 1:] for r in M)


@pytest.mark.parametrize("shape", [(1, 3, 2), (3, 1, 4), (2, 5, 3), (16, 16, 16)])
def test_matrix_mul_cyc_matches_entrywise_sums(shape):
    rows, mid, cols = shape
    rng = random.Random(8 * rows + mid + cols)
    zeta3 = ZETA ** 3
    for density in (1.0, 0.4, 0.1):
        A = _random_matrix(rng, rows, mid, density)
        B = _random_matrix(rng, mid, cols, density)
        # entries outside Q(i), over the denominators 2 and 3
        A = (A[0][:-1] + (ZETA / 2,),) + A[1:]
        B = B[:-1] + ((zeta3 / 3,) * cols,)
        if rows > 1:
            A = _with_zero_row(A, rows - 1)
        if cols > 1:
            B = _with_zero_col(B, 0)
        assert len({x.den for r in A + B for x in r}) > 2
        assert matrix_mul_cyc(A, B) == _matrix_mul_reference(A, B)


def test_matrix_mul_cyc_monomial_16x16():
    """Monomial operators with zeta-power entries over powers of 2, the
    shape of the materialized trivialization products."""
    rng = random.Random(16)

    def monomial():
        perm = list(range(16))
        rng.shuffle(perm)
        return tuple(
            tuple(ZETA ** rng.randrange(8) / 2 ** rng.randrange(3) if perm[i] == j
                  else Cyc8.from_rational(0) for j in range(16))
            for i in range(16)
        )

    for _ in range(3):
        A, B = monomial(), monomial()
        assert matrix_mul_cyc(A, B) == _matrix_mul_reference(A, B)
    zero = tuple((Cyc8.from_rational(0),) * 16 for _ in range(16))
    prod = matrix_mul_cyc(monomial(), zero)
    assert prod == zero
    assert all(x.den == 1 for r in prod for x in r)


def test_matrix_inverse_cyc():
    F = ((ONE, ONE), (ONE, -ONE))
    Finv = matrix_inverse_cyc(F)
    prod = matrix_mul_cyc(F, Finv)
    for r in range(2):
        for c in range(2):
            assert prod[r][c] == (ONE if r == c else Cyc8.from_rational(0))
