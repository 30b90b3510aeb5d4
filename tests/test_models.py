"""Model spaces of the Heisenberg group and the canonical intertwiners
between them.

At d = n = 1 the three Lagrangian subspaces give 2-dimensional models; the
composite of the three canonical intertwiners around a transversal triangle
is a scalar, frozen below for every ordering of {std, dual, third}.
"""

import itertools
import random
from fractions import Fraction

import pytest

import kref
from weil2 import models
from weil2.cyclotomic import SQRT2, ZERO, ZETA, Cyc8, I, ONE
from weil2.galois import ring
from weil2.heisenberg import (
    act_on_enhanced, all_h_elements, asp_inv, enumerate_asp, h_mul,
)
from weil2.models import (
    CharacterSum, ZiMatrix, _packed_proportion, composition_scalar,
    formula_scalar, gauss_scalar, gaussian_monomial, gaussian_mul,
    intertwiner_matrix, lift_gauss, monomial_cyc, monomial_gaussian,
    pi_matrix,
)
from weil2.symplectic import (
    EnhancedLagrangian, SympSpace, enumerate_enhanced,
)
from weil2.weil import translation_matrix

MINUS_FOUR = ONE * -4


def _space():
    return SympSpace(ring(1), 1)


def _named_enhanced(sp):
    std = tuple(sp.std_basis_k(i) for i in range(sp.n))
    dual = sp.dual_standard_lagrangian()
    third = next(s for s in sp.enumerate_lagrangians() if s not in (std, dual))
    return {
        name: sp.enhance_from_lift(sp.initial_lift(rows))
        for name, rows in (("std", std), ("dual", dual), ("third", third))
    }


def test_model_dimensions():
    """The transversal of each enhanced Lagrangian has 2^{dn} elements, and
    every operator on its model is 2^{dn} x 2^{dn}."""
    for d, n in ((1, 1), (2, 1), (1, 2)):
        sp = SympSpace(ring(d), n)
        h = next(iter(all_h_elements(sp)))
        for e in enumerate_enhanced(sp):
            assert len(sp.transversal(e.pivots)) == 2 ** (d * n)
            assert pi_matrix(e, h).shape == (2 ** (d * n),) * 2


def test_pi_is_a_representation():
    sp = _space()
    e = sp.enhance_from_lift(sp.standard_oriented().basis)
    elems = list(all_h_elements(sp))
    for h1 in elems:
        for h2 in elems:
            lhs = (pi_matrix(e, h1) @ pi_matrix(e, h2)).to_cyc()
            assert lhs == pi_matrix(e, h_mul(sp, h1, h2)).to_cyc()


def test_pi_central_character():
    """The center acts by i^z; the representation has central character psi."""
    sp = _space()
    for e in enumerate_enhanced(sp):
        dim = len(sp.transversal(e.pivots))
        for z in range(4):
            mat = pi_matrix(e, (0, z)).to_cyc()
            for r in range(dim):
                for c in range(dim):
                    want = monomial_cyc(2 * z, 0) if r == c else ZERO
                    assert mat[r][c] == want


def test_intertwiner_dual_to_std_is_fourier():
    sp = _space()
    e = _named_enhanced(sp)
    F = intertwiner_matrix(e["std"], e["dual"])
    assert F.to_cyc() == ((ONE, ONE), (ONE, -ONE))


def test_intertwiner_property():
    """F_{M,L} pi_L(h) = pi_M(h) F_{M,L} for every h and every pair."""
    sp = _space()
    enh = enumerate_enhanced(sp)
    elems = list(all_h_elements(sp))
    for eM in enh:
        for eL in enh:
            if not sp.transversal_k(eM.rows, eL.rows):
                continue
            F = intertwiner_matrix(eM, eL)
            for h in elems:
                assert (F @ pi_matrix(eL, h)).to_cyc() == \
                    (pi_matrix(eM, h) @ F).to_cyc()


def test_intertwiner_entries_are_fourth_roots():
    """Every entry of a canonical intertwiner is a fourth root of unity;
    in particular the matrices are dense."""
    sp = _space()
    enh = enumerate_enhanced(sp)
    mu4 = {monomial_cyc(2 * k, 0) for k in range(4)}
    for eM in enh:
        for eL in enh:
            if not sp.transversal_k(eM.rows, eL.rows):
                continue
            F = intertwiner_matrix(eM, eL).to_cyc()
            for row in F:
                for x in row:
                    assert x in mu4


# -- the coordinate reference ----------------------------------------------------
# The model operators split v along L by coordinates, v = l + t with l the
# combination of the rows of L by v's pivot coordinates, and evaluate alpha
# and beta on k-vectors; the package's packed path is checked against it.

def _transversal_reference(sp, e):
    """T_L as sorted k-vectors: the span of the non-pivot standard basis
    vectors, in column order."""
    comp = [sp.std_basis_k(j) for j in range(sp.dim) if j not in e.pivots]
    return sorted(kref.span(sp.R, comp, sp.dim))


def _split_reference(sp, e, v):
    """v = l + t with l in L and t in the transversal."""
    l = kref.vec_mat(sp.R, [v[p] for p in e.pivots], e.rows)
    return l, kref.xor(v, l)


def _alpha_by_element(e):
    """alpha of an enhanced Lagrangian as a dict keyed by k-tuples."""
    return dict(zip(kref.elements(e.space, e.span), e.alpha))


def _eval_reference(sp, e, h):
    """f((v, z)) = psi(z - alpha(l) - beta(l, t)) f((t, 0)): returns
    (exponent, t)."""
    R = sp.R
    v, z = h
    l, t = _split_reference(sp, e, v)
    return R.psi_exp(R.sub(R.sub(z, _alpha_by_element(e)[l]), kref.beta(sp, l, t))), t


def _monomial_reference(sp, e, points):
    """The monomial operator whose row r reads f in H_L at the r-th point
    of H(V)."""
    index = {t: j for j, t in enumerate(_transversal_reference(sp, e))}
    entries = []
    for h in points:
        x, t = _eval_reference(sp, e, h)
        entries.append((x, index[t]))
    return ZiMatrix.monomial(entries, len(index))


def _pi_reference(sp, e, h):
    """pi(h) for h = (k-vector w, z): row t reads f at
    (t, 0) (w, z) = (t + w, z + beta(t, w))."""
    w, z = h
    return _monomial_reference(sp, e, [
        (kref.xor(t, w), sp.R.add(z, kref.beta(sp, t, w)))
        for t in _transversal_reference(sp, e)])


def _translation_reference(sp, a, src, dst):
    """P_a: row t of the transversal of dst reads f at a^{-1} (t, 0)."""
    inv = asp_inv(sp, a)
    return _monomial_reference(sp, src, [
        (sp.unpack(v), z) for v, z in (inv.apply_h((sp.pack(t), 0))
                                       for t in _transversal_reference(sp, dst))])


def _triple(M):
    return M.zeta_exp, M.sqrt2_exp, M.rows


def _intertwiner_reference(sp, eM, eL):
    """F_{M,L} term by term: m + t_M split afresh for every term."""
    R = sp.R
    aM, aL = _alpha_by_element(eM), _alpha_by_element(eL)
    index = {t: j for j, t in enumerate(_transversal_reference(sp, eL))}
    out = []
    for tM in _transversal_reference(sp, eM):
        row = [[0, 0, 0, 0] for _ in range(len(index))]
        for m in aM:
            l, tL = _split_reference(sp, eL, kref.xor(m, tM))
            if l not in aL:
                raise RuntimeError("split left the Lagrangian")
            e = R.psi_exp(R.sub(
                R.sub(R.add(aM[m], kref.beta(sp, m, tM)), aL[l]),
                kref.beta(sp, l, tL),
            ))
            row[index[tL]][e] += 1
        out.append(tuple((c[0] - c[2], c[1] - c[3]) for c in row))
    return ZiMatrix(0, 0, out)


@pytest.mark.parametrize("d,n,pairs,transversal", [
    (1, 2, 3600, 1920), (2, 1, 6400, 5120),
])
def test_intertwiner_matrix_matches_term_by_term(d, n, pairs, transversal):
    """Every ordered pair of enhanced Lagrangians, transversal or not: the
    matrix built from once-per-matrix splits has the same exponents and
    the same Gaussian-integer rows as the term-by-term loop."""
    sp = SympSpace(ring(d), n)
    enh = enumerate_enhanced(sp)
    seen = crossing = 0
    for eM in enh:
        for eL in enh:
            F = intertwiner_matrix(eM, eL)
            assert _triple(F) == _triple(_intertwiner_reference(sp, eM, eL))
            seen += 1
            crossing += sp.transversal_k(eM.rows, eL.rows)
    assert (seen, crossing) == (pairs, transversal)


@pytest.mark.parametrize("d,n,count", [(1, 2, 60 * 64), (2, 1, 80 * 256)])
def test_pi_matrix_matches_the_coordinate_reference(d, n, count):
    """Every enhanced Lagrangian and every h = (packed v, z) of H(V): the
    packed pi(h) has the triple of the coordinate loop at (v, z)."""
    sp = SympSpace(ring(d), n)
    seen = 0
    for e in enumerate_enhanced(sp):
        for v, z in all_h_elements(sp):
            assert _triple(pi_matrix(e, (v, z))) == _triple(
                _pi_reference(sp, e, (sp.unpack(v), z)))
            seen += 1
    assert seen == count


@pytest.mark.parametrize("d,n,elements,count", [
    (1, 1, None, 24 * 6), (2, 1, 12, 12 * 80),
])
def test_translation_matrix_matches_the_coordinate_reference(d, n, elements,
                                                             count):
    """P_a from the model of e to the model of a.e, against the coordinate
    loop: every element of ASp(V) and every enhanced Lagrangian at d1n1,
    and 12 seeded elements against every enhanced Lagrangian at d2n1."""
    sp = SympSpace(ring(d), n)
    asp = enumerate_asp(sp)
    if elements is not None:
        asp = [asp[i] for i in random.Random(25).sample(range(len(asp)),
                                                         elements)]
    seen = 0
    for a in asp:
        for e in enumerate_enhanced(sp):
            dst = act_on_enhanced(sp, a, e)
            assert _triple(translation_matrix(a, e, dst)) == _triple(
                _translation_reference(sp, a, e, dst))
            seen += 1
    assert seen == count


# route 1's values as Gaussian integers: 1 - i and 1 + i
FROZEN_TRIANGLE = {
    ("std", "dual", "third"): (1, -1),
    ("std", "third", "dual"): (1, 1),
    ("dual", "std", "third"): (1, 1),
    ("dual", "third", "std"): (1, -1),
    ("third", "std", "dual"): (1, -1),
    ("third", "dual", "std"): (1, 1),
}


def test_composition_scalar_frozen_triangle():
    sp = _space()
    e = _named_enhanced(sp)
    for order, want in FROZEN_TRIANGLE.items():
        got = composition_scalar(sp, *(e[name] for name in order))
        assert got == want
        assert _gaussian(got) ** 4 == MINUS_FOUR


@pytest.mark.parametrize("d,n", [(1, 1), (1, 2)])
def test_composition_scalar_refuses_a_non_transversal_pair(d, n):
    """Each of the three pairs is checked; a repeated subspace is the
    simplest non-transversal pair."""
    sp = SympSpace(ring(d), n)
    subs = sp.enumerate_lagrangians()
    a = subs[0]
    b = next(s for s in subs if sp.transversal_k(a, s))
    eA, eB = (sp.enhance_from_lift(sp.initial_lift(r)) for r in (a, b))
    for triple in ((eA, eA, eB), (eA, eB, eB), (eA, eB, eA)):
        with pytest.raises(ValueError, match="transversal"):
            composition_scalar(sp, *triple)


def test_route3_refuses_lifts_over_other_subspaces():
    """gauss_scalar reads sigma as psi digit differences by span position,
    so lifts over other subspaces (here N's and L's swapped) are refused,
    not read."""
    sp = SympSpace(ring(1), 2)
    rows = sp.transversal_triples()[0]
    lifts = [sp.initial_lift(r) for r in rows]
    enhanced = [sp.enhance_from_lift(lt) for lt in lifts]
    with pytest.raises(ValueError, match="not over its enhancement"):
        gauss_scalar(sp, *enhanced, lift_gauss(sp, *lifts[::-1]))


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
                    frames = (sp.initial_lift(e.rows) for e in (eN, eM, eL))
                    assert gauss_scalar(sp, eN, eM, eL,
                                        lift_gauss(sp, *frames)) == c
                    assert _gaussian(c) ** 4 == MINUS_FOUR
                    count += 1
    assert count == 48


@pytest.mark.parametrize("d,n,triples,enhanced", [(1, 2, 2, None), (2, 1, 3, 64)])
def test_route3_on_every_lift_triple(d, n, triples, enhanced):
    """Route 3 reduces on any free lifts over the subspaces: on seeded
    subspace triples, gauss_scalar over every lift triple of
    enumerate_submodule_lifts equals route 2 on every enhancement triple
    (d1n2), or on 64 seeded ones of the 4,096 (d2n1)."""
    sp = SympSpace(ring(d), n)
    rng = random.Random(d * 10 + n)
    for rN, rM, rL in rng.sample(sp.transversal_triples(), triples):
        enh = [sp.enumerate_enhancements(rows) for rows in (rN, rM, rL)]
        cases = list(zip(itertools.product(*enh),
                         CharacterSum(sp, rM, rN, rL).values(*enh)))
        if enhanced:
            cases = rng.sample(cases, enhanced)
        lifts = [sp.enumerate_submodule_lifts(rows) for rows in (rN, rM, rL)]
        for lift_triple in itertools.product(*lifts):
            lifted = lift_gauss(sp, *lift_triple)
            for t, c in cases:
                assert gauss_scalar(sp, *t, lifted) == c


def _formula_reference(sp, eN, eM, eL):
    """The character sum term by term: r(m), m - r(m) and beta(m, r(m))
    recomputed for every element of M."""
    R = sp.R
    Ms, Ns = (kref.elements(sp, e.span) for e in (eM, eN))
    r = {Ms[i]: Ns[j] for i, j, *_ in sp.r_terms(eM.rows, eN.rows, eL.rows)}
    aM, aN, aL = map(_alpha_by_element, (eM, eN, eL))
    tally = [0, 0, 0, 0]
    for m in Ms:
        rm = r[m]
        lm = tuple(a ^ b for a, b in zip(m, rm))
        q = R.sub(R.sub(R.add(aM[m], aN[rm]), aL[lm]), kref.beta(sp, m, rm))
        tally[R.psi_exp(q)] += 1
    return tally[0] - tally[2], tally[1] - tally[3]


def test_formula_scalar_terms_once_per_subspace_triple():
    """All 30,720 enhanced triples at d1n2 against the term-by-term sum,
    from one CharacterSum per subspace triple with each enhancement packed
    once, and through formula_scalar; both give the same (re, im).  The
    subspace terms are computed once per subspace triple: 480 entries, and
    psi(beta(m, r(m))) is read once per element of M of each, through one
    trace mask (4 * 480 of them)."""
    sp = SympSpace(ring(1), 2)
    ref = SympSpace(ring(1), 2)
    subs = sp.enumerate_lagrangians()
    enh = {s: sp.enumerate_enhancements(s) for s in subs}
    trace_calls = 0
    plain_trace_mask = sp.trace_mask

    def counted_trace_mask(w):
        nonlocal trace_calls
        trace_calls += 1
        return plain_trace_mask(w)

    sp.trace_mask = counted_trace_mask
    count = 0
    for rN, rM, rL in sp.transversal_triples():
        k = CharacterSum(sp, rM, rN, rL)
        fibres = (enh[rN], enh[rM], enh[rL])
        for (eN, eM, eL), c in zip(itertools.product(*fibres),
                                   k.values(*fibres), strict=True):
            assert c == _formula_reference(ref, eN, eM, eL)
            assert formula_scalar(sp, eN, eM, eL) == c
            count += 1
    assert count == 30720
    assert len(sp._caches["r_terms"]) == 480
    assert trace_calls == 4 * 480
    for (M, N, L), terms in sp._caches["r_terms"].items():
        assert sp.r_terms(M, N, L) is terms
        assert [t[0] for t in terms] == list(range(4))


def _seeded_subspace_triples(sp, count, seed):
    rng = random.Random(seed)
    return [sp.sample_transversal_triple(rng) for _ in range(count)]


@pytest.mark.parametrize("d,n,per_subspace", [(1, 4, None), (4, 1, 16)])
def test_character_sum_widest_digit_vectors(d, n, per_subspace):
    """|M| = 16 elements, the widest packs any route builds (64-bit ints,
    16 fields), against the term-by-term sum above two seeded subspace
    triples: at d1n4 every one of the 16^3 enhanced triples; at d4n1, where
    each subspace has 2^16 enhancements, the 16^3 triples of 16 seeded
    random enhancements per subspace."""
    sp = SympSpace(ring(d), n)
    ref = SympSpace(ring(d), n)
    rng = random.Random(5)
    count = 0
    for rN, rM, rL in _seeded_subspace_triples(sp, 2, seed=7):
        k = CharacterSum(sp, rM, rN, rL)
        assert k.size == 16
        if per_subspace is None:
            enh = {r: sp.enumerate_enhancements(r) for r in (rN, rM, rL)}
        else:
            enh = {r: [sp.random_enhancement(sp.random_lift(r, rng), rng)
                       for _ in range(per_subspace)] for r in (rN, rM, rL)}
        assert all(len(es) == 16 for es in enh.values())
        for eN in enh[rN]:
            pN = k.pack_N(eN)
            for eM in enh[rM]:
                pM = k.pack_M(eM)
                for eL in enh[rL]:
                    c = k.value(pN + pM + k.pack_L(eL))
                    assert c == _formula_reference(ref, eN, eM, eL)
                    count += 1
    assert count == 2 * 16 ** 3


@pytest.mark.parametrize("d,n", [(1, 2), (2, 1), (1, 4), (4, 1)])
def test_character_sum_tracks_a_tampered_alpha(d, n):
    """alpha_L(l) + x at each l of L in turn (no longer an enhancement), for
    x = 1 and for an x of trace 1: m -> m - r(m) maps M onto L one to one,
    so exactly one term turns by i^-tr(x), and C changes exactly when
    tr(x) != 0 mod 4 (tr(1) = d).  The packed sum and the term-by-term sum
    change C identically.  An enhancement over the wrong subspace is
    refused."""
    sp = SympSpace(ring(d), n)
    R = sp.R
    rN, rM, rL = _seeded_subspace_triples(sp, 1, seed=11)[0]
    k = CharacterSum(sp, rM, rN, rL)
    rng = random.Random(3)
    eN, eM, eL = (sp.random_enhancement(sp.random_lift(r, rng), rng)
                  for r in (rN, rM, rL))
    pNM = k.pack_N(eN) + k.pack_M(eM)
    c = k.value(pNM + k.pack_L(eL))
    assert c == _formula_reference(sp, eN, eM, eL)
    trace_one = next(x for x in range(R.size) if R.psi_exp(x) == 1)
    changed = 0
    for x in (R.one, trace_one):
        for i in range(len(eL.alpha)):
            alpha = list(eL.alpha)
            alpha[i] = R.add(alpha[i], x)
            bad = EnhancedLagrangian(sp, eL.rows, alpha, validate=False)
            got = k.value(pNM + k.pack_L(bad))
            assert got == _formula_reference(sp, eN, eM, bad)
            assert (got != c) == (R.psi_exp(x) != 0)
            changed += got != c
    assert changed == len(eL.alpha) * (1 + (d % 4 != 0))
    for pack, wrong in ((k.pack_M, eL), (k.pack_N, eM), (k.pack_L, eN)):
        with pytest.raises(ValueError, match="enhancement is not over"):
            pack(wrong)


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
    transversal = [
        (eM, eL) for eM in enh for eL in enh
        if sp.transversal_k(eM.rows, eL.rows)
    ][::stride]
    assert len(transversal) == pairs
    dim = len(sp.transversal(enh[0].pivots))
    scaled_identity = tuple(
        tuple(ONE * (2 ** (d * n) if i == j else 0) for j in range(dim))
        for i in range(dim)
    )
    identity = tuple(tuple(ONE if i == j else ZERO
                           for j in range(dim)) for i in range(dim))
    for eM, eL in transversal:
        F = intertwiner_matrix(eM, eL)
        Fc = F.to_cyc()
        F_star = tuple(tuple(Fc[j][i].galois(7) for j in range(dim))
                       for i in range(dim))
        assert F.adjoint().to_cyc() == F_star
        assert (F.adjoint() @ F).to_cyc() == scaled_identity
        assert (F.inverse() @ F).to_cyc() == identity


def _matrix_mul_reference(A, B):
    """The definition: each entry a sum of Cyc8 products."""
    return tuple(
        tuple(sum((A[i][k] * B[k][j] for k in range(len(B))), ZERO)
              for j in range(len(B[0])))
        for i in range(len(A))
    )


def _kron_reference(A, B):
    return tuple(
        tuple(x * y for x in ra for y in rb) for ra in A for rb in B
    )


def _random_zi(rng, rows, cols, density, e, s, bound=3):
    """Sparse Z[i] entries with parts in -bound..bound, under
    zeta^e sqrt2^s."""
    def entry():
        if rng.random() >= density:
            return (0, 0)
        return (rng.randrange(-bound, bound + 1),
                rng.randrange(-bound, bound + 1))
    return ZiMatrix(e, s, [[entry() for _ in range(cols)] for _ in range(rows)])


def _with_zero_row(M, i):
    rows = M.rows[:i] + (((0, 0),) * len(M.rows[0]),) + M.rows[i + 1:]
    return ZiMatrix(M.zeta_exp, M.sqrt2_exp, rows)


def _with_zero_col(M, j):
    rows = tuple(r[:j] + ((0, 0),) + r[j + 1:] for r in M.rows)
    return ZiMatrix(M.zeta_exp, M.sqrt2_exp, rows)


@pytest.mark.parametrize("shape", [(1, 3, 2), (3, 1, 4), (2, 5, 3), (16, 16, 16)])
def test_zi_matrix_product_matches_entrywise_sums(shape):
    """Product, Kronecker product and ratio against the Cyc8 definitions,
    over mixed zeta and sqrt2 exponents, with a zero row and column."""
    rows, mid, cols = shape
    rng = random.Random(8 * rows + mid + cols)
    for density in (1.0, 0.4, 0.1):
        # an odd zeta exponent over a negative sqrt2 exponent times an even
        # one over a nonnegative one
        A = _random_zi(rng, rows, mid, density, 2 * rng.randrange(4) + 1,
                       -rng.randrange(1, 6))
        B = _random_zi(rng, mid, cols, density, 2 * rng.randrange(4),
                       rng.randrange(6))
        if rows > 1:
            A = _with_zero_row(A, rows - 1)
        if cols > 1:
            B = _with_zero_col(B, 0)
        Ac, Bc = A.to_cyc(), B.to_cyc()
        assert (A @ B).to_cyc() == _matrix_mul_reference(Ac, Bc)
        if rows * mid * cols <= 64:
            assert A.kron(B).to_cyc() == _kron_reference(Ac, Bc)
        e, s = rng.randrange(8), rng.randrange(-4, 5)
        c = ZETA ** e * SQRT2 ** s
        scaled = B.scaled(e, s)
        assert scaled.to_cyc() == tuple(tuple(c * x for x in r) for r in Bc)
        if not B.is_zero():
            assert scaled.ratio(B) == (e, s)
            assert cyc8_ratio(scaled, B) == c
            assert scaled == ZiMatrix(0, 0, B.rows).scaled(
                B.zeta_exp + e, B.sqrt2_exp + s)


def _zi_matmul_reference(X, Y):
    """X Y over Z[i] for row tuples, by the schoolbook loop with zero
    entries skipped: the reference for the packed kernel."""
    m = len(Y[0])
    ynz = [[(j, br, bi) for j, (br, bi) in enumerate(row) if br or bi]
           for row in Y]
    out = []
    for row in X:
        re = [0] * m
        im = [0] * m
        for k, (ar, ai) in enumerate(row):
            if ar or ai:
                for j, br, bi in ynz[k]:
                    re[j] += ar * br - ai * bi
                    im[j] += ar * bi + ai * br
        out.append(tuple(zip(re, im)))
    return tuple(out)


@pytest.mark.parametrize("bound", [1, 3, 2 ** 7, 2 ** 8 - 1, 2 ** 8, 10 ** 30])
@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 4, 1), (4, 1, 3),
                                   (3, 5, 2), (2, 2, 7), (16, 16, 16),
                                   (2, 127, 2)])
def test_zi_product_matches_the_reference_loop(shape, bound):
    """The packed kernel against the schoolbook loop: negative parts, parts
    up to 10^30 and at the slot-width boundaries, sparse and all-zero
    operands, and each operand reused at a second slot width.  At inner
    dimension 127 with parts below 2^8 the width bound is 8 + 8 + 7 + 2 =
    25 bits, one past a multiple of 8, so a bound one bit short rounds
    down to 24 bits and overflows."""
    rows, mid, cols = shape
    rng = random.Random(f"{shape}{bound}")
    for density in (1.0, 0.3, 0.0):
        A = _random_zi(rng, rows, mid, density, 0, 0, bound)
        B = _random_zi(rng, mid, cols, density, 0, 0, bound)
        big = _random_zi(rng, rows, mid, 1.0, 0, 0, 10 ** 12)
        for X, Y in ((A, B), (big, B), (A, B)):
            assert (X @ Y).rows == _zi_matmul_reference(X.rows, Y.rows)
    # parts of size bound only: the real parts of X Y reach +-2 mid bound^2,
    # the most the slot width allows for
    X = ZiMatrix(0, 0, [[(bound, -bound)] * mid] * rows)
    for b in (bound, -bound):
        Y = ZiMatrix(0, 0, [[(b, b)] * cols] * mid)
        assert (X @ Y).rows == _zi_matmul_reference(X.rows, Y.rows)
        assert (X @ Y).rows[0][0] == (2 * mid * bound * b, 0)


def test_zi_product_refuses_shapes_that_do_not_chain():
    with pytest.raises(ValueError, match="do not chain"):
        ZiMatrix(0, 0, [[(1, 0), (0, 1)]]) @ ZiMatrix(0, 0, [[(1, 0)]])


def _product_reference(X, Y):
    """X @ Y by the schoolbook loop, under the summed exponents."""
    return ZiMatrix(X.zeta_exp + Y.zeta_exp, X.sqrt2_exp + Y.sqrt2_exp,
                    _zi_matmul_reference(X.rows, Y.rows))


@pytest.mark.parametrize("bound", [1, 3, 2 ** 7, 2 ** 8 - 1, 2 ** 8, 10 ** 30])
@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 4, 1), (4, 1, 3),
                                   (3, 5, 2), (2, 2, 7), (16, 16, 16),
                                   (2, 127, 2)])
def test_product_ratio_matches_the_built_product(monkeypatch, shape, bound):
    """X.product_ratio(Y, Z), which never builds X Y, against
    (X @ Y).ratio(Z) and the Cyc8 ratio of the schoolbook product, on the
    shapes and bounds of the kernel test: Z = zeta^e sqrt2^s X Y for every
    e and s in 0..3 (the Cyc8 reference at s = 0 and 1), with the monomial
    in Z's Gaussian parts where it lies in Z[i]; Z off by one in its last
    row and column; a zero Z, a zero X Y and both; and the extreme operands
    of the kernel test, whose product parts reach its slot bound.  Both
    sides run the packed test at a width of at least b(X Y) + 2 b(Z) + 2,
    the bound of test_packed_proportion_width_bound_is_sharp."""
    rows, mid, cols = shape
    rng = random.Random(f"ratio{shape}{bound}")
    packed_proportion, widths = models._packed_proportion, []

    def recording(rows, width, Z):
        widths.append(width)
        return packed_proportion(rows, width, Z)

    monkeypatch.setattr(models, "_packed_proportion", recording)

    def ratio(X, Y, Z, cyc8=True):
        widths.clear()
        got = X.product_ratio(Y, Z)
        assert got == (X @ Y).ratio(Z)
        need = _product_reference(X, Y)._entry_bits() + 2 * Z._entry_bits() + 2
        assert len(widths) == 2 and min(widths) >= need
        if cyc8:
            r = cyc8_ratio(_product_reference(X, Y), Z)
            assert got == (None if r is None else _exponents_or_none(r))
        return got

    def random_pair():
        while True:
            X = _random_zi(rng, rows, mid, 1.0, rng.randrange(8),
                           rng.randint(-3, 3), bound)
            Y = _random_zi(rng, mid, cols, 1.0, rng.randrange(8),
                           rng.randint(-3, 3), bound)
            if not _product_reference(X, Y).is_zero():
                return X, Y

    extreme = (ZiMatrix(0, 0, [[(bound, -bound)] * mid] * rows),
               ZiMatrix(0, 0, [[(bound, bound)] * cols] * mid))
    for X, Y in (random_pair(), extreme):
        XY = _product_reference(X, Y)
        for e in range(8):
            for s in range(4):
                o = (e - s) % 2
                g = monomial_gaussian(e - o, s)
                Z = ZiMatrix(XY.zeta_exp + o, XY.sqrt2_exp,
                             [[gaussian_mul(z, g) for z in row] for row in XY.rows])
                assert ratio(X, Y, Z, cyc8=s < 2) == (-e % 8, -s)
        off = [list(row) for row in Z.rows]
        re, im = off[-1][-1]
        off[-1][-1] = (re + 1, im)
        got = ratio(X, Y, ZiMatrix(Z.zeta_exp, Z.sqrt2_exp, off))
        assert got is None or rows * cols == 1
        zero = ZiMatrix(0, 0, [[(0, 0)] * cols] * rows)
        null = ZiMatrix(0, 0, [[(0, 0)] * mid] * rows)
        assert ratio(X, Y, zero) is ratio(null, Y, Z) is ratio(null, Y, zero) is None
    with pytest.raises(ValueError, match="do not chain"):
        X.product_ratio(ZiMatrix(0, 0, [[(1, 0)] * cols] * (mid + 1)), Z)
    with pytest.raises(ValueError, match="differ"):
        X.product_ratio(Y, ZiMatrix(0, 0, [[(1, 0)] * (cols + 1)] * rows))
    with pytest.raises(ValueError, match="differ"):
        XY.ratio(ZiMatrix(0, 0, [[(1, 0)] * cols] * (rows + 1)))


def test_packed_proportion_width_bound_is_sharp():
    """The packed row test is exact at slot width b(X) + 2 b(Z) + 2 and not
    one bit below.  These rows have b(X) = 6 and b(Z) = 3 and are not
    proportional: with q, p the first entries of Z and X, the second entry
    of X |q|^2 - p conj(q) Z is 2^13 - i.  At 14 bits the test finds that;
    at 13 the slot pair (2^13, -1) packs to 0, and the test aliases."""
    X = ZiMatrix(0, 0, [((-59, 37), (60, 5))])
    Z = ZiMatrix(0, 0, [((-7, -2), (-7, -7))])
    (p, x), (q, z) = X.rows[0], Z.rows[0]
    assert gaussian_mul(x, q) != gaussian_mul(z, p)
    assert X._entry_bits() + 2 * Z._entry_bits() + 2 == 14
    assert _packed_proportion([P for P, _ in X._packed(14)[0]], 14, Z) is None
    assert _packed_proportion([P for P, _ in X._packed(13)[0]], 13, Z) == (p, q)
    # p / q is no monomial, so the ratio cannot show the alias: a false
    # monomial would need |q|^2 to divide a slot difference of -1
    assert X.ratio(Z) is None and gaussian_monomial(p, q) is None


def mu4_exponent(x):
    """k with x = i^k, or None: the Cyc8 reference for mu4_ratio."""
    return {monomial_cyc(2 * k, 0): k for k in range(4)}.get(x)


def monomial_exponents(c):
    """(e, s) with c = zeta^e sqrt2^s exactly, e in 0..7, by a search over
    16 Cyc8 candidates; ValueError when c is not of that form.  The
    reference for gaussian_monomial and ZiMatrix.ratio."""
    nz = [x for x in c.a if x]
    if nz:
        # every nonzero coefficient of zeta^e sqrt2^(2t or 2t+1) is +-2^t
        t = abs(nz[0]).bit_length() - c.den.bit_length()
        for s in (2 * t, 2 * t + 1):
            for e in range(8):
                if ZETA ** e * SQRT2 ** s == c:
                    return e, s
    raise ValueError(f"{c} is not zeta^e * sqrt2^s")


def _exponents_or_none(c):
    try:
        return monomial_exponents(c)
    except ValueError:
        return None


def cyc8_ratio(X, Y):
    """The Cyc8 r with X == r Y on the dense Cyc8 matrices, or None when Y
    is zero or X is not proportional to it: the reference for ratio."""
    Xc, Yc = X.to_cyc(), Y.to_cyc()
    pairs = [(x, y) for rx, ry in zip(Xc, Yc) for x, y in zip(rx, ry)]
    first = next(((x, y) for x, y in pairs if y), None)
    if first is None:
        return None
    r = first[0] / first[1]
    return r if all(x == r * y for x, y in pairs) else None


def _gaussian(z):
    re, im = z
    return Cyc8((re, 0, im, 0))


def test_gaussian_monomial_matches_the_search():
    """gaussian_monomial(p, q) against the search on p / q: p = zeta^e
    sqrt2^s q for every e in 0..7 and s in -8..8 with e = s (mod 2), the
    others being outside Q(i), for random Gaussian q divisible by
    16 = (1 + i)^8; then random pairs, most of them no monomial."""
    rng = random.Random(29)

    def gaussian(bound):
        return rng.randint(-bound, bound), rng.randint(-bound, bound)

    for e in range(8):
        for s in range(-8, 9):
            c = ZETA ** e * SQRT2 ** s
            assert monomial_cyc(e, s) == c
            if (e - s) % 2:
                continue
            for _ in range(4):
                q = (0, 0)
                while q == (0, 0):
                    q = gaussian(5)
                q = (16 * q[0], 16 * q[1])
                a0, a1, a2, a3 = (c * _gaussian(q)).a
                assert a1 == a3 == 0
                assert gaussian_monomial((a0, a2), q) == (e, s)
    seen = set()
    for _ in range(2000):
        p, q = gaussian(4), gaussian(4)
        want = (None if q == (0, 0)
                else _exponents_or_none(_gaussian(p) / _gaussian(q)))
        assert gaussian_monomial(p, q) == want, (p, q)
        seen.add(want is None)
    assert seen == {True, False}
    for p in ((0, 0), (3, 0), (1, 2)):
        assert gaussian_monomial(p, (1, 0)) is None
    # (1 + 2i) q over q, and a zero divisor
    assert gaussian_monomial((-1, 3), (1, 1)) is None
    assert gaussian_monomial((1, 0), (0, 0)) is None
    assert gaussian_monomial((0, 0), (0, 0)) is None


def test_monomial_gaussian_inverts_gaussian_monomial():
    """monomial_gaussian(e, s) against monomial_cyc for every e in 0..7 and
    s in -8..8: the same number where zeta^e sqrt2^s lies in Z[i], None
    exactly where it does not, and back to (e, s) through
    gaussian_monomial(., (1, 0))."""
    inside = 0
    for e in range(8):
        for s in range(-8, 9):
            c, z = monomial_cyc(e, s), monomial_gaussian(e, s)
            if c.den == 1 and c.a[1] == c.a[3] == 0:
                assert _gaussian(z) == c
                assert gaussian_monomial(z, (1, 0)) == (e, s)
                inside += 1
            else:
                assert z is None, (e, s)
    # s = 0..8 and the four e with e = s (mod 2)
    assert inside == 9 * 4


def test_gaussian_mul_matches_the_cyc8_product():
    """The Gaussian product against the Cyc8 product on random pairs, small
    and far beyond machine words, zero included."""
    rng = random.Random(30)
    for bound in (1, 5, 10 ** 30):
        for _ in range(300):
            p, q = [(rng.randint(-bound, bound), rng.randint(-bound, bound))
                    for _ in range(2)]
            assert _gaussian(gaussian_mul(p, q)) == _gaussian(p) * _gaussian(q)


def test_mu4_ratio_matches_the_cyc8_ratio():
    """ratio, mu4_ratio and == against the Cyc8 reference over random Z[i]
    parts: i^c, sqrt2-scaled and (1 + i)-scaled multiples, (1 + 2i)-scaled
    ones, non-proportional pairs and zero operands, under every zeta and a
    range of sqrt2 exponents on each side."""
    rng = random.Random(4)

    def both(X, Y):
        r = cyc8_ratio(X, Y)
        exponents = None if r is None else _exponents_or_none(r)
        assert X.ratio(Y) == exponents
        assert (X == Y) == (r == ONE or X.is_zero() and Y.is_zero())
        return X.mu4_ratio(Y), None if r is None else mu4_exponent(r)

    seen = set()
    for _ in range(300):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        Y = _random_zi(rng, rows, cols, 0.7, rng.randrange(8),
                       rng.randint(-3, 3))
        # 1, i, -1, -i, zeta, 1 + i, 1 - i and zeta i as exponent pairs
        e, s = rng.choice([(0, 0), (2, 0), (4, 0), (6, 0), (1, 0), (1, 1),
                           (7, 1), (3, 0)])
        s += rng.randint(-3, 3)
        by_1_2i = [[(re - 2 * im, 2 * re + im) for re, im in row]
                   for row in Y.rows]
        for X in (ZiMatrix(rng.randrange(8), rng.randint(-3, 3), Y.rows),
                  _random_zi(rng, rows, cols, 0.7, Y.zeta_exp, Y.sqrt2_exp),
                  ZiMatrix(Y.zeta_exp, Y.sqrt2_exp, by_1_2i)):
            got, want = both(X, Y)
            assert got == want
            seen.add(got)
        if not Y.is_zero():
            got, want = both(Y.scaled(e, s), Y)
            assert got == want
            seen.add(got)
    assert seen == {None, 0, 1, 2, 3}
    X = ZiMatrix(3, -2, [((1, 2), (0, -1))])
    for k in range(4):
        assert X.scaled(2 * k, 0).mu4_ratio(X) == k
    # sqrt2 = zeta (1 - i): zeta^-1 sqrt2 = 1 - i, zeta sqrt2 = 1 + i and
    # zeta sqrt2^-1 (1 + i) = (1 + i) / (1 - i) = i
    one = [((1, 0),)]
    assert ZiMatrix(7, 1, one).mu4_ratio(ZiMatrix(0, 0, [((1, -1),)])) == 0
    assert ZiMatrix(1, 1, one).mu4_ratio(ZiMatrix(0, 0, [((-1, 1),)])) == 3
    assert ZiMatrix(1, -1, [((1, 1),)]).mu4_ratio(ZiMatrix(0, 0, one)) == 1
    assert ZiMatrix(1, 1, one).mu4_ratio(ZiMatrix(0, 0, one)) is None
    assert ZiMatrix(1, 0, one).mu4_ratio(ZiMatrix(0, 0, one)) is None
    zero = ZiMatrix(0, 0, [((0, 0), (0, 0))])
    assert zero.mu4_ratio(X) is None and X.mu4_ratio(zero) is None
    with pytest.raises(ValueError):
        X.mu4_ratio(ZiMatrix(0, 0, [((1, 0),), ((0, 1),)]))


def test_zi_matrix_monomial_16x16():
    """Monomial operators with i-power entries under zeta^e sqrt2^s, the
    shape of pi(h) and P_a: product, inverse by adjoint and ratio."""
    rng = random.Random(16)

    def monomial():
        perm = list(range(16))
        rng.shuffle(perm)
        M = ZiMatrix.monomial([(rng.randrange(4), j) for j in perm], 16)
        return ZiMatrix(rng.randrange(8), rng.randrange(-4, 5), M.rows)

    identity = tuple(tuple(ONE if i == j else ZERO
                           for j in range(16)) for i in range(16))
    for _ in range(3):
        A, B = monomial(), monomial()
        assert (A @ B).to_cyc() == _matrix_mul_reference(A.to_cyc(), B.to_cyc())
        assert (A @ A.inverse()).to_cyc() == identity
        assert (A.inverse() @ A).to_cyc() == identity
        assert A.ratio(A @ B @ B.inverse()) == (0, 0)
    zero = ZiMatrix(3, -2, [[(0, 0)] * 16 for _ in range(16)])
    prod = monomial() @ zero
    assert prod == zero == ZiMatrix(0, 0, zero.rows)
    assert prod.is_zero()
    assert all(x == ZERO for r in prod.to_cyc() for x in r)


def test_zi_matrix_inverse_by_adjoint():
    F = ZiMatrix(0, 0, [[(1, 0), (1, 0)], [(1, 0), (-1, 0)]])
    prod = (F @ F.inverse()).to_cyc()
    for r in range(2):
        for c in range(2):
            assert prod[r][c] == (ONE if r == c else ZERO)
    assert F.inverse().to_cyc() == tuple(
        tuple(x / 2 for x in row) for row in F.to_cyc())
    # A A* not scalar, not a power of 2 (A A* = 3 I), singular, not square
    for rows in ([[(1, 0), (1, 0)], [(0, 0), (1, 0)]],
                 [[(1, 0), (1, 1)], [(-1, 1), (1, 0)]],
                 [[(0, 0), (0, 0)], [(0, 0), (0, 0)]],
                 [[(1, 0), (0, 0)]]):
        with pytest.raises(ValueError):
            ZiMatrix(1, 3, rows).inverse()


def test_zi_matrix_ratio_and_equality():
    X = ((1, 2), (0, -1))
    A = ZiMatrix(0, 0, [X])
    assert ZiMatrix(2, 0, [X]) == ZiMatrix(0, 0, [((-2, 1), (1, 0))])  # i X
    assert ZiMatrix(1, 1, [X]) == ZiMatrix(0, 0, [((-1, 3), (1, -1))])  # (1+i) X
    assert ZiMatrix(0, 2, [X]) == ZiMatrix(0, 0, [((2, 4), (0, -2))])
    assert ZiMatrix(1, 0, [X]) != A
    assert ZiMatrix(0, 1, [X]) != A
    assert A != ZiMatrix(0, 0, [X, X])
    assert ZiMatrix(1, 0, [((0, 0), (0, 0))]) == ZiMatrix(0, 7, [((0, 0), (0, 0))])
    # non-proportional operands and a zero divisor
    assert A.ratio(ZiMatrix(0, 0, [((1, 2), (0, 1))])) is None
    assert A.ratio(ZiMatrix(5, 3, [((0, 0), (0, 0))])) is None
    # a zero numerator: the ratio 0 is no monomial
    assert ZiMatrix(0, 0, [((0, 0), (0, 0))]).ratio(A) is None
    # (1 + 2i) Y is proportional to Y, but by no monomial
    Y = ((0, 0), (1, -1), (2, 1))
    assert ZiMatrix(3, -1, [((0, 0), (3, 1), (0, 5))]).ratio(
        ZiMatrix(7, 2, [Y])) is None
    # X = (1 + i) Y with a zero entry first: zeta^-4 sqrt2^-3 zeta sqrt2
    X = ((0, 0), (2, 0), (1, 3))
    r = ZiMatrix(3, -1, [X]).ratio(ZiMatrix(7, 2, [Y]))
    assert r == (5, -2)
    assert monomial_cyc(*r) == cyc8_ratio(ZiMatrix(3, -1, [X]),
                                          ZiMatrix(7, 2, [Y]))
    assert ZiMatrix(7, 2, [Y]).ratio(ZiMatrix(3, -1, [X])) == (3, 2)
    with pytest.raises(ValueError):
        A.ratio(ZiMatrix(0, 0, [X, X]))


def test_monomial_exponents():
    """The reference search, and monomial_cyc against it."""
    for e in range(8):
        for s in range(-5, 6):
            assert monomial_exponents(ZETA ** e * SQRT2 ** s) == (e, s)
            assert monomial_exponents(monomial_cyc(e, s)) == (e, s)
    for c in (ONE + ZETA, ONE * 3, ZERO,
              ONE + 2 * I, ONE * Fraction(1, 3)):
        with pytest.raises(ValueError):
            monomial_exponents(c)
