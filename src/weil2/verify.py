"""Verification suites: every algebraic identity the library is built on,
checked in exact arithmetic with zero tolerance.

Each suite returns a list of Check records (name, total, failures,
detail); a check passes only when it saw at least one case and none
failed.  Reports built from them are deterministic: enumeration orders are
canonical and all sampling goes through a seeded Mersenne-Twister instance,
so identical configurations produce byte-identical output.
"""
from __future__ import annotations

import collections
import functools
import itertools
import random
from typing import NamedTuple

from . import PRNG_NAME, SUITE_NAMES, linalg, witt
from .galois import MAX_D, ring
from .heisenberg import (
    all_h_elements,
    enumerate_asp,
    enumerate_sp_R,
    enumerate_sp_k,
    lift_sp,
    preserves_residue_quadratic,
    residue_polarization,
    symplectic_lift_matrix,
)
from .models import (
    CharacterSum,
    ZiMatrix,
    composition_scalar,
    formula_scalar,
    gauss_scalar,
    gaussian_mul,
    intertwiner_matrix,
    lift_gauss,
    pi_matrix,
)
from .symplectic import (
    SympSpace,
    check_cocycle,
    check_sampled,
    check_sweep,
    enumerate_enhanced,
)
from .transport import (
    enhanced_of_oriented,
    monomial_product,
    splitting_transport,
    transport_square,
    trivialization_transport,
    trivializing_scalar,
    wedge_form,
)
from .weil import (
    SplitWeilRepresentation,
    WeilRepresentation,
    character_norm_is_one,
    coboundary_ratio,
)


class Check(NamedTuple):
    """A named check over `total` cases, `failures` of which failed.  It
    passes only when it saw at least one case and none failed."""
    name: str
    total: int
    failures: int
    detail: str = ""

    @property
    def passed(self):
        return self.total > 0 and self.failures == 0


def _c(name, holds, detail=""):
    """A check of one fact."""
    return Check(name, 1, 0 if holds else 1, detail)


def _count(outcomes):
    """(total, failures) over an iterable of per-case outcomes, each true
    when its case held."""
    total = failures = 0
    for ok in outcomes:
        total += 1
        if not ok:
            failures += 1
    return total, failures


def _power(z, k):
    """z^k for a Gaussian integer z = (re, im) and k >= 1."""
    return functools.reduce(gaussian_mul, (z,) * k)


# -- Witt monoid and Gauss character (suite "witt") ---------------------------


def suite_witt():
    return witt_core_checks() + gw_checks()


def witt_core_checks():
    checks = []
    grams = [g for r in (1, 2, 3) for g in witt.all_unimodular_grams(r)]

    total, bad = _count(gaussian_mul((re, im), (re, -im)) == (2 ** len(B), 0)
                        for B, (re, im) in zip(grams, map(witt.gauss_sum, grams)))
    checks.append(Check("witt.purity.rank<=3", total, bad,
                        f"{total} unimodular grams, {bad} failures"))

    total, bad = _count(
        witt.apply_congruence(U, B) == witt.canonical_gram(counts)
        for B, (counts, U) in zip(grams, map(witt.decompose, grams)))
    checks.append(Check("witt.decompose-witness", total, bad,
                        f"{total} grams, {bad} witness failures"))

    m4m4 = witt.direct_sum(witt.M4, witt.M4)
    hh = witt.direct_sum(witt.HYP, witt.HYP)
    ok1 = witt.apply_congruence(witt.REL1_WITNESS, m4m4) == hh
    ok1 = ok1 and witt.is_isometric(m4m4, hh)
    checks.append(_c("witt.rel1", ok1, "M4+M4 ~ HYP+HYP, witness + brute force"))

    d111 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    t2 = witt.direct_sum(((3,),), witt.M4)
    ok2 = witt.apply_congruence(witt.REL2_WITNESS, d111) == t2
    ok2 = ok2 and witt.is_isometric(d111, t2)
    checks.append(_c("witt.rel2", ok2, "<1,1,1> ~ <3>+M4, witness + brute force"))

    d333 = ((3, 0, 0), (0, 3, 0), (0, 0, 3))
    t3 = witt.direct_sum(((1,),), witt.M4)
    ok3 = witt.apply_congruence(witt.REL3_WITNESS, d333) == t3
    ok3 = ok3 and witt.is_isometric(d333, t3)
    checks.append(_c("witt.rel3", ok3, "<3,3,3> ~ <1>+M4, witness + brute force"))

    g1 = witt.gauss_sum(((1,),))
    checks.append(_c("witt.gauss-of-one", g1 == (1, 1) and
                     _power(g1, 8) == (16, 0), "G(<1>) = 1+i, eighth power 16"))
    return checks


def gw_checks():
    checks = []
    small = [g for r in (1, 2) for g in witt.all_unimodular_grams(r)]

    def gw(B):
        return witt.gw_exponent(witt.decompose(B)[0])

    gw_of = {B: gw(B) for B in small}
    total, bad = _count(gw(witt.direct_sum(A, B)) == (gw_of[A] + gw_of[B]) % 8
                        for A in small for B in small)
    checks.append(Check("gw.additive", total, bad,
                        f"{total} direct sums, {bad} failures"))

    orders = []
    for k in range(1, 9):
        diag = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
        counts, _ = witt.decompose(diag)
        orders.append(witt.gw_exponent(counts))
    ok = orders == [1, 2, 3, 4, 5, 6, 7, 0]
    cm4, _ = witt.decompose(witt.M4)
    ok = ok and witt.gw_exponent(cm4) == 4
    checks.append(_c("gw.generator-order", ok,
                     "class(<1>) has order 8; class(M4) = 4"))

    def fourth_power_holds(B):
        quad = B
        for _ in range(3):
            quad = witt.direct_sum(quad, B)
        r = len(B)
        want = ((-1) ** r * 4 ** r, 0)
        return witt.gauss_sum(quad) == want and _power(witt.gauss_sum(B), 4) == want

    total, bad = _count(map(fourth_power_holds, small))
    checks.append(Check("gw.gauss-fourth-power", total, bad,
                        f"G(4[V,B]) = (-1)^r 4^r over {total} forms"))

    total, bad = _count(
        (2 * witt.gw_exponent(counts)) % 8 == 0
        for r in (4, 8) for counts in witt.tuples_of_rank(r)
        if witt.counts_disc(counts) == 1)
    checks.append(Check("gw.vanishing", total, bad,
                        f"2X = 0 for {total} classes with 4|rank, disc 1"))
    return checks


# -- Intertwiner cocycle (suite "cocycle") ------------------------------------


def _fibred(sp, fibre):
    """Every (xN, xM, xL) with each x in the fibre list of its subspace,
    over the pairwise-transversal Lagrangian triples of sp, in
    itertools.product order; fibre has a list for every Lagrangian."""
    for rN, rM, rL in sp.transversal_triples():
        yield from itertools.product(fibre[rN], fibre[rM], fibre[rL])


def cocycle_checks_small():
    """n = d = 1: all 48 transversal enhanced triples, three routes; the
    fourth power is read off route 2, as the sampled check reads it."""
    sp = SympSpace(ring(1), 1)
    by_rows = {}
    for e in enumerate_enhanced(sp):
        by_rows.setdefault(e.rows, []).append(e)
    routes = [(composition_scalar(sp, *t), formula_scalar(sp, *t),
               gauss_scalar(sp, *t, lift_gauss(sp, *(sp.initial_lift(e.rows)
                                                    for e in t))))
              for t in _fibred(sp, by_rows)]
    total, bad_route = _count(c1 == c2 == c3 for c1, c2, c3 in routes)
    _, bad_pow = _count(_power(c2, 4) == (-4, 0) for _, c2, _ in routes)
    return [
        Check("cocycle.three-route.d1n1", total, bad_route,
              f"{total} enhanced triples, {bad_route} disagreements"),
        Check("cocycle.fourth-power.d1n1", total, bad_pow,
              f"C^4 = -4 on {total} triples, {bad_pow} failures"),
    ]


def cocycle_checks_exhaustive(d, n):
    """Exhaustive fourth-power and oriented-identity sweep; refused, before
    any work, at shapes where it would visit more than MAX_SWEEP triples
    (every shape with d*n > 2)."""
    check_sweep(d, n)
    R = ring(d)
    sp = SympSpace(R, n)
    subs = sp.enumerate_lagrangians()
    triples = sp.transversal_triples()
    enh = {rows: sp.enumerate_enhancements(rows) for rows in subs}
    dn = d * n
    target4 = ((-1) ** dn * 4 ** dn, 0)
    tag = f"d{d}n{n}"

    # C takes few values, so the fourth power is taken once per distinct value
    counts = collections.Counter()
    for (rN, rM, rL) in triples:
        counts.update(CharacterSum(sp, rM, rN, rL).values(
            enh[rN], enh[rM], enh[rL]))
    total = sum(counts.values())
    bad_pow = sum(m for c, m in counts.items() if _power(c, 4) != target4)
    checks = [Check(f"cocycle.fourth-power.{tag}", total, bad_pow,
                    f"C^4 = {(-1) ** dn * 4 ** dn} on {total} enhanced triples, "
                    f"{bad_pow} failures")]

    # oriented identity: C of the canonical enhancements equals the plain
    # Gauss sum of tr(omega_tilde_L); orientation units enter neither side.
    lifts = {rows: sp.enumerate_submodule_lifts(rows) for rows in subs}
    canon = {rows: [sp.enhance_from_lift(lt) for lt in lifts[rows]]
             for rows in subs}
    # the grams take few values (at most 64 at d1n2, over 245,760 triples)
    gauss_of_gram = functools.cache(
        lambda gram: witt.gauss_sum(witt.trace_form(R, gram)))

    def oriented_outcomes():
        for (rN, rM, rL) in triples:
            cs = CharacterSum(sp, rM, rN, rL).values(canon[rN], canon[rM], canon[rL])
            for (Nt, Mt, Lt), c in zip(
                    itertools.product(lifts[rN], lifts[rM], lifts[rL]), cs):
                yield c == gauss_of_gram(sp.omega_tilde_L_gram(Mt, Nt, Lt))

    total_or, bad_or = _count(oriented_outcomes())
    checks.append(Check(f"cocycle.oriented-identity.{tag}", total_or, bad_or,
                        f"C = G([M, tr w_L]) on {total_or} canonical lift triples, "
                        f"{bad_or} failures"))
    return checks


def _shape(d, n):
    """(d, n) with None meaning 1; ValueError for d outside 1..4 or n < 1."""
    d = 1 if d is None else d
    n = 1 if n is None else n
    if not 1 <= d <= MAX_D:
        raise ValueError(f"d must be in 1..{MAX_D}, got {d}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return d, n


def cocycle_checks_sampled(d, n, count, seed):
    """Seeded sample of pairwise-transversal triples: three-route agreement,
    fourth power, and the oriented identity.  It draws what a sampled
    cocycle table with the same d, n, count and seed lists, each triple
    built by SympSpace.sample_transversal_triple with no Lagrangian list.
    Route 3 and the oriented identity read one lift_gauss of the drawn
    lifts: one gram, one Gauss sum and their canonical enhancements."""
    check_sampled(d, n, count)
    rng = random.Random(seed)
    R = ring(d)
    sp = SympSpace(R, n)
    dn = d * n
    target4 = ((-1) ** dn * 4 ** dn, 0)
    tag = f"d{d}n{n}"

    def outcomes():
        """(routes agree, fourth power, oriented identity) on one draw."""
        (Nt, eN), (Mt, eM), (Lt, eL) = sp.random_enhanced_triple(rng)
        c1 = composition_scalar(sp, eN, eM, eL)
        c2 = formula_scalar(sp, eN, eM, eL)
        lifted = lift_gauss(sp, Nt, Mt, Lt)
        c3 = gauss_scalar(sp, eN, eM, eL, lifted)
        return (c1 == c2 == c3, _power(c2, 4) == target4,
                formula_scalar(sp, *lifted.canon) == lifted.gauss)

    route, power, oriented = zip(*(outcomes() for _ in range(count)))
    total, bad_route = _count(route)
    return [
        Check(f"cocycle.three-route.{tag}", total, bad_route,
              f"{count} sampled triples, {bad_route} disagreements"),
        Check(f"cocycle.fourth-power.{tag}", *_count(power),
              f"C^4 = {(-1) ** dn * 4 ** dn} on {count} sampled triples"),
        Check(f"cocycle.oriented-identity.{tag}", *_count(oriented),
              f"C = G([M, tr w_L]) on {count} sampled canonical triples"),
    ]


def suite_cocycle(d=None, n=None, mode=None, sample_count=200, seed=0):
    if d is not None or n is not None:
        d, n = _shape(d, n)
        if check_cocycle(d, n, mode, sample_count) == "exhaustive":
            checks = cocycle_checks_exhaustive(d, n)
            if d * n == 1:
                # the small checks include the same fourth-power sweep
                small = cocycle_checks_small()
                names = {c.name for c in small}
                checks = small + [c for c in checks if c.name not in names]
            return checks
        return cocycle_checks_sampled(d, n, sample_count, seed)
    checks = cocycle_checks_small()
    checks += cocycle_checks_exhaustive(2, 1)
    checks += cocycle_checks_exhaustive(1, 2)
    for (dd, nn) in ((4, 1), (2, 2), (1, 4)):
        checks += cocycle_checks_sampled(dd, nn, max(70, sample_count // 3), seed)
    return checks


# -- Trivialization (suite "trivialization") ----------------------------------


def materialize_transport(T):
    """The honest matrix on the 4th tensor power: scalar * P tensor ... P."""
    P = out = T.matrix
    for _ in range(T.power - 1):
        out = out.kron(P)
    return out.scaled(*T.scalar)


def suite_trivialization():
    R = ring(1)
    sp = SympSpace(R, 1)
    enh = enumerate_enhanced(sp)
    T = {(a, b): trivialization_transport(sp, a, b) for a in enh for b in enh}

    total, bad = _count(
        T[a, b].composes_to(T[b, c], T[a, c])
        for a, b, c in itertools.product(enh, repeat=3))
    checks = [Check("trivialization.multiplicative", total, bad,
                    f"{total} ordered triples, {bad} failures")]

    # every admissible auxiliary K yields the same transport
    A = trivializing_scalar(sp)
    total, bad = _count(
        T[eM, eL].is_product(monomial_product(A, A), intertwiner_matrix(eM, eK),
                             intertwiner_matrix(eK, eL))
        for eM, eL, eK in itertools.product(enh, repeat=3)
        if sp.transversal_k(eK.rows, eM.rows) and sp.transversal_k(eK.rows, eL.rows))
    checks.append(Check("trivialization.auxiliary-independence", total, bad,
                        f"{total} (pair, K) combinations, {bad} failures"))

    mats = {k: materialize_transport(t) for k, t in T.items()}
    total, bad = _count(
        mats[a, b].product_ratio(mats[b, c], mats[a, c]) == (0, 0)
        for a, b, c in itertools.product(enh, repeat=3))
    checks.append(Check("trivialization.materialized-16x16", total, bad,
                        f"tensor-power matrices match on {total} triples"))
    return checks


def transport_checks_sampled(d, n, count, seed):
    """Seeded multiplicativity spot-checks of T and S at larger sizes, on
    three independent uniform Lagrangians per draw (random_lagrangian; the
    transports need no transversal pair)."""
    check_sampled(d, n, count)
    rng = random.Random(seed)
    R = ring(d)
    sp = SympSpace(R, n)

    def outcomes():
        """(T multiplicative, S multiplicative) on one draw."""
        rows3 = [sp.random_lagrangian(rng) for _ in range(3)]
        a, b, c = (sp.random_enhanced(r, rng)[1] for r in rows3)
        t_ok = trivialization_transport(sp, a, b).composes_to(
            trivialization_transport(sp, b, c), trivialization_transport(sp, a, c))
        oa, ob, oc = (sp.random_oriented(r, rng) for r in rows3)
        s_ok = splitting_transport(sp, oa, ob).composes_to(
            splitting_transport(sp, ob, oc), splitting_transport(sp, oa, oc))
        return t_ok, s_ok

    t_oks, s_oks = zip(*(outcomes() for _ in range(count)))
    total_t, bad_t = _count(t_oks)
    total_s, bad_s = _count(s_oks)
    return [
        Check(f"trivialization.multiplicative.d{d}n{n}", total_t, bad_t,
              f"{count} sampled triples, {bad_t} failures"),
        Check(f"splitting.multiplicative.d{d}n{n}", total_s, bad_s,
              f"{count} sampled oriented triples, {bad_s} failures"),
    ]


def _sampled_oriented_checks(name, holds, count, rng):
    """`name`.d2n1 and .d1n2: holds(sp, oN, oM, oL) on `count` sampled
    pairwise-transversal oriented triples at each shape."""
    checks = []
    for (d, n) in ((2, 1), (1, 2)):
        sp = SympSpace(ring(d), n)
        total, bad = _count(
            holds(sp, *[sp.random_oriented(r, rng)
                        for r in sp.sample_transversal_triple(rng)])
            for _ in range(count))
        checks.append(Check(f"{name}.d{d}n{n}", total, bad,
                            f"{count} sampled oriented triples, {bad} failures"))
    return checks


# -- Splitting and normalization coefficients (suite "splitting") -------------


def _norm_coeff(sp, oM, oL):
    """A_{M,L} = G(2[R^n, tr B]) = G([R^n, tr B])^2, with 2[X] = X + X the
    direct sum and B = diag(1, .., 1, wedge(o_L, o_M))."""
    return _power(witt.gauss_sum(witt.trace_form(sp.R, wedge_form(sp, oM, oL))), 2)


def _a_identity_holds(sp, oN, oM, oL):
    """A_NM A_ML = G(2[M, -tr w_L]) A_NL, negating the Z/4 trace form
    (tr(-x) = -tr(x))."""
    gram = sp.omega_tilde_L_gram(oM.basis, oN.basis, oL.basis)
    g = _power(witt.gauss_sum(witt.neg_gram(witt.trace_form(sp.R, gram))), 2)
    return (gaussian_mul(_norm_coeff(sp, oN, oM), _norm_coeff(sp, oM, oL))
            == gaussian_mul(g, _norm_coeff(sp, oN, oL)))


def suite_splitting(seed=0):
    R = ring(1)
    sp = SympSpace(R, 1)
    oriented = sp.enumerate_oriented()

    total, bad = _count(_a_identity_holds(sp, *t)
                        for t in _fibred(sp, sp.oriented_by_rows()))
    checks = [Check("splitting.norm-coeff-identity.d1n1", total, bad,
                    f"A_NM A_ML = G(2[M,-tr w_L]) A_NL on {total} oriented triples")]

    checks += _sampled_oriented_checks("splitting.norm-coeff-identity",
                                       _a_identity_holds, 100,
                                       random.Random(seed))

    S = {(a, b): splitting_transport(sp, a, b) for a in oriented for b in oriented}
    total, bad = _count(
        S[a, b].composes_to(S[b, c], S[a, c])
        for a, b, c in itertools.product(oriented, repeat=3))
    checks.append(Check("splitting.multiplicative", total, bad,
                        f"{total} ordered oriented triples, {bad} failures"))

    # T depends on the enhanced pair only
    triv = functools.cache(lambda ea, eb: trivialization_transport(sp, ea, eb))
    total, bad = _count(
        transport_square(S[a, b])
        == triv(enhanced_of_oriented(sp, a), enhanced_of_oriented(sp, b))
        for a, b in itertools.product(oriented, repeat=2))
    checks.append(Check("splitting.square-is-trivialization", total, bad,
                        f"S^2 = T on {total} oriented pairs"))

    grams = [()] + [g for r in (1, 2, 3) for g in witt.symmetric_grams(r)]
    negated = (witt.gauss_sum(witt.neg_gram(B)) for B in grams)
    total, bad = _count(witt.gauss_sum(B) == (re, -im)
                        for B, (re, im) in zip(grams, negated))
    checks.append(Check("splitting.gauss-conj-symmetry", total, bad,
                        f"G(B) = conj(G(-B)) over {total} grams of size <= 3"))
    return checks


# -- Discriminant lemmas (suite "disc", reported under "splitting") -----------


def wedge_identity_checks(d, n):
    """Per lift triple (Lt, Nt, Mt) over pairwise-transversal subspaces,
    whether det of the r-map gram matches the three pairwise wedge dets;
    the orientation units cancel identically on both sides."""
    R = ring(d)
    sp = SympSpace(R, n)
    lifts = {s: sp.enumerate_submodule_lifts(s) for s in sp.enumerate_lagrangians()}
    sign = R.one if n % 2 == 0 else R.neg(R.one)
    # the pairwise dets depend on a lift pair only; the gram det is
    # evaluated afresh on every triple
    pair_det = functools.cache(
        lambda At, Bt: linalg.det_ring(R, sp.omt_gram(At, Bt)))
    for Lt, Nt, Mt in _fibred(sp, lifts):
        det_g = linalg.det_ring(R, sp.omega_tilde_L_gram(Mt, Nt, Lt))
        yield (R.mul(det_g, pair_det(Lt, Nt))
               == R.mul(sign, R.mul(pair_det(Lt, Mt), pair_det(Mt, Nt))))


def _disc_combination_ok(sp, oN, oM, oL):
    R = sp.R
    gram = sp.omega_tilde_L_gram(oM.basis, oN.basis, oL.basis)
    X = witt.trace_form(R, gram)
    X = witt.direct_sum(X, witt.trace_form(R, wedge_form(sp, oN, oM)))
    X = witt.direct_sum(X, witt.trace_form(R, wedge_form(sp, oM, oL)))
    X = witt.direct_sum(X, witt.neg_gram(witt.trace_form(R, wedge_form(sp, oN, oL))))
    counts, _ = witt.decompose(X)
    return witt.counts_rank(counts) == 4 * R.d * sp.n and witt.counts_disc(counts) == 1


def _trace_form_unit(d):
    R = ring(d)
    tf = witt.trace_form(R, ((R.one,),))
    counts, _ = witt.decompose(tf)
    return witt.det4(tf) == 1 and witt.counts_disc(counts) == 1


def suite_disc(seed=0):
    total, bad = _count(map(_trace_form_unit, (1, 2, 3, 4)))
    checks = [Check("disc.trace-form-unit", total, bad,
                    "d([R, tr]) = 1 for d = 1..4")]

    # stronger ring-to-Z4 discriminant compatibility at d = 2
    R2 = ring(2)
    total, bad = _count(
        witt.det4(witt.trace_form(R2, B)) == R2.norm(witt.ring_disc(R2, B))
        for B in _ring_unimodular_rank2_sample(R2))
    checks.append(Check("disc.trace-vs-norm.d2", total, bad,
                        f"det(tr B) = N(disc B) over {total} rank-2 forms"))

    for (d, n) in ((1, 1), (1, 2)):
        total, bad = _count(wedge_identity_checks(d, n))
        checks.append(Check(f"disc.wedge-identity.d{d}n{n}", total, bad,
                            f"{total} lift triples, {bad} failures; units cancel"))

    # the four-term Witt combination has trivial discriminant
    sp = SympSpace(ring(1), 1)
    total, bad = _count(_disc_combination_ok(sp, *t)
                        for t in _fibred(sp, sp.oriented_by_rows()))
    checks.append(Check("disc.four-term-combination.d1n1", total, bad,
                        f"d(X) = 1 on {total} oriented triples"))

    checks += _sampled_oriented_checks("disc.four-term-combination",
                                       _disc_combination_ok, 50,
                                       random.Random(seed))
    return checks


def _ring_unimodular_rank2_sample(R):
    out = []
    for a in range(R.size):
        for b in range(R.size):
            for c in range(R.size):
                B = ((a, b), (b, c))
                if R.is_unit(linalg.det_ring(R, B)):
                    out.append(B)
    return out


# -- Weil representation (suite "weil") ---------------------------------------


def schur_check(name, ops, table, closed, detail):
    """`name` as one fact: the operators ops[i] = X(g_i) over the whole
    finite group G, whose Cayley table in positions is `table`, form an
    irreducible projective representation.  `closed` is the caller's test
    that X(g_i) X(g_j) is a root of unity times X(g_table[i][j]) for every
    pair; the check adds that X(1) is a nonzero scalar matrix, 1 the
    element whose table row is the identity, and then reads Schur's
    criterion (1/|G|) sum_g |tr X(g)|^2 = 1 (weil.character_norm_is_one).

    Why that suffices: X(1) = l I with l != 0 and X(1) X(1) = c X(1) make
    l = c a root of unity, so X(g) X(g^-1) is a root of unity times I:
    every X(g) is invertible, and X(g)^k, k the order of g, is a root of
    unity times X(1).  So the eigenvalues of X(g) are roots of unity and
    tr X(g)^-1 = conj(tr X(g)).  Y -> X(g) Y X(g)^-1 is then a
    linear representation of G on matrices, of character |tr X(g)|^2,
    whose fixed points are the commutant of the X(g); so the mean of
    |tr X(g)|^2 is the commutant's dimension, which is 1 exactly when the
    X(g) are irreducible (Schur's lemma)."""
    one = next((i for i, row in enumerate(table)
                if row == tuple(range(len(table)))), None)
    holds = closed and one is not None and len(ops) == len(table)
    if holds:
        m = ops[one].shape[0]
        identity = ZiMatrix.monomial([(0, j) for j in range(m)], m)
        holds = (ops[one].ratio(identity) is not None
                 and character_norm_is_one(ops))
    return _c(name, holds, detail)


def egorov_check(W, asp, pi):
    """weil.egorov: W(a) pi(h) = pi(a h) W(a) (`ZiMatrix.intertwines`, whose
    precondition pi_matrix meets) for every a in asp and every h of pi, a
    dict h -> pi(h) on the model of W.base_enhanced over all of H(V), which
    a maps into itself."""
    bad = 0
    for a in asp:
        Wa = W.operator(a)
        for h, pi_h in pi.items():
            if not Wa.intertwines(pi_h, pi[a.apply_h(h)]):
                bad += 1
    return Check("weil.egorov", len(asp) * len(pi), bad,
                 f"W(a) pi(h) = pi(a h) W(a) on {len(asp)}x{len(pi)} pairs")


def suite_weil():
    R = ring(1)
    sp = SympSpace(R, 1)
    asp = enumerate_asp(sp)
    spR = enumerate_sp_R(sp)
    H = all_h_elements(sp)
    W = WeilRepresentation(sp)
    S = SplitWeilRepresentation(sp)
    checks = []

    ops_pi = [pi_matrix(W.base_enhanced, h) for h in H]
    ht = H.table()
    checks.append(schur_check(
        "weil.heisenberg-commutant", ops_pi, ht,
        all(x.product_ratio(y, ops_pi[p]) == (0, 0)
            for x, row in zip(ops_pi, ht) for y, p in zip(ops_pi, row)),
        "pi is irreducible: commutant has dimension 1"))
    checks.append(egorov_check(W, asp, dict(zip(H, ops_pi))))

    # cocycle and coboundary values are mu4 exponents, or None outside
    # mu4, so sums mod 4 over the Cayley table test the products exactly;
    # a sum that touches a None fails
    N = len(asp)
    table = asp.table()
    cc = [[W.cocycle(a, b, asp[p]) for b, p in zip(asp, row)]
          for a, row in zip(asp, table)]
    cvals = {e for row in cc for e in row} - {None}
    total, bad = _count(e is not None for row in cc for e in row)
    checks.append(Check("weil.cocycle-mu4", total, bad,
                        f"{N ** 2} pairs; exponents seen: {sorted(cvals)}"))

    bad = 0
    for i in range(N):
        ti, ci = table[i], cc[i]
        for j in range(N):
            # c(a, b) + c(ab, c) - c(a, bc) - c(b, c) over all c
            cij, cab, tj, cj = ci[j], cc[ti[j]], table[j], cc[j]
            for k in range(N):
                try:
                    if (cij + cab[k] - ci[tj[k]] - cj[k]) % 4:
                        bad += 1
                except TypeError:
                    bad += 1
    checks.append(Check("weil.cocycle-identity", N ** 3, bad,
                        f"2-cocycle identity on {N ** 3} triples"))

    spt = spR.table()
    total, bad = _count(S.cocycle(g, h, spR[p]) in (0, 2)
                        for g, row in zip(spR, spt) for h, p in zip(spR, row))
    checks.append(Check("weil.split-cocycle-mu2", total, bad,
                        f"{total} pairs in Sp over Z4; values are signs"))

    at = [asp.position(lift_sp(sp, g)) for g in spR]
    total, bad = _count(S.operator(g).mu4_ratio(W.operator(asp[p])) is not None
                        for g, p in zip(spR, at))
    checks.append(Check("weil.split-vs-enhanced", total, bad,
                        f"W_s(g) is a mu4 multiple of W(lift(g)) for all {total} g"))

    total, bad = _count(table[at[i]][at[j]] == at[p]
                        for i, row in enumerate(spt) for j, p in enumerate(row))
    checks.append(Check("weil.lift-multiplicative", total, bad,
                        f"lift(g1 g2) = lift(g2) lift(g1) on {total} pairs"))

    checks.append(schur_check(
        "weil.commutant", [W.operator(a) for a in asp], table,
        all(None not in row for row in cc),
        "Weil operators span an irreducible system"))

    dual = sp.enhance_from_lift(sp.initial_lift(sp.dual_standard_lagrangian()))
    W2 = WeilRepresentation(sp, base=dual)
    Phi = intertwiner_matrix(W2.base_enhanced, W.base_enhanced)
    b = [coboundary_ratio(W2, W, Phi, a) for a in asp]
    bad = 0
    for i in range(N):
        ti, ci = table[i], cc[i]
        for k in range(N):
            # c'(a, c) + b(ac) - c(a, c) - b(a) - b(c)
            c2 = W2.cocycle(asp[i], asp[k], asp[ti[k]])
            try:
                if (c2 + b[ti[k]] - ci[k] - b[i] - b[k]) % 4:
                    bad += 1
            except TypeError:
                bad += 1
    checks.append(Check("weil.object-independence", N ** 2, bad,
                        f"base change shifts the cocycle by an explicit coboundary "
                        f"({N ** 2} pairs)"))
    return checks


# -- Pseudo-symplectic solvability (suite "intro") ----------------------------


def suite_intro():
    R = ring(1)
    sp = SympSpace(R, 1)
    spk = enumerate_sp_k(sp)
    solvable = {g for g in spk if residue_polarization(sp, g) is not None}
    in_oq = {g for g in spk if preserves_residue_quadratic(sp, g)}
    total, bad = _count((g in solvable) == (g in in_oq) for g in spk)
    checks = [
        Check("intro.solvable-iff-orthogonal", total, bad,
              f"{len(spk)} elements of Sp over the residue field"),
        _c("intro.two-of-six", len(solvable) == 2,
           f"exactly {len(solvable)} of {len(spk)} admit a polarization"),
        _c("intro.identity-and-swap", ((1, 0), (0, 1)) in solvable
           and ((0, 1), (1, 0)) in solvable, "identity and e<->f swap"),
    ]
    # the residues of ASp(V) are exactly Sp(V), and each g lifts through
    # a symplectic lift matrix
    covered = {a.g for a in enumerate_asp(sp)}
    total, bad = _count(
        g in covered and lift_sp(sp, symplectic_lift_matrix(sp, g)).g == g
        for g in spk)
    checks.append(Check("intro.affine-lift-exists", total,
                        bad + len(covered - set(spk)),
                        "every g has alpha with (g, alpha) in ASp(V)"))
    return checks


# -- Dispatch ------------------------------------------------------------------

def _refuse_trivialization(d, n, sample_count):
    """Apply the refusals of the trivialization suite at the shape (d, n)
    before any work; True when it samples there, False when it runs the
    fixed d1n1 suite."""
    if (d, n) == (1, 1):
        return False
    check_sampled(d, n, sample_count)
    return True


def run_suite(name, d=None, n=None, mode=None, sample_count=200, seed=0):
    if name == "witt":
        return suite_witt()
    if name == "cocycle":
        return suite_cocycle(d, n, mode, sample_count, seed)
    if name == "trivialization":
        if d is not None or n is not None:
            dd, nn = _shape(d, n)
            if _refuse_trivialization(dd, nn, sample_count):
                return transport_checks_sampled(dd, nn, sample_count, seed)
        return suite_trivialization()
    if name == "splitting":
        return suite_splitting(seed) + suite_disc(seed)
    if name == "weil":
        return suite_weil() + suite_intro()
    if name == "all":
        if d is not None or n is not None:
            # the shaped suites' refusals, before any suite runs
            dd, nn = _shape(d, n)
            check_cocycle(dd, nn, mode, sample_count)
            _refuse_trivialization(dd, nn, sample_count)
        out = []
        for s in SUITE_NAMES:
            out += run_suite(s, d, n, mode, sample_count, seed)
        return out
    raise ValueError(f"unknown suite {name!r}")
