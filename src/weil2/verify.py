"""Verification suites: every algebraic identity the library is built on,
checked in exact arithmetic with zero tolerance.

Each suite returns a list of Check records (name, passed, detail).  Reports
built from them are deterministic: enumeration orders are canonical and all
sampling goes through a seeded Mersenne-Twister instance, so identical
configurations produce byte-identical output.
"""
from __future__ import annotations

import collections
import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, witt
from .cyclotomic import Cyc8, I, ONE, mu4_exponent
from .galois import MAX_D, ring
from .heisenberg import (
    all_h_elements,
    apply_sp_R,
    asp_mul,
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
    Model,
    composition_scalar,
    formula_scalar,
    gauss_scalar,
    intertwiner_matrix,
)
from .symplectic import (
    OrientedLagrangian,
    SympSpace,
    check_sweep,
    enumerate_enhanced,
)
from .transport import (
    ScaledTransport,
    enhanced_of_oriented,
    splitting_transport,
    transport_square,
    trivialization_transport,
    trivializing_scalar,
    wedge_form,
)
from .weil import (
    SplitWeilRepresentation,
    WeilRepresentation,
    coboundary_ratio,
    commutant_dimension,
)

PRNG_NAME = "python-random-mt19937"


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


def _c(name, passed, detail=""):
    return Check(name, bool(passed), detail)


# -- Witt monoid and Gauss character (suite "witt") ---------------------------


def suite_witt():
    return witt_core_checks() + gw_checks()


def witt_core_checks():
    checks = []
    grams = [g for r in (1, 2, 3) for g in witt.all_unimodular_grams(r)]

    bad = sum(
        1 for B in grams
        if witt.gauss_sum(B).abs_squared() != Fraction(2) ** len(B)
    )
    checks.append(_c("witt.purity.rank<=3", bad == 0,
                     f"{len(grams)} unimodular grams, {bad} failures"))

    bad = 0
    for B in grams:
        counts, U = witt.decompose(B)
        if witt.apply_congruence(U, B) != witt.canonical_gram(counts):
            bad += 1
    checks.append(_c("witt.decompose-witness", bad == 0,
                     f"{len(grams)} grams, {bad} witness failures"))

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
    checks.append(_c("witt.gauss-of-one", g1 == ONE + I and
                     g1 ** 8 == Cyc8.from_rational(16), "G(<1>) = 1+i, eighth power 16"))
    return checks


def gw_checks():
    checks = []
    small = [g for r in (1, 2) for g in witt.all_unimodular_grams(r)]
    bad = 0
    for A in small:
        cA, _ = witt.decompose(A)
        for B in small:
            cB, _ = witt.decompose(B)
            cS, _ = witt.decompose(witt.direct_sum(A, B))
            if witt.gw_exponent(cS) != (witt.gw_exponent(cA) + witt.gw_exponent(cB)) % 8:
                bad += 1
    checks.append(_c("gw.additive", bad == 0,
                     f"{len(small) ** 2} direct sums, {bad} failures"))

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

    bad = 0
    for B in small:
        quad = B
        for _ in range(3):
            quad = witt.direct_sum(quad, B)
        r = len(B)
        want = Cyc8.from_rational((-1) ** r * 4 ** r)
        if witt.gauss_sum(quad) != want or witt.gauss_sum(B) ** 4 != want:
            bad += 1
    checks.append(_c("gw.gauss-fourth-power", bad == 0,
                     f"G(4[V,B]) = (-1)^r 4^r over {len(small)} forms"))

    bad = total = 0
    for r in (4, 8):
        for counts in witt.tuples_of_rank(r):
            if witt.counts_disc(counts) != 1:
                continue
            total += 1
            if (2 * witt.gw_exponent(counts)) % 8 != 0:
                bad += 1
    checks.append(_c("gw.vanishing", bad == 0,
                     f"2X = 0 for {total} classes with 4|rank, disc 1"))
    return checks


# -- Intertwiner cocycle (suite "cocycle") ------------------------------------


def _transversal_triples(sp, subs):
    out = []
    for a in subs:
        for b in subs:
            if not sp.transversal_k(a, b):
                continue
            for c in subs:
                if sp.transversal_k(a, c) and sp.transversal_k(b, c):
                    out.append((a, b, c))
    return out


def cocycle_checks_small():
    """n = d = 1: all 48 transversal enhanced triples, three routes."""
    R = ring(1)
    sp = SympSpace(R, 1)
    enh = enumerate_enhanced(sp)
    by_rows = {}
    for e in enh:
        by_rows.setdefault(e.rows, []).append(e)
    triples = _transversal_triples(sp, sorted(by_rows))
    minus4 = Cyc8.from_rational(-4)
    bad_route = bad_pow = total = 0
    for (rN, rM, rL) in triples:
        for eN in by_rows[rN]:
            for eM in by_rows[rM]:
                for eL in by_rows[rL]:
                    c1 = composition_scalar(sp, eN, eM, eL)
                    c2 = formula_scalar(sp, eN, eM, eL)
                    c3 = gauss_scalar(sp, eN, eM, eL)
                    if not (c1 == c2 == c3):
                        bad_route += 1
                    if c1 ** 4 != minus4:
                        bad_pow += 1
                    total += 1
    return [
        _c("cocycle.three-route.d1n1", bad_route == 0,
           f"{total} enhanced triples, {bad_route} disagreements"),
        _c("cocycle.fourth-power.d1n1", bad_pow == 0,
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
    triples = _transversal_triples(sp, subs)
    enh = {rows: sp.enumerate_enhancements(rows) for rows in subs}
    dn = d * n
    target4 = Cyc8.from_rational(Fraction((-1) ** dn * 4 ** dn))
    tag = f"d{d}n{n}"

    # both sweeps pack each enhancement once per subspace triple; C takes
    # few values, so the fourth power is taken once per distinct value
    counts = collections.Counter()
    for (rN, rM, rL) in triples:
        k = CharacterSum(sp, rM, rN, rL)
        packs_M = [k.pack_M(eM) for eM in enh[rM]]
        packs_L = [k.pack_L(eL) for eL in enh[rL]]
        for eN in enh[rN]:
            pN = k.pack_N(eN)
            for pM in packs_M:
                pNM = pN + pM
                for pL in packs_L:
                    counts[k.value(pNM + pL)] += 1
    total = sum(counts.values())
    bad_pow = sum(m for c, m in counts.items() if c ** 4 != target4)
    checks = [_c(f"cocycle.fourth-power.{tag}", bad_pow == 0,
                 f"C^4 = {(-1) ** dn * 4 ** dn} on {total} enhanced triples, "
                 f"{bad_pow} failures")]

    # oriented identity: C of the canonical enhancements equals the plain
    # Gauss sum of tr(omega_tilde_L); orientation units enter neither side.
    lifts = {rows: sp.enumerate_submodule_lifts(rows) for rows in subs}
    canon = {}
    for rows in subs:
        for lt in lifts[rows]:
            canon[lt] = sp.enhance_from_lift(lt)
    # the grams take few values (at most 64 at d1n2, over 245,760 triples)
    gauss_of_gram = functools.cache(
        lambda gram: witt.gauss_sum(witt.trace_form(R, gram)))
    bad_or = total_or = 0
    for (rN, rM, rL) in triples:
        k = CharacterSum(sp, rM, rN, rL)
        packs_M = [(Mt, k.pack_M(canon[Mt])) for Mt in lifts[rM]]
        packs_L = [(Lt, k.pack_L(canon[Lt])) for Lt in lifts[rL]]
        for Nt in lifts[rN]:
            pN = k.pack_N(canon[Nt])
            for Mt, pM in packs_M:
                pNM = pN + pM
                for Lt, pL in packs_L:
                    G = gauss_of_gram(sp.omega_tilde_L_gram(Mt, Nt, Lt))
                    if k.value(pNM + pL) != G:
                        bad_or += 1
                    total_or += 1
    checks.append(_c(f"cocycle.oriented-identity.{tag}", bad_or == 0,
                     f"C = G([M, tr w_L]) on {total_or} canonical lift triples, "
                     f"{bad_or} failures"))
    return checks


def _sample_transversal_triple(sp, subs, rng):
    """Draw subspace triples uniformly (three rng.choice calls each) until
    one is pairwise transversal."""
    while True:
        rN, rM, rL = (rng.choice(subs) for _ in range(3))
        if (sp.transversal_k(rN, rM) and sp.transversal_k(rM, rL)
                and sp.transversal_k(rN, rL)):
            return rN, rM, rL


def _check_count(count):
    """A sampled check visits `count` triples; none would pass vacuously."""
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")


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
    fourth power, and the oriented identity."""
    _check_count(count)
    rng = random.Random(seed)
    R = ring(d)
    sp = SympSpace(R, n)
    subs = sp.enumerate_lagrangians()
    dn = d * n
    target4 = Cyc8.from_rational(Fraction((-1) ** dn * 4 ** dn))
    tag = f"d{d}n{n}"

    bad_route = bad_pow = bad_or = 0
    for _ in range(count):
        rN, rM, rL = _sample_transversal_triple(sp, subs, rng)
        Nt = sp.random_lift(rN, rng)
        Mt = sp.random_lift(rM, rng)
        Lt = sp.random_lift(rL, rng)
        eN = sp.random_enhancement(Nt, rng)
        eM = sp.random_enhancement(Mt, rng)
        eL = sp.random_enhancement(Lt, rng)
        c1 = composition_scalar(sp, eN, eM, eL)
        c2 = formula_scalar(sp, eN, eM, eL)
        c3 = gauss_scalar(sp, eN, eM, eL)
        if not (c1 == c2 == c3):
            bad_route += 1
        if c2 ** 4 != target4:
            bad_pow += 1
        gram = sp.omega_tilde_L_gram(Mt, Nt, Lt)
        G = witt.gauss_sum(witt.trace_form(R, gram))
        if formula_scalar(sp, sp.enhance_from_lift(Nt), sp.enhance_from_lift(Mt),
                          sp.enhance_from_lift(Lt)) != G:
            bad_or += 1
    return [
        _c(f"cocycle.three-route.{tag}", bad_route == 0,
           f"{count} sampled triples, {bad_route} disagreements"),
        _c(f"cocycle.fourth-power.{tag}", bad_pow == 0,
           f"C^4 = {(-1) ** dn * 4 ** dn} on {count} sampled triples"),
        _c(f"cocycle.oriented-identity.{tag}", bad_or == 0,
           f"C = G([M, tr w_L]) on {count} sampled canonical triples"),
    ]


def suite_cocycle(d=None, n=None, mode=None, sample_count=200, seed=0):
    if d is not None or n is not None:
        d, n = _shape(d, n)
        if mode == "exhaustive" or (mode is None and d * n <= 2):
            checks = cocycle_checks_exhaustive(d, n)
            if d * n == 1:
                checks = cocycle_checks_small() + checks
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
    P = T.product()
    out = P
    for _ in range(T.power - 1):
        out = out.kron(P)
    return out.scaled(T.scalar)


def suite_trivialization():
    R = ring(1)
    sp = SympSpace(R, 1)
    enh = enumerate_enhanced(sp)
    T = {(a.key(), b.key()): trivialization_transport(sp, a, b)
         for a in enh for b in enh}

    bad = 0
    for a in enh:
        for b in enh:
            for c in enh:
                lhs = T[(a.key(), b.key())].compose(T[(b.key(), c.key())])
                if lhs != T[(a.key(), c.key())]:
                    bad += 1
    checks = [_c("trivialization.multiplicative", bad == 0,
                 f"{len(enh) ** 3} ordered triples, {bad} failures")]

    # every admissible auxiliary K yields the same transport
    A = trivializing_scalar(sp)
    bad = total = 0
    for eM in enh:
        for eL in enh:
            base = T[(eM.key(), eL.key())]
            for eK in enh:
                if not (sp.transversal_k(eK.rows, eM.rows)
                        and sp.transversal_k(eK.rows, eL.rows)):
                    continue
                F_MK = intertwiner_matrix(Model(sp, eM), Model(sp, eK))
                F_KL = intertwiner_matrix(Model(sp, eK), Model(sp, eL))
                alt = ScaledTransport(A * A, (F_MK, F_KL), 4)
                if alt != base:
                    bad += 1
                total += 1
    checks.append(_c("trivialization.auxiliary-independence", bad == 0,
                     f"{total} (pair, K) combinations, {bad} failures"))

    mats = {k: materialize_transport(t) for k, t in T.items()}
    bad = 0
    for a in enh:
        for b in enh:
            for c in enh:
                prod = mats[(a.key(), b.key())] @ mats[(b.key(), c.key())]
                if prod != mats[(a.key(), c.key())]:
                    bad += 1
    checks.append(_c("trivialization.materialized-16x16", bad == 0,
                     f"tensor-power matrices match on {len(enh) ** 3} triples"))
    return checks


def transport_checks_sampled(d, n, count, seed):
    """Seeded multiplicativity spot-checks of T and S at larger sizes."""
    _check_count(count)
    rng = random.Random(seed)
    R = ring(d)
    sp = SympSpace(R, n)
    subs = sp.enumerate_lagrangians()

    bad_t = bad_s = 0
    for _ in range(count):
        rows3 = [rng.choice(subs) for _ in range(3)]
        enh3 = [sp.random_enhancement(sp.random_lift(r, rng), rng) for r in rows3]
        a, b, c = enh3
        if (trivialization_transport(sp, a, b).compose(trivialization_transport(sp, b, c))
                != trivialization_transport(sp, a, c)):
            bad_t += 1
        oa, ob, oc = (_random_oriented(sp, r, rng) for r in rows3)
        if (splitting_transport(sp, oa, ob).compose(splitting_transport(sp, ob, oc))
                != splitting_transport(sp, oa, oc)):
            bad_s += 1
    return [
        _c(f"trivialization.multiplicative.d{d}n{n}", bad_t == 0,
           f"{count} sampled triples, {bad_t} failures"),
        _c(f"splitting.multiplicative.d{d}n{n}", bad_s == 0,
           f"{count} sampled oriented triples, {bad_s} failures"),
    ]


def _random_oriented(sp, rows, rng):
    """A uniform free lift of the subspace, then a uniform orientation unit."""
    return OrientedLagrangian(sp.random_lift(rows, rng),
                              rng.choice(sorted(sp.R.units)))


def _sampled_oriented_checks(name, holds, count, rng):
    """`name`.d2n1 and .d1n2: holds(sp, oN, oM, oL) on `count` sampled
    pairwise-transversal oriented triples at each shape."""
    checks = []
    for (d, n) in ((2, 1), (1, 2)):
        sp = SympSpace(ring(d), n)
        subs = sp.enumerate_lagrangians()
        bad = 0
        for _ in range(count):
            ors = [_random_oriented(sp, r, rng)
                   for r in _sample_transversal_triple(sp, subs, rng)]
            if not holds(sp, *ors):
                bad += 1
        checks.append(_c(f"{name}.d{d}n{n}", bad == 0,
                         f"{count} sampled oriented triples, {bad} failures"))
    return checks


# -- Splitting and normalization coefficients (suite "splitting") -------------


def _norm_coeff(sp, oM, oL):
    """A_{M,L} = G(2 [R^n, tr B]) with B = diag(1, .., 1, wedge(o_L, o_M))."""
    B = wedge_form(sp, oM, oL)
    return witt.gauss_sum(witt.scale_gram(2, witt.trace_form(sp.R, B)))


def _a_identity_holds(sp, oN, oM, oL):
    R = sp.R
    gram = sp.omega_tilde_L_gram(oM.basis, oN.basis, oL.basis)
    g = witt.gauss_sum(witt.scale_gram(2, witt.trace_form(R, witt.neg_gram(gram))))
    return (_norm_coeff(sp, oN, oM) * _norm_coeff(sp, oM, oL)
            == g * _norm_coeff(sp, oN, oL))


def _oriented_by_rows(sp):
    by_rows = {}
    for o in sp.enumerate_oriented():
        red, _ = linalg.rref_field(sp.R, [sp.reduce_vec(b) for b in o.basis])
        by_rows.setdefault(red, []).append(o)
    return by_rows


def suite_splitting(seed=0):
    R = ring(1)
    sp = SympSpace(R, 1)
    oriented = sp.enumerate_oriented()
    by_rows = _oriented_by_rows(sp)
    subs = sorted(by_rows)

    bad = total = 0
    for (rN, rM, rL) in _transversal_triples(sp, subs):
        for oN in by_rows[rN]:
            for oM in by_rows[rM]:
                for oL in by_rows[rL]:
                    if not _a_identity_holds(sp, oN, oM, oL):
                        bad += 1
                    total += 1
    checks = [_c("splitting.norm-coeff-identity.d1n1", bad == 0,
                 f"A_NM A_ML = G(2[M,-tr w_L]) A_NL on {total} oriented triples")]

    checks += _sampled_oriented_checks("splitting.norm-coeff-identity",
                                       _a_identity_holds, 100,
                                       random.Random(seed))

    S = {(a.key(), b.key()): splitting_transport(sp, a, b)
         for a in oriented for b in oriented}
    bad = 0
    for a in oriented:
        for b in oriented:
            for c in oriented:
                if S[(a.key(), b.key())].compose(S[(b.key(), c.key())]) \
                        != S[(a.key(), c.key())]:
                    bad += 1
    checks.append(_c("splitting.multiplicative", bad == 0,
                     f"{len(oriented) ** 3} ordered oriented triples, {bad} failures"))

    T = {}
    bad = 0
    for a in oriented:
        ea = enhanced_of_oriented(sp, a)
        for b in oriented:
            eb = enhanced_of_oriented(sp, b)
            key = (ea.key(), eb.key())
            if key not in T:
                T[key] = trivialization_transport(sp, ea, eb)
            if transport_square(S[(a.key(), b.key())]) != T[key]:
                bad += 1
    checks.append(_c("splitting.square-is-trivialization", bad == 0,
                     f"S^2 = T on {len(oriented) ** 2} oriented pairs"))

    grams = [()] + [g for r in (1, 2, 3) for g in _all_symmetric_grams(r)]
    bad = sum(
        1 for B in grams
        if witt.gauss_sum(B) != witt.gauss_sum(witt.neg_gram(B)).conj()
    )
    checks.append(_c("splitting.gauss-conj-symmetry", bad == 0,
                     f"G(B) = conj(G(-B)) over {len(grams)} grams of size <= 3"))
    return checks


def _all_symmetric_grams(r):
    idx = [(i, j) for i in range(r) for j in range(i, r)]
    out = []
    for vals in itertools.product(range(4), repeat=len(idx)):
        M = [[0] * r for _ in range(r)]
        for (i, j), v in zip(idx, vals):
            M[i][j] = M[j][i] = v
        out.append(tuple(tuple(row) for row in M))
    return out


# -- Discriminant lemmas (suite "disc", reported under "splitting") -----------


def _pair_det(sp, At, Bt):
    R = sp.R
    return linalg.det_ring(R, tuple(
        tuple(sp.omt(a, b) for b in Bt) for a in At
    ))


def wedge_identity_checks(d, n):
    """det of the r-map gram against the three pairwise wedge dets; the
    orientation units cancel identically on both sides."""
    R = ring(d)
    sp = SympSpace(R, n)
    subs = sp.enumerate_lagrangians()
    lifts = {s: sp.enumerate_submodule_lifts(s) for s in subs}
    sign = R.one if n % 2 == 0 else R.neg(R.one)
    # the pairwise dets depend on a lift pair only; the gram det is
    # evaluated afresh on every triple
    pair_det = functools.cache(lambda At, Bt: _pair_det(sp, At, Bt))
    bad = total = 0
    for L in subs:
        for N in subs:
            if not sp.transversal_k(L, N):
                continue
            for Lt in lifts[L]:
                for Nt in lifts[N]:
                    d_ln = pair_det(Lt, Nt)
                    for M in subs:
                        if not (sp.transversal_k(L, M) and sp.transversal_k(N, M)):
                            continue
                        for Mt in lifts[M]:
                            rbasis = sp.r_map_tilde(Mt, Nt, Lt)
                            det_g = _pair_det(sp, rbasis, Mt)
                            lhs = R.mul(det_g, d_ln)
                            rhs = R.mul(sign, R.mul(pair_det(Lt, Mt), pair_det(Mt, Nt)))
                            if lhs != rhs:
                                bad += 1
                            total += 1
    return bad, total


def _disc_combination_ok(sp, oN, oM, oL):
    R = sp.R
    gram = sp.omega_tilde_L_gram(oM.basis, oN.basis, oL.basis)
    X = witt.trace_form(R, gram)
    X = witt.direct_sum(X, witt.trace_form(R, wedge_form(sp, oN, oM)))
    X = witt.direct_sum(X, witt.trace_form(R, wedge_form(sp, oM, oL)))
    X = witt.direct_sum(X, witt.neg_gram(witt.trace_form(R, wedge_form(sp, oN, oL))))
    counts, _ = witt.decompose(X)
    return witt.counts_rank(counts) == 4 * R.d * sp.n and witt.counts_disc(counts) == 1


def suite_disc(seed=0):
    checks = []
    ok = True
    for d in (1, 2, 3, 4):
        R = ring(d)
        tf = witt.trace_form(R, ((R.one,),))
        counts, _ = witt.decompose(tf)
        ok = ok and witt.det4(tf) == 1 and witt.counts_disc(counts) == 1
    checks.append(_c("disc.trace-form-unit", ok, "d([R, tr]) = 1 for d = 1..4"))

    # stronger ring-to-Z4 discriminant compatibility at d = 2
    R2 = ring(2)
    bad = total = 0
    for B in _ring_unimodular_rank2_sample(R2):
        if witt.det4(witt.trace_form(R2, B)) != R2.norm(witt.ring_disc(R2, B)):
            bad += 1
        total += 1
    checks.append(_c("disc.trace-vs-norm.d2", bad == 0,
                     f"det(tr B) = N(disc B) over {total} rank-2 forms"))

    for (d, n) in ((1, 1), (1, 2)):
        bad, total = wedge_identity_checks(d, n)
        checks.append(_c(f"disc.wedge-identity.d{d}n{n}", bad == 0,
                         f"{total} lift triples, {bad} failures; units cancel"))

    # the four-term Witt combination has trivial discriminant
    R = ring(1)
    sp = SympSpace(R, 1)
    by_rows = _oriented_by_rows(sp)
    subs = sorted(by_rows)
    bad = total = 0
    for (rN, rM, rL) in _transversal_triples(sp, subs):
        for oN in by_rows[rN]:
            for oM in by_rows[rM]:
                for oL in by_rows[rL]:
                    if not _disc_combination_ok(sp, oN, oM, oL):
                        bad += 1
                    total += 1
    checks.append(_c("disc.four-term-combination.d1n1", bad == 0,
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


def asp_cayley_table(space, asp):
    """The index pos (key -> position in asp) of the enumerated group asp
    and its Cayley table as positions: table[i][j] = pos of
    asp_mul(asp[i], asp[j]).  One asp_mul per ordered pair; a product
    outside asp raises."""
    pos = {a.key(): i for i, a in enumerate(asp)}
    table = []
    for a in asp:
        row = []
        for b in asp:
            p = pos.get(asp_mul(space, a, b).key())
            if p is None:
                raise RuntimeError("ASp(V) enumeration is not closed under products")
            row.append(p)
        table.append(row)
    return pos, table


def egorov_check(W, asp, pi):
    """weil.egorov: W(a) pi(h) = pi(a h) W(a) as ZiMatrix values for every a
    in asp and every h of pi, a dict h -> pi(h) on the base model; an image
    a h outside pi gets its own pi_matrix."""
    bad = 0
    for a in asp:
        Wa = W.operator(a)
        for h, pi_h in pi.items():
            ah = a.apply_h(h)
            pi_ah = pi.get(ah)
            if pi_ah is None:
                pi_ah = W.base_model.pi_matrix(ah)
            if Wa @ pi_h != pi_ah @ Wa:
                bad += 1
    return _c("weil.egorov", bad == 0,
              f"W(a) pi(h) = pi(a h) W(a) on {len(asp)}x{len(pi)} pairs")


def suite_weil():
    R = ring(1)
    sp = SympSpace(R, 1)
    asp = enumerate_asp(sp)
    spR = enumerate_sp_R(sp)
    H = list(all_h_elements(sp))
    W = WeilRepresentation(sp)
    S = SplitWeilRepresentation(sp)
    checks = []

    ops_pi = [W.base_model.pi_matrix(h) for h in H]
    checks.append(_c("weil.heisenberg-commutant", commutant_dimension(ops_pi) == 1,
                     "pi is irreducible: commutant has dimension 1"))
    checks.append(egorov_check(W, asp, dict(zip(H, ops_pi))))

    # cocycle and coboundary values are mu4 exponents (cocycle and
    # coboundary_ratio raise outside mu4), so sums mod 4 over the Cayley
    # table test the products exactly
    N = len(asp)
    pos, table = asp_cayley_table(sp, asp)
    cc = [[W.cocycle(a, b, asp[p]) for b, p in zip(asp, row)]
          for a, row in zip(asp, table)]
    cvals = {e for row in cc for e in row}
    checks.append(_c("weil.cocycle-mu4", cvals <= {0, 1, 2, 3},
                     f"{N ** 2} pairs; exponents seen: {sorted(cvals)}"))

    bad = 0
    for i in range(N):
        ti, ci = table[i], cc[i]
        for j in range(N):
            # c(a, b) + c(ab, c) - c(a, bc) - c(b, c) over all c
            cij, cab, tj, cj = ci[j], cc[ti[j]], table[j], cc[j]
            for k in range(N):
                if (cij + cab[k] - ci[tj[k]] - cj[k]) % 4:
                    bad += 1
    checks.append(_c("weil.cocycle-identity", bad == 0,
                     f"2-cocycle identity on {N ** 3} triples"))

    # products in Sp over Z4, h first: sp_prod[(g, h)] has rows h[i] * g
    sp_prod = {(g, h): tuple(apply_sp_R(sp, g, h[i]) for i in range(sp.dim))
               for g in spR for h in spR}
    svals = {S.cocycle(g, h, sp_prod[(g, h)]) for g in spR for h in spR}
    checks.append(_c("weil.split-cocycle-mu2", svals <= {0, 2},
                     f"{len(spR) ** 2} pairs in Sp over Z4; values are signs"))

    lifts = {g: lift_sp(sp, g) for g in spR}
    bad = 0
    for g in spR:
        r = S.operator(g).ratio(W.operator(lifts[g]))
        if r is None or mu4_exponent(r) is None:
            bad += 1
    checks.append(_c("weil.split-vs-enhanced", bad == 0,
                     f"W_s(g) is a mu4 multiple of W(lift(g)) for all {len(spR)} g"))

    lift_pos = {g: pos.get(a.key()) for g, a in lifts.items()}

    def lift_product_key(g2, g1):
        """lift(g2) lift(g1), read off the Cayley table when both lifts are
        enumerated elements."""
        p2, p1 = lift_pos[g2], lift_pos[g1]
        if p2 is None or p1 is None:
            return asp_mul(sp, lifts[g2], lifts[g1]).key()
        return asp[table[p2][p1]].key()

    bad = 0
    for g1 in spR:
        for g2 in spR:
            g12 = sp_prod[(g2, g1)]
            # a product missing from spR is lifted on its own: closure is
            # not assumed
            a12 = lifts[g12] if g12 in lifts else lift_sp(sp, g12)
            if lift_product_key(g2, g1) != a12.key():
                bad += 1
    checks.append(_c("weil.lift-multiplicative", bad == 0,
                     f"lift(g1 g2) = lift(g2) lift(g1) on {len(spR) ** 2} pairs"))

    checks.append(_c("weil.commutant", commutant_dimension(
        [W.operator(a) for a in asp]) == 1, "Weil operators span an "
        "irreducible system"))

    dual = sp.enhance_from_lift(sp.initial_lift(sp.dual_standard_lagrangian()))
    W2 = WeilRepresentation(sp, base=dual)
    Phi = intertwiner_matrix(W2.base_model, W.base_model)
    b = [coboundary_ratio(W2, W, Phi, a) for a in asp]
    bad = 0
    for i in range(N):
        ti, ci = table[i], cc[i]
        for k in range(N):
            # c'(a, c) + b(ac) - c(a, c) - b(a) - b(c)
            c2 = W2.cocycle(asp[i], asp[k], asp[ti[k]])
            if (c2 + b[ti[k]] - ci[k] - b[i] - b[k]) % 4:
                bad += 1
    checks.append(_c("weil.object-independence", bad == 0,
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
    checks = [
        _c("intro.solvable-iff-orthogonal", solvable == in_oq,
           f"{len(spk)} elements of Sp over the residue field"),
        _c("intro.two-of-six", len(solvable) == 2,
           f"exactly {len(solvable)} of {len(spk)} admit a polarization"),
        _c("intro.identity-and-swap", ((1, 0), (0, 1)) in solvable
           and ((0, 1), (1, 0)) in solvable, "identity and e<->f swap"),
    ]
    bad = 0
    for g in spk:
        gt = symplectic_lift_matrix(sp, g)
        if lift_sp(sp, gt).g != g:
            bad += 1
    covered = {a.g for a in enumerate_asp(sp)}
    checks.append(_c("intro.affine-lift-exists", bad == 0 and covered == set(spk),
                     "every g has alpha with (g, alpha) in ASp(V)"))
    return checks


# -- Dispatch ------------------------------------------------------------------

SUITE_NAMES = ("witt", "cocycle", "trivialization", "splitting", "weil")


def run_suite(name, d=None, n=None, mode=None, sample_count=200, seed=0):
    if name == "witt":
        return suite_witt()
    if name == "cocycle":
        return suite_cocycle(d, n, mode, sample_count, seed)
    if name == "trivialization":
        if d is not None or n is not None:
            dd, nn = _shape(d, n)
            if (dd, nn) != (1, 1):
                return transport_checks_sampled(dd, nn, sample_count, seed)
        return suite_trivialization()
    if name == "splitting":
        return suite_splitting(seed) + suite_disc(seed)
    if name == "weil":
        return suite_weil() + suite_intro()
    if name == "all":
        out = []
        for s in SUITE_NAMES:
            out += run_suite(s, d, n, mode, sample_count, seed)
        return out
    raise ValueError(f"unknown suite {name!r}")
