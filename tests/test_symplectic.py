"""Lagrangian geometry of V = k^2n under the residue form, together with its
enhanced and oriented refinements over R = GR(4, d).

The census numbers are frozen from exhaustive enumeration:

  (d, n)   Lagrangians   lifts/subspace   enhancements/subspace   oriented
  (1, 1)        3              2                   2                 12
  (2, 1)        5              4                  16                240
  (1, 2)       15              8                   4                240
"""

import collections
import functools
import itertools
import math
import os
import random
import subprocess
import sys
import time

import pytest

import kref
from weil2.galois import ring
from weil2.symplectic import (
    MAX_SWEEP, CapExceeded, EnhancedLagrangian, OrientedLagrangian, SympSpace,
    check_cocycle, check_sweep, enumerate_enhanced, exhaustive_by_default,
    transversal_triple_count,
)
from weil2 import heisenberg, linalg, symplectic

CENSUS = [
    # d, n, subspaces, lifts, enhancements, oriented
    (1, 1, 3, 2, 2, 12),
    (2, 1, 5, 4, 16, 240),
    (1, 2, 15, 8, 4, 240),
]

TRANSVERSAL_PAIRS = {(1, 1): 6, (2, 1): 20, (1, 2): 120}


def _standard_lagrangian(sp):
    """span(e_1 .. e_n), the first half of the splitting."""
    return tuple(sp.std_basis_k(i) for i in range(sp.n))


def _transversal_R(sp, basis1, basis2):
    """Nakayama: free submodules are transversal over R exactly when their
    reductions are transversal over k."""
    return sp.transversal_k(*(tuple(map(sp.reduce_vec, b))
                              for b in (basis1, basis2)))


@pytest.mark.parametrize("d,n,subs,lifts,enh,oriented", CENSUS)
def test_census(d, n, subs, lifts, enh, oriented):
    sp = SympSpace(ring(d), n)
    lags = list(sp.enumerate_lagrangians())
    assert len(lags) == subs
    for rows in lags:
        assert len(list(sp.enumerate_submodule_lifts(rows))) == lifts
        assert len(list(sp.enumerate_enhancements(rows))) == enh
    assert len(list(sp.enumerate_oriented())) == oriented
    assert len(enumerate_enhanced(sp)) == subs * enh


@pytest.mark.parametrize("d,n", [(1, 1), (2, 1), (1, 2)])
def test_transversal_pair_count(d, n):
    sp = SympSpace(ring(d), n)
    lags = list(sp.enumerate_lagrangians())
    pairs = sum(1 for a in lags for b in lags if sp.transversal_k(a, b))
    assert pairs == TRANSVERSAL_PAIRS[(d, n)]


def test_residue_form_properties():
    sp = SympSpace(ring(1), 2)
    R = sp.R
    vecs = list(kref.vectors(sp))
    assert len(vecs) == 2 ** 4
    for v in vecs[:8]:
        assert kref.omega_field(sp, v, v) == 0
        for w in vecs[:8]:
            # omega = 2 * lift(omega_field) is the polarization of the
            # quadratic refinement beta, read on packed vectors
            pv, pw = sp.pack(v), sp.pack(w)
            assert R.mul(R.two, R.lift(kref.omega_field(sp, v, w))) == \
                R.sub(sp.beta(pv, pw), sp.beta(pw, pv))
            assert kref.omega_field(sp, v, w) == kref.omega_field(sp, w, v)


def test_omega_nondegenerate():
    for d, n in ((1, 1), (2, 1), (1, 2)):
        sp = SympSpace(ring(d), n)
        for v in kref.vectors(sp):
            if any(v):
                assert any(kref.omega_field(sp, v, w) for w in kref.vectors(sp))


def test_lagrangians_are_omega_isotropic():
    """Each listed subspace has dimension n and omega vanishes on it."""
    for d, n in ((1, 1), (2, 1), (1, 2)):
        sp = SympSpace(ring(d), n)
        for rows in sp.enumerate_lagrangians():
            assert len(rows) == n
            span = set(kref.span(sp.R, rows, sp.dim))
            assert len(span) == sp.R.field_size ** n
            for v in span:
                for w in span:
                    assert kref.omega_field(sp, v, w) == 0


def test_standard_and_dual_lagrangians():
    sp = SympSpace(ring(1), 2)
    std = _standard_lagrangian(sp)
    dual = sp.dual_standard_lagrangian()
    assert sp.transversal_k(std, dual)
    assert std != dual
    lags = set(sp.enumerate_lagrangians())
    assert std in lags and dual in lags


def test_initial_lift_reduces_to_subspace():
    """initial_lift produces a free omt-isotropic submodule over the rows."""
    for d, n in ((1, 1), (2, 1), (1, 2)):
        sp = SympSpace(ring(d), n)
        for rows in sp.enumerate_lagrangians():
            lift = sp.initial_lift(rows)
            assert tuple(sp.reduce_vec(b) for b in lift) == rows
            for b in lift:
                for c in lift:
                    assert sp.omt(b, c) == 0


def _solved_lift(sp, rows, S):
    """Reference lift by elimination: the {0,1}-lift made isotropic
    against a solved dual family and row-reduced (the initial lift), then
    base + 2*S*duals against the solved duals of that base, row-reduced."""
    R = sp.R
    b = [sp.lift_vec(r) for r in rows]
    base, _ = kref.rref_ring(R, sp.make_isotropic(b, sp._dual_family(b)))
    duals = sp._dual_family(base)
    basis = [linalg.vec_add(R, bi, linalg.vec_mat(
                 R, [R.mul(R.two, R.lift(s)) for s in Si], duals))
             for bi, Si in zip(base, S)]
    return kref.rref_ring(R, basis)[0]


def _every_symmetric(sp):
    """Every symmetric n x n matrix over k."""
    q, n = sp.R.field_size, sp.n
    return [symplectic._symmetric(n, vals)
            for vals in itertools.product(range(q), repeat=n * (n + 1) // 2)]


def _lifts_against_the_reference(sp, seeded):
    """(closed form, reference) for initial_lift and _lift_at: on every
    Lagrangian and every symmetric S, or on 12 seeded Lagrangians with the
    zero S and 4 seeded ones each."""
    if seeded:
        rng = random.Random(sp.R.d * 10 + sp.n)
        cases = []
        for _ in range(12):
            rows = sp.random_lagrangian(rng)
            cases += [(rows, sp._random_symmetric(rng)) for _ in range(4)]
            cases.append((rows, None))
    else:
        cases = [(rows, S) for rows in sp.enumerate_lagrangians()
                 for S in _every_symmetric(sp) + [None]]
    zero = [[0] * sp.n for _ in range(sp.n)]
    for rows, S in cases:
        if S is None:
            yield sp.initial_lift(rows), _solved_lift(sp, rows, zero)
        else:
            yield sp._lift_at(rows, S), _solved_lift(sp, rows, S)


@pytest.mark.parametrize("d,n,seeded", [
    (1, 1, False), (1, 2, False), (2, 1, False),
    (1, 3, True), (2, 2, True), (3, 1, True), (1, 4, True), (4, 1, True),
])
def test_closed_form_lifts_match_the_solved_reference(d, n, seeded):
    """The lifts built from pivot duals and re-reduced as b - T b equal
    the lifts found by solving for duals and row-reducing over R: on every
    Lagrangian and symmetric S at d1n1, d1n2 and d2n1, and on seeded
    draws past them."""
    sp = SympSpace(ring(d), n)
    for mine, ref in _lifts_against_the_reference(sp, seeded):
        assert mine == ref


def test_skipping_the_re_reduction_fails_the_reference(monkeypatch):
    """Where a partner column is itself a pivot column, the corrections
    land in the pivot block, so a lift that is not re-reduced differs from
    the reference: the comparison above has teeth at d1n2."""
    monkeypatch.setattr(SympSpace, "_reduce_pivots",
                        lambda self, b, pivots: tuple(map(tuple, b)))
    sp = SympSpace(ring(1), 2)
    pairs = _lifts_against_the_reference(sp, False)
    assert any(mine != ref for mine, ref in pairs)


@pytest.mark.parametrize("d,n", [(1, 2), (2, 1)])
def test_rows_that_are_not_canonical_are_refused(d, n):
    """The closed forms need the canonical RREF rows of the span: rows in
    another order, a row added to another and a row scaled by a unit other
    than 1 are refused by initial_lift and _lift_at, and no lift frame is
    cached for them."""
    sp = SympSpace(ring(d), n)
    R, S = sp.R, _every_symmetric(sp)[-1]
    for rows in sp.enumerate_lagrangians():
        summed = (rows[0],) + tuple(map(kref.xor, rows[1:], rows[:-1]))
        bad = [rows[::-1], summed]
        if d > 1:
            bad.append((tuple(R.field_mul(2, x) for x in rows[0]),) + rows[1:])
        for other in bad:
            if other == rows:
                continue
            with pytest.raises(ValueError, match="canonical RREF rows"):
                sp.initial_lift(other)
            with pytest.raises(ValueError, match="canonical RREF rows"):
                sp._lift_at(other, S)
    framed = {rows for rows, in sp._caches["_lift_frame"]}
    assert framed <= set(sp.enumerate_lagrangians())


def _alpha_by_element(e):
    """alpha of an enhanced Lagrangian as a dict keyed by k-tuples."""
    return dict(zip(kref.elements(e.space, e.span), e.alpha))


def test_enhancement_alpha_polarizes_beta():
    """alpha(v + w) = alpha(v) + alpha(w) + beta(v, w) on each subspace."""
    for d, n in ((1, 2), (2, 1)):
        sp = SympSpace(ring(d), n)
        for e in enumerate_enhanced(sp):
            alpha = _alpha_by_element(e)
            for v in alpha:
                for w in alpha:
                    s = tuple(a ^ b for a, b in zip(v, w))
                    want = sp.R.add(sp.R.add(alpha[v], alpha[w]), kref.beta(sp, v, w))
                    assert alpha[s] == want


@pytest.mark.parametrize("d,n", [(1, 2), (2, 1)])
def test_alpha_changed_at_one_element_is_refused(d, n):
    """Changing a valid alpha at any one nonzero element, by a unit or by
    2, breaks polarization, and validation says so."""
    sp = SympSpace(ring(d), n)
    R = sp.R
    for rows in sp.enumerate_lagrangians()[:3]:
        e = sp.enhance_from_lift(sp.initial_lift(rows))
        EnhancedLagrangian(sp, rows, e.alpha)
        for i in range(1, len(e.alpha)):
            for delta in (R.one, R.two):
                alpha = list(e.alpha)
                alpha[i] = R.add(alpha[i], delta)
                with pytest.raises(ValueError, match="^alpha does not polarize beta$"):
                    EnhancedLagrangian(sp, rows, alpha)


@pytest.mark.parametrize("d,n", [(1, 1), (1, 2)])
def test_alpha_of_the_wrong_length_is_refused(d, n):
    """An alpha one value short or one value long, over every Lagrangian,
    is refused with a ValueError before any other check."""
    sp = SympSpace(ring(d), n)
    for rows in sp.enumerate_lagrangians():
        e = sp.enhance_from_lift(sp.initial_lift(rows))
        for alpha in (e.alpha[:-1], e.alpha + (0,)):
            with pytest.raises(ValueError, match="^alpha must be total on L$"):
                EnhancedLagrangian(sp, rows, alpha)


@pytest.mark.parametrize("validate", [True, False])
def test_alpha_as_a_mapping_is_refused(validate):
    """A dict from elements to values is refused whether or not the value
    is validated: its tuple would be the tuple of its keys."""
    sp = SympSpace(ring(1), 1)
    e = sp.enhance_from_lift(sp.initial_lift(sp.enumerate_lagrangians()[0]))
    by_element = dict(zip(kref.elements(sp, e.span), e.alpha))
    with pytest.raises(ValueError, match="not a mapping"):
        EnhancedLagrangian(sp, e.rows, by_element, validate=validate)
    assert EnhancedLagrangian(sp, e.rows, list(by_element.values()),
                              validate=validate) == e


def _validate_all_pairs(e):
    """Reference validation: isotropy and polarization on every unordered
    pair of elements, in order, the first failure raised."""
    sp, R = e.space, e.space.R
    if len(e.rows) != sp.n:
        raise ValueError("subspace is not middle-dimensional")
    # each unordered pair once: omega(l1, l2) = b12 - b21, and once
    # b12 = b21 both conditions are symmetric in (l1, l2)
    elems, alpha = kref.elements(sp, e.span), _alpha_by_element(e)
    for i, l1 in enumerate(elems):
        for l2 in elems[i:]:
            b12 = kref.beta(sp, l1, l2)
            if b12 != kref.beta(sp, l2, l1):
                raise ValueError("subspace is not isotropic")
            l12 = tuple(a ^ b for a, b in zip(l1, l2))
            lhs = R.sub(R.sub(alpha[l12], alpha[l1]), alpha[l2])
            if lhs != b12:
                raise ValueError("alpha does not polarize beta")


def _verdict(validate, *args):
    try:
        validate(*args)
    except ValueError as exc:
        return str(exc)
    return "ok"


def _verdicts(sp, rows, alpha):
    """(generator validator, all-pairs reference) on one candidate."""
    mine = _verdict(EnhancedLagrangian, sp, rows, alpha)
    ref = _verdict(_validate_all_pairs,
                   EnhancedLagrangian(sp, rows, alpha, validate=False))
    return mine, ref


@pytest.mark.parametrize("d,n,count", [(1, 2, 60), (2, 1, 80)])
def test_generator_validation_matches_all_pairs(d, n, count):
    """Every enhancement, and every change of one of its values by 1 or by
    2: the L x generators check and the all-pairs reference accept or
    refuse together, with the same message."""
    sp = SympSpace(ring(d), n)
    R = sp.R
    enh = enumerate_enhanced(sp)
    assert len(enh) == count
    refused = 0
    for e in enh:
        assert _verdicts(sp, e.rows, e.alpha) == ("ok", "ok")
        for i in range(len(e.alpha)):
            for delta in (R.one, R.two):
                alpha = list(e.alpha)
                alpha[i] = R.add(alpha[i], delta)
                mine, ref = _verdicts(sp, e.rows, alpha)
                assert mine == ref == "alpha does not polarize beta"
                refused += 1
    assert refused == count * 2 * (2 ** d) ** n


def test_generator_validation_matches_all_pairs_off_lagrangians():
    """Every 2-dimensional subspace of k^4 at d1n2 that is not isotropic
    (one per echelon pattern), under three alphas: both validators refuse.
    The generator validator runs its isotropy pass first, so it always
    names isotropy, as no alpha polarizes beta there.  The all-pairs
    reference names the first failing pair, which for some alphas is a
    polarization failure met before any non-isotropic pair; on span(e1, f1)
    with alpha = 0 both name isotropy."""
    sp = SympSpace(ring(1), 2)
    R = sp.R
    lagrangians = set(sp.enumerate_lagrangians())
    verdicts = collections.Counter()
    for pivots in itertools.combinations(range(4), 2):
        free = [(i, c) for i in range(2) for c in range(pivots[i] + 1, 4)
                if c not in pivots]
        for vals in itertools.product(range(2), repeat=len(free)):
            rows = [[int(c == p) for c in range(4)] for p in pivots]
            for (i, c), v in zip(free, vals):
                rows[i][c] = v
            rows = tuple(tuple(r) for r in rows)
            if rows in lagrangians:
                continue
            elems = kref.elements(sp, sp.subspace(rows))
            assert any(kref.omega_field(sp, v, w) for v in elems for w in elems)
            for alpha in ([0 for v in elems],
                          [kref.beta(sp, v, v) for v in elems],
                          [R.one if any(v) else 0 for v in elems]):
                mine, ref = _verdicts(sp, rows, alpha)
                assert mine == "subspace is not isotropic"
                verdicts[ref] += 1
    assert verdicts == {"subspace is not isotropic": 36,
                        "alpha does not polarize beta": 24}
    e1_f1 = ((1, 0, 0, 0), (0, 0, 1, 0))
    assert _verdicts(sp, e1_f1, [0] * 4) == (("subspace is not isotropic",) * 2)


def test_beta_is_twice_bt_of_the_lifts():
    """beta, read at the beta masks of packed vectors, equals 2 * bt of the
    {0,1}-coordinate lifts on every pair, and is biadditive: additive in
    each argument along every F2-generator of V, which gives additivity on
    all of V by induction."""
    for d, n in ((1, 2), (2, 1), (2, 2)):
        sp = SympSpace(ring(d), n)
        R = sp.R
        vecs = list(kref.vectors(sp))
        gens = [tuple((1 << a) * (j == i) for j in range(sp.dim))
                for i in range(sp.dim) for a in range(d)]
        beta = {(v, w): sp.beta(sp.pack(v), sp.pack(w)) for v in vecs for w in vecs}
        for (v, w), b in beta.items():
            assert b == R.mul(R.two, sp.bt(sp.lift_vec(v), sp.lift_vec(w)))
        add = R.add
        for g in gens:
            for v in vecs:
                vg = tuple(a ^ b for a, b in zip(v, g))
                assert all(beta[vg, w] == add(beta[v, w], beta[g, w])
                           and beta[w, vg] == add(beta[w, v], beta[w, g])
                           for w in vecs)


def test_enhance_from_lift_canonical():
    sp = SympSpace(ring(2), 1)
    for rows in sp.enumerate_lagrangians():
        e = sp.enhance_from_lift(sp.initial_lift(rows))
        assert e.rows == rows
        assert e.alpha[e.span.index[0]] == 0
        # the enhancement lies among the full torsor for that subspace
        assert e in sp.enumerate_enhancements(rows)


def _enhance_reference(sp, basis):
    """The per-element rule the generator fill replaced: alpha(l) =
    bt(lt, lt) at the ring combination lt of the lift basis whose
    coefficients are {0,1} lifts, one combination per element."""
    R = sp.R
    alpha = {}
    for coeffs in itertools.product(range(R.field_size), repeat=len(basis)):
        lt = linalg.vec_mat(R, [R.lift(c) for c in coeffs], basis)
        alpha[sp.reduce_vec(lt)] = sp.bt(lt, lt)
    return alpha


@pytest.mark.parametrize("d,n,seeded", [
    (1, 2, False), (2, 1, False), (1, 4, True), (2, 2, True), (3, 1, True),
])
def test_enhance_matches_the_per_element_reference(d, n, seeded):
    """enhance_from_lift, filled from the generators of L, equals the
    per-element rule exactly: on every submodule lift of every Lagrangian,
    or on 40 seeded random lifts, each also passed with its rows reversed
    (a basis whose reduction is not in echelon form)."""
    sp = SympSpace(ring(d), n)
    subs = sp.enumerate_lagrangians()
    if seeded:
        rng = random.Random(d * 10 + n)
        lifts = [sp.random_lift(rng.choice(subs), rng) for _ in range(40)]
    else:
        lifts = [lt for rows in subs for lt in sp.enumerate_submodule_lifts(rows)]
    for lift in lifts:
        want = _enhance_reference(sp, lift)
        for basis in (lift, lift[::-1]):
            assert _alpha_by_element(sp.enhance_from_lift(basis)) == want


def _twisted_by_loop(sp, lift_rows, rng):
    """The random enhancement as an explicit loop over generator bits: one
    rng.choice over 2R per F2-generator xi^a of each reduced row, row by
    row, added to the canonical enhancement of the lift."""
    R = sp.R
    base = sp.enhance_from_lift(lift_rows)
    tors = list(R.two_torsion())
    dvals = [[rng.choice(tors) for _ in range(R.d)] for _ in base.rows]
    alpha = []
    for l, a0 in zip(kref.elements(sp, base.span), base.alpha):
        s = a0
        for i, p in enumerate(base.pivots):
            for a in range(R.d):
                if (l[p] >> a) & 1:
                    s = R.add(s, dvals[i][a])
        alpha.append(s)
    return EnhancedLagrangian(sp, base.rows, alpha)


@pytest.mark.parametrize("d,n", [(1, 2), (2, 1), (2, 2), (1, 4)])
def test_random_enhancement_draws_like_the_loop(d, n):
    """Same enhancement and same rng state afterwards as the explicit loop,
    on random lifts of every kind of subspace."""
    sp = SympSpace(ring(d), n)
    subs = sp.enumerate_lagrangians()
    pick = random.Random(d * 10 + n)
    for seed in range(12):
        lift = sp.random_lift(pick.choice(subs), pick)
        rng, ref = random.Random(seed), random.Random(seed)
        assert sp.random_enhancement(lift, rng) == _twisted_by_loop(sp, lift, ref)
        assert rng.getstate() == ref.getstate()


class _ScriptedChoice:
    """An rng whose choice returns the scripted values in order, and checks
    that it is offered the sorted 2R."""

    def __init__(self, R, values):
        self._tors, self._values = R.two_torsion(), iter(values)

    def choice(self, seq):
        assert tuple(seq) == self._tors
        return next(self._values)


@pytest.mark.parametrize("d,n", [(1, 2), (2, 1)])
def test_random_enhancement_covers_the_torsor_once(d, n):
    """Driven over every generator value tuple, the sample entry hits each
    enumerated enhancement exactly once."""
    sp = SympSpace(ring(d), n)
    R = sp.R
    for rows in sp.enumerate_lagrangians():
        lift = sp.initial_lift(rows)
        hits = [sp.random_enhancement(lift, _ScriptedChoice(R, vals))
                for vals in itertools.product(R.two_torsion(), repeat=n * d)]
        assert sorted(hits) == list(sp.enumerate_enhancements(rows))


@pytest.mark.parametrize("d,n", [(1, 2), (2, 1)])
def test_enhance_from_lift_memo(d, n):
    """One shared EnhancedLagrangian per lift basis, however the basis is
    passed, equal to what a fresh space computes."""
    sp = SympSpace(ring(d), n)
    for rows in sp.enumerate_lagrangians():
        for lift in sp.enumerate_submodule_lifts(rows):
            e = sp.enhance_from_lift(lift)
            assert sp.enhance_from_lift([list(b) for b in lift]) is e
            fresh = SympSpace(ring(d), n).enhance_from_lift(lift)
            assert e.key() == fresh.key()
            assert e.pivots == fresh.pivots


def test_enhancement_keys_distinct():
    sp = SympSpace(ring(2), 1)
    enh = enumerate_enhanced(sp)
    assert len({e.key() for e in enh}) == len(enh)


def test_wedge_pairing_values():
    sp = SympSpace(ring(1), 1)
    oriented = list(sp.enumerate_oriented())
    base = sp.standard_oriented()
    transversal = 0
    for o in oriented:
        if _transversal_R(sp, o.basis, base.basis):
            transversal += 1
            w = sp.wedge_pairing(o, base)
            assert sp.R.is_unit(w)
            # scaling the orientation unit scales the pairing
            for u in sp.R.units:
                o2 = type(o)(o.basis, sp.R.mul(o.unit, u))
                assert sp.wedge_pairing(o2, base) == sp.R.mul(u, w)
        else:
            with pytest.raises(ValueError):
                sp.wedge_pairing(o, base)
    # 2 transversal subspaces x 2 lifts x 2 units
    assert transversal == 8


def test_oriented_transform_is_group_action():
    from weil2.heisenberg import enumerate_sp_R

    sp = SympSpace(ring(1), 1)
    gs = enumerate_sp_R(sp)
    assert len(gs) == 48
    oriented = list(sp.enumerate_oriented())
    ident = ((sp.R.one, 0), (0, sp.R.one))
    for o in oriented:
        assert sp.oriented_transform(ident, o).key() == o.key()
    # right action compatibility: acting by g then h equals acting by the
    # row-composite matrix whose rows are g[i] * h
    for g in gs[::7]:
        for h in gs[::5]:
            gh = gs.mul(h, g)
            for o in oriented[::3]:
                assert (sp.oriented_transform(h, sp.oriented_transform(g, o)).key()
                        == sp.oriented_transform(gh, o).key())


def test_oriented_transform_permutes_oriented_set():
    from weil2.heisenberg import enumerate_sp_R

    sp = SympSpace(ring(1), 1)
    keys = {o.key() for o in sp.enumerate_oriented()}
    for g in list(enumerate_sp_R(sp))[::11]:
        image = {sp.oriented_transform(g, o).key() for o in sp.enumerate_oriented()}
        assert image == keys


def test_r_map_projects_along_complement():
    sp = SympSpace(ring(1), 2)
    lags = list(sp.enumerate_lagrangians())
    std = _standard_lagrangian(sp)
    for N in lags:
        if not sp.transversal_k(std, N):
            continue
        for M in lags:
            if not (sp.transversal_k(M, std) and sp.transversal_k(M, N)):
                continue
            terms = sp.r_terms(M, N, std)
            Ms, Ns, Ls = (kref.elements(sp, sp.subspace(rows)) for rows in (M, N, std))
            assert [i for i, *_ in terms] == list(range(len(Ms)))
            for i, j, k, b in terms:
                # m = img + diff with img in N and diff in L
                m, img, diff = Ms[i], Ns[j], Ls[k]
                assert diff == tuple(a ^ c for a, c in zip(m, img))
                assert b == sp.R.psi_exp(kref.beta(sp, m, img))


def _r_map_reference(sp, M_rows, N_rows, L_rows):
    """The projection onto N along L by one solve per element of M."""
    R = sp.R
    cols = linalg.transpose(tuple(N_rows) + tuple(L_rows))
    out = {}
    for m in kref.span(R, M_rows, sp.dim):
        x, = kref.solve_many(kref.field_ops(R), cols, (m,))
        nv = [0] * sp.dim
        for c, row in zip(x[:len(N_rows)], N_rows):
            for t, e in enumerate(row):
                nv[t] ^= R.field_mul(c, e)
        out[m] = tuple(nv)
    return out


@pytest.mark.parametrize("d,n", [(1, 2), (2, 1)])
def test_r_map_matches_per_element_solves(d, n):
    sp = SympSpace(ring(d), n)
    lags = sp.enumerate_lagrangians()
    seen = 0
    for N in lags:
        for L in lags:
            if not sp.transversal_k(N, L):
                continue
            for M in lags:
                Ms, Ns = (kref.elements(sp, sp.subspace(rows)) for rows in (M, N))
                got = {Ms[i]: Ns[j] for i, j, *_ in sp.r_terms(M, N, L)}
                assert got == _r_map_reference(sp, M, N, L)
                seen += 1
    assert seen == TRANSVERSAL_PAIRS[(d, n)] * len(lags)


def _r_terms_per_triple(sp, M_rows, N_rows, L_rows):
    """r_terms by one solve_many per subspace triple, with M's basis rows as
    the right-hand sides."""
    R = sp.R
    xs = kref.solve_many(kref.field_ops(R),
                         linalg.transpose(tuple(N_rows) + tuple(L_rows)),
                         M_rows)
    images = [kref.vec_mat(R, x[:len(N_rows)], N_rows) for x in xs]
    return tuple((m, rm, tuple(a ^ b for a, b in zip(m, rm)), kref.beta(sp, m, rm))
                 for m, rm in zip(kref.span(R, M_rows, sp.dim),
                                  kref.span(R, images, sp.dim)))


def _r_terms_tuple_rule(sp, M_rows, N_rows, L_rows):
    """The terms by the rule on k-tuples that r_terms replaced: the pair's
    projection matrix, row i the image of e_i from one elimination over k
    against the unit vectors, applied to M's basis rows; both spans walked
    by brute force, and beta on tuples."""
    R, ops = sp.R, kref.field_ops(sp.R)
    xs = kref.solve_many(ops, linalg.transpose(N_rows + L_rows),
                         kref.unit_vectors(ops, sp.dim))
    P = [kref.vec_mat(R, x[:len(N_rows)], N_rows) for x in xs]
    images = [kref.vec_mat(R, m, P) for m in M_rows]
    return tuple((m, rm, tuple(a ^ b for a, b in zip(m, rm)), kref.beta(sp, m, rm))
                 for m, rm in zip(kref.span(R, M_rows, sp.dim),
                                  kref.span(R, images, sp.dim)))


def _by_position(sp, M_rows, N_rows, L_rows, terms):
    """Terms (m, r(m), m - r(m), beta(m, r(m))) on k-tuples in the form
    r_terms gives them: span positions and psi_exp(beta), in M's span
    order."""
    M, N, L = (kref.elements(sp, sp.subspace(rows)) for rows in (M_rows, N_rows, L_rows))
    return tuple(sorted((M.index(m), N.index(rm), L.index(lm), sp.R.psi_exp(b))
                        for m, rm, lm, b in terms))


@pytest.mark.parametrize("d,n,seeded", [
    (1, 2, False), (2, 1, False), (1, 4, True), (2, 2, True), (3, 1, True),
])
def test_r_terms_match_the_tuple_rule(d, n, seeded):
    """The packed terms equal the tuple rule read by span position: for
    every M against every transversal (N, L) at d1n2 and d2n1, and on 20
    seeded transversal triples at d1n4, d2n2 and d3n1."""
    sp = SympSpace(ring(d), n)
    lags = sp.enumerate_lagrangians()
    if seeded:
        rng = random.Random(d * 10 + n)
        triples = [sp.sample_transversal_triple(rng) for _ in range(20)]
    else:
        triples = [(N, M, L) for N in lags for L in lags
                   if sp.transversal_k(N, L) for M in lags]
    for N, M, L in triples:
        assert sp.r_terms(M, N, L) == _by_position(
            sp, M, N, L, _r_terms_tuple_rule(sp, M, N, L))


@pytest.mark.parametrize("d,n", [(1, 2), (2, 1)])
def test_r_terms_match_a_per_triple_solve(d, n):
    """Over every transversal triple, the terms read off the tagged echelon
    equal a per-triple solve over k, and no projection over R is built for
    them; a non-transversal pair still raises and caches nothing."""
    sp = SympSpace(ring(d), n)
    lags = sp.enumerate_lagrangians()
    triples = sp.transversal_triples()
    for N, M, L in triples:
        assert sp.r_terms(M, N, L) == _by_position(
            sp, M, N, L, _r_terms_per_triple(sp, M, N, L))
    assert len(sp._caches["r_terms"]) == len(triples)
    assert not sp._caches["_projection"]
    N = lags[0]
    M = next(M for M in lags if sp.transversal_k(M, N))
    for _ in range(2):
        with pytest.raises(ValueError, match="r_terms needs N transversal to L"):
            sp.r_terms(M, N, N)
    assert (M, N, N) not in sp._caches["r_terms"]


@pytest.mark.parametrize("d,n", [
    (1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (1, 3), (1, 4),
])
def test_tagged_projection_matches_the_decomposition(d, n):
    """At every shape with dn <= 4, on every ordering of 8 seeded
    transversal triples, each term of r_terms(M, N, L) names the m of M,
    the n of N and the l of L with m = n + l, found among all sums of the
    brute-force spans of N and L, and psi_exp(beta(m, n))."""
    sp = SympSpace(ring(d), n)
    R = sp.R
    rng = random.Random(100 * d + n)
    for _ in range(8):
        for M, N, L in itertools.permutations(sp.sample_transversal_triple(rng)):
            Ns, Ls = (set(kref.span(R, rows, sp.dim)) for rows in (N, L))
            split = {tuple(a ^ b for a, b in zip(x, y)): (x, y) for x in Ns for y in Ls}
            assert len(split) == R.field_size ** sp.dim
            Ms, Nsorted, Lsorted = (kref.elements(sp, sp.subspace(rows))
                                    for rows in (M, N, L))
            terms = sp.r_terms(M, N, L)
            assert [i for i, *_ in terms] == list(range(len(Ms)))
            for i, j, k, b in terms:
                m = Ms[i]
                assert (Nsorted[j], Lsorted[k]) == split[m]
                assert b == R.psi_exp(kref.beta(sp, m, Nsorted[j]))


def _r_map_tilde_reference(sp, Mt, Nt, Lt):
    """r^Lt on Mt's basis by one solve per basis vector."""
    R = sp.R
    cols = linalg.transpose(tuple(Nt) + tuple(Lt))
    images = []
    for m in Mt:
        xs = kref.solve_many(kref.ring_ops(R), cols, (m,))
        if xs is None:
            raise ValueError("inconsistent or non-unit-pivot system")
        x, = xs
        nv = [0] * sp.dim
        for c, row in zip(x[:len(Nt)], Nt):
            nv = [R.add(s, R.mul(c, y)) for s, y in zip(nv, row)]
        images.append(tuple(nv))
    return images


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return "inconsistent"


@pytest.mark.parametrize("d,n", [(1, 2), (2, 1)])
def test_r_map_memo_matches_a_fresh_space(d, n):
    sp = SympSpace(ring(d), n)
    lags = sp.enumerate_lagrangians()
    triples = [(M, N, L) for N in lags for L in lags if sp.transversal_k(N, L)
               for M in lags]
    first = [sp.r_terms(*t) for t in triples]
    for t, r in zip(triples, first):
        again = sp.r_terms(*t)
        assert again is r
        assert again == SympSpace(ring(d), n).r_terms(*t)


def test_r_map_memo_raises_on_every_non_transversal_call():
    sp = SympSpace(ring(1), 2)
    std = _standard_lagrangian(sp)
    for _ in range(2):
        with pytest.raises(ValueError):
            sp.r_terms(sp.dual_standard_lagrangian(), std, std)


@pytest.mark.parametrize("d,n", [(1, 2), (2, 1)])
def test_r_map_tilde_reads_one_projection_per_pair(d, n):
    """r~ read off the cached projection of each (Nt, Lt) equals one solve
    per basis vector: at d2n1 for every lift against every lift pair over
    a transversal subspace pair, at d1n2 for every lift against four
    transversal lift pairs, two of them over one subspace pair.  There is
    one projection per pair.  Every non-transversal pair raises twice and
    caches nothing, the first one on which the per-vector solves find
    particular solutions included, for every lift on that one."""
    sp = SympSpace(ring(d), n)
    lags = sp.enumerate_lagrangians()
    lifts = {L: sp.enumerate_submodule_lifts(L) for L in lags}
    every_Mt = [Mt for L in lags for Mt in lifts[L]]
    transversal = [(N, L) for N in lags for L in lags if sp.transversal_k(N, L)]
    if n == 1:
        pairs = [(Nt, Lt) for N, L in transversal
                 for Nt in lifts[N] for Lt in lifts[L]]
    else:
        pairs = [(lifts[N][0], lifts[L][1]) for N, L in transversal[:3]]
        pairs.append((lifts[transversal[0][0]][1], lifts[transversal[0][1]][0]))
    for _ in range(2):
        for Nt, Lt in pairs:
            for Mt in every_Mt:
                assert sp.r_map_tilde(Mt, Nt, Lt) == \
                    _r_map_tilde_reference(sp, Mt, Nt, Lt)
    projections = sp._caches["_projection"]
    assert len(projections) == len(pairs)

    off = [(Nt, Lt) for N in lags for L in lags if not sp.transversal_k(N, L)
           for Nt in lifts[N] for Lt in lifts[L]]
    particular = next(pair for pair in off if any(
        _outcome(_r_map_tilde_reference, sp, Mt, *pair) != "inconsistent"
        for Mt in every_Mt))
    for pair in off:
        for Mt in every_Mt if pair == particular else every_Mt[:1]:
            for _ in range(2):
                with pytest.raises(ValueError,
                                   match="r_map_tilde needs N transversal to L"):
                    sp.r_map_tilde(Mt, *pair)
    assert len(projections) == len(pairs)


# -- the ring solve against the eliminated reference ---------------------------

RING_SOLVE_SHAPES = [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2), (1, 4), (4, 1), (2, 3)]


@pytest.mark.parametrize("d,n", RING_SOLVE_SHAPES)
def test_projection_matches_the_eliminated_reference(d, n):
    """_projection on 40 sampled (Nt, Lt) pairs is the projection of the
    reference kernel: row i from solving (N + L)^T x = e_i."""
    sp = SympSpace(ring(d), n)
    R, ops = sp.R, kref.ring_ops(sp.R)
    rng = random.Random(f"projection d{d}n{n}")
    for _ in range(40):
        N, _, L = sp.sample_transversal_triple(rng)
        Nt, Lt = sp.random_lift(N, rng), sp.random_lift(L, rng)
        xs = kref.solve_many(ops, linalg.transpose(Nt + Lt), kref.unit_vectors(ops, sp.dim))
        assert sp._projection(Nt, Lt) == tuple(
            linalg.vec_mat(R, x[:n], Nt) for x in xs)


@pytest.mark.parametrize("d,n", [(1, 1), (2, 1), (1, 2), (3, 1)])
def test_dual_family_matches_the_eliminated_reference(d, n):
    """_dual_family on both families that symplectic_lift_matrix solves
    for, at every element of Sp(V): the {0,1}-lifted rows b and b made
    isotropic.  The reference solves b' x = e_j for b' = (-b[n:], b[:n])
    with free unknowns zero."""
    sp = SympSpace(ring(d), n)
    R, ops = sp.R, kref.ring_ops(sp.R)
    units = kref.unit_vectors(ops, n)
    seen = 0
    for g in heisenberg.enumerate_sp_k(sp):
        b = [sp.lift_vec(tuple(g[i])) for i in range(n)]
        for family in (b, sp.make_isotropic(b, sp._dual_family(b))):
            rows = [tuple(R.neg(x) for x in v[n:]) + tuple(v[:n]) for v in family]
            assert sp._dual_family(family) == kref.solve_many(ops, rows, units)
        seen += 1
    assert seen == heisenberg.group_order(d, n, "Sp(V)")


def test_oriented_transform_matches_the_eliminated_reference():
    """oriented_transform on all 576 (gt, oriented) pairs at d1n1: the
    reference kernel's RREF of the moved basis, oriented by the determinant
    at its pivot columns."""
    sp = SympSpace(ring(1), 1)
    R = sp.R
    pairs = [(gt, o) for gt in heisenberg.enumerate_sp_R(sp)
             for o in sp.enumerate_oriented()]
    assert len(pairs) == 576
    for gt, o in pairs:
        img = [linalg.vec_mat(R, b, gt) for b in o.basis]
        can, pivots = kref.rref_ring(R, img)
        det = linalg.det_ring(R, tuple(tuple(v[p] for p in pivots) for v in img))
        assert sp.oriented_transform(gt, o).key() == \
            OrientedLagrangian(can, R.mul(o.unit, det)).key()


@pytest.mark.parametrize("family", ["zero-row", "repeated-row", "two-torsion-row"])
def test_ring_solve_refuses_dependent_reductions(family):
    """Rows whose reductions are dependent over k have no unit pivot
    block: a RuntimeError, even where the rows are distinct over R."""
    sp = SympSpace(ring(2), 2)
    R = sp.R
    b, c = sp.initial_lift(sp.enumerate_lagrangians()[5])
    twice = tuple(R.mul(R.two, x) for x in c)
    rows = {"zero-row": [b, twice], "repeated-row": [b, c, b],
            "two-torsion-row": [b, c, linalg.vec_add(R, b, twice)]}[family]
    with pytest.raises(RuntimeError, match="reductions are dependent"):
        sp._ring_solve(rows)


def test_dual_family_failure_is_a_program_fault():
    """Every caller passes a free family, so a dual system without a
    solution is an invariant failure, not bad input: 2 b and a repeated
    row reduce to dependent rows."""
    sp = SympSpace(ring(1), 1)
    R = sp.R
    (b,) = sp.initial_lift(sp.enumerate_lagrangians()[0])
    for family in ([tuple(R.mul(R.two, x) for x in b)], [b, b]):
        with pytest.raises(RuntimeError, match="reductions are dependent"):
            sp._dual_family(family)


def _rank_over_k(R, rows):
    """Reference: the rank of rows over k, by elimination."""
    return kref.rank(R, rows)


def test_transversal_k_memo_matches_rank():
    R = ring(1)
    sp = SympSpace(R, 2)
    lags = sp.enumerate_lagrangians()
    for _ in range(2):
        for a in lags:
            for b in lags:
                want = _rank_over_k(R, a + b) == sp.dim
                assert sp.transversal_k(a, b) == want
    assert len(sp._caches["transversal_k"]) == len(lags) ** 2


@pytest.mark.parametrize("d,n,first", [
    (1, 1, None), (1, 2, None), (2, 1, None), (3, 1, None), (2, 2, 60),
    (1, 3, 60),
])
def test_transversal_k_matches_rank_over_k(d, n, first):
    """The F2-rank of the packed generators decides transversality as the
    rank over k does: on every ordered pair of Lagrangians (of the first 60
    at d2n2 and d1n3), and on 200 seeded pairs of n-row families over k,
    which may be rank-deficient."""
    sp = SympSpace(ring(d), n)
    R = sp.R
    lags = sp.enumerate_lagrangians()[:first]
    seen = collections.Counter()
    for a in lags:
        for b in lags:
            want = _rank_over_k(R, a + b) == sp.dim
            assert sp.transversal_k(a, b) == want
            seen[want] += 1
    assert seen[True] and seen[False]
    rng = random.Random(10 * d + n)
    for _ in range(200):
        a, b = (tuple(tuple(rng.randrange(R.field_size) for _ in range(sp.dim))
                      for _ in range(n)) for _ in range(2))
        assert sp.transversal_k(a, b) == (_rank_over_k(R, a + b) == sp.dim)


def _parity(x):
    return x.bit_count() & 1


@pytest.mark.parametrize("d,n", [(1, 1), (1, 2), (2, 1), (3, 1), (2, 2)])
def test_packed_forms_match_the_coordinate_loops(d, n):
    """On every pair (v, w), against the coordinate rules of kref: pack is
    additive, bit a of beta_field(v, w) and of omega_field(v, w) is the
    parity of pack(v) against the a-th beta and omega mask of pack(w),
    beta(pack(v), pack(w)) is kref's beta, so beta(pack(v), pack(v)) is
    twice the lift of Q(v) = beta_field(v, v), and psi_exp(beta(v, w)) is
    twice its parity against trace_mask(pack(w))."""
    sp = SympSpace(ring(d), n)
    R = sp.R
    vecs = list(kref.vectors(sp))
    packed = [sp.pack(v) for v in vecs]
    assert len(set(packed)) == len(vecs)
    for w, pw in zip(vecs, packed):
        beta_masks, omega_masks = sp.beta_masks(pw), sp.omega_masks(pw)
        T = sp.trace_mask(pw)
        for v, pv in zip(vecs, packed):
            assert sp.pack(tuple(a ^ b for a, b in zip(v, w))) == pv ^ pw
            assert kref.beta_field(sp, v, w) == sum(
                _parity(pv & m) << a for a, m in enumerate(beta_masks))
            assert kref.omega_field(sp, v, w) == sum(
                _parity(pv & m) << a for a, m in enumerate(omega_masks))
            assert sp.beta(pv, pw) == kref.beta(sp, v, w)
            assert R.psi_exp(sp.beta(pv, pw)) == 2 * _parity(pv & T)
        assert sp.beta(pw, pw) == R.mul(R.two, R.lift(kref.beta_field(sp, w, w)))


@pytest.mark.parametrize("d,n", [(1, 2), (2, 1), (3, 1)])
def test_subspace_split_matches_the_row_action(d, n):
    """For every Lagrangian L and every vector v, L's Subspace splits
    pack(v) at the pack of the combination of L's RREF rows by v's pivot
    coordinates, which lies in L and agrees with v at the pivots."""
    sp = SympSpace(ring(d), n)
    for rows in sp.enumerate_lagrangians():
        span = sp.subspace(rows)
        packed = set(span.packed)
        for v in kref.vectors(sp):
            l = kref.vec_mat(sp.R, [v[p] for p in span.pivots], span.rows)
            assert all(l[p] == v[p] for p in span.pivots)
            assert span.split(sp.pack(v)) == sp.pack(l)
            assert sp.pack(l) in packed


def _subspace_cases(sp, rng):
    """Seeded row tuples of 0 to 2n + 1 rows over k: random rows (mostly
    spanning non-isotropic subspaces), then the same with a dependent row
    (a k-multiple of one plus another) and with a zero row appended."""
    q, m = sp.R.field_size, sp.dim
    out = []
    for _ in range(12):
        rows = tuple(tuple(rng.randrange(q) for _ in range(m))
                     for _ in range(rng.randrange(m + 2)))
        out.append(rows)
        if len(rows) >= 2:
            c = rng.randrange(1, q)
            out.append(rows + (tuple(sp.R.field_mul(c, x) ^ y
                                     for x, y in zip(rows[0], rows[1])),))
        out.append(rows + ((0,) * m,))
    return out


@pytest.mark.parametrize("d,n", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_subspace_matches_brute_force(d, n):
    """The packed Subspace of each row tuple against the coordinate
    references: rows and pivots are the kernel's RREF over k, packed lists
    the brute-force span sorted as k-vectors, index is the position in
    packed, and gens are xi^a * row_i, i outer and a inner.  whole() is V
    on the unit rows, its packed elements, unpacked, in itertools.product
    order: the order of H(V) and of the Sp(V) walk."""
    sp = SympSpace(ring(d), n)
    R = sp.R
    cases = _subspace_cases(sp, random.Random(10 * d + n))
    cases.append(tuple(map(sp.std_basis_k, range(sp.dim))))
    isotropic = collections.Counter()
    for rows in cases:
        span = sp.subspace(rows)
        assert (span.rows, span.pivots) == kref.rref(R, rows)
        assert span.packed == tuple(map(sp.pack, sorted(set(kref.span(R, rows, sp.dim)))))
        assert span.index == {x: i for i, x in enumerate(span.packed)}
        assert span.gens == tuple(sp.pack(tuple(R.field_mul(1 << a, c) for c in row))
                                  for row in span.rows for a in range(d))
        isotropic[span.isotropic()] += 1
    assert isotropic[False] and isotropic[True]
    whole = sp.whole()
    assert whole.rows == cases[-1] and whole.pivots == tuple(range(sp.dim))
    assert [sp.unpack(x) for x in whole.packed] == list(
        itertools.product(range(R.field_size), repeat=sp.dim))
    assert whole.gens == tuple(1 << b for b in range(2 * sp.dn))


def test_packed_validation_names_isotropy_on_every_plane_at_d2n2():
    """All 357 planes of k^4 over F4, with alpha = 0: the packed validator
    refuses the 272 that are not isotropic as "subspace is not isotropic",
    and on the 85 Lagrangians it gives the all-pairs reference's verdict."""
    sp = SympSpace(ring(2), 2)
    q = sp.R.field_size
    lagrangians = set(sp.enumerate_lagrangians())
    verdicts = collections.Counter()
    for pivots in itertools.combinations(range(4), 2):
        free = [(i, c) for i in range(2) for c in range(pivots[i] + 1, 4)
                if c not in pivots]
        for vals in itertools.product(range(q), repeat=len(free)):
            rows = [[int(c == p) for c in range(4)] for p in pivots]
            for (i, c), v in zip(free, vals):
                rows[i][c] = v
            rows = tuple(tuple(r) for r in rows)
            mine, ref = _verdicts(sp, rows, [0] * q ** 2)
            if rows in lagrangians:
                assert mine == ref
            else:
                assert mine == "subspace is not isotropic"
            verdicts[rows in lagrangians, mine] += 1
    assert sum(verdicts.values()) == 357
    assert verdicts[False, "subspace is not isotropic"] == 272
    assert verdicts[True, "ok"] + verdicts[True, "alpha does not polarize beta"] == 85
    assert verdicts[True, "ok"] and verdicts[True, "alpha does not polarize beta"]


def test_each_subspace_is_lifted_once_per_sampled_run(monkeypatch):
    """A sampled cocycle run builds the lift frame of each subspace it
    draws once: every lift it draws over the subspace, and route 3's
    initial lift, read that frame."""
    framed = collections.Counter()
    build = SympSpace._lift_frame.__wrapped__

    @functools.wraps(build)
    def counting(self, rows):
        framed[rows] += 1
        return build(self, rows)

    monkeypatch.setattr(SympSpace, "_lift_frame", symplectic._cached(counting))
    from weil2 import verify
    assert all(c.passed for c in verify.cocycle_checks_sampled(1, 3, 6, 0))
    assert framed and set(framed.values()) == {1}


def test_space_keeps_its_caches_in_one_dict():
    """A d1n2 cocycle-table sweep, a walk over every lift, one intertwiner,
    the key of one ASp(V) element and one product in Sp(Vt) fill every
    memo of the space, and each lives in _caches under the name of its
    method; no other attribute grows."""
    from weil2 import cli, heisenberg, models

    sp = SympSpace(ring(1), 2)
    for *_, Cs in cli._cocycle_rows(sp, "exhaustive", 1, 0, repr):
        list(Cs)
    lags = sp.enumerate_lagrangians()
    lifts = {rows: sp.enumerate_submodule_lifts(rows) for rows in lags}
    for rows in lags:
        for lt in lifts[rows]:
            sp.enhance_from_lift(lt)
    N, L = next((N, L) for N in lags for L in lags if sp.transversal_k(N, L))
    sp.r_map_tilde(lifts[N][0], lifts[N][0], lifts[L][0])
    models.intertwiner_matrix(*(sp.enhance_from_lift(lifts[r][0]) for r in (N, L)))
    identity = tuple(map(sp.std_basis_k, range(sp.dim)))
    gt = heisenberg.symplectic_lift_matrix(sp, identity)
    heisenberg.lift_sp(sp, gt).key()
    assert heisenberg._sp_R_mul(sp, gt, gt) == gt
    assert set(vars(sp)) == {"R", "n", "dim", "dn", "_caches", "_two_lift",
                             "_xi_shift"}
    cached = {name for name, f in vars(SympSpace).items() if hasattr(f, "__wrapped__")}
    assert set(sp._caches) == cached


def test_exhaustive_cap_guard():
    sp = SympSpace(ring(1), 5)
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded, match="list 75,735 Lagrangians > 65,536"):
        list(sp.enumerate_lagrangians())
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("d,n,listing,count", [
    (1, 4, SympSpace.enumerate_oriented, "4,700,160 oriented Lagrangians"),
    (1, 4, SympSpace.oriented_by_rows, "4,700,160 oriented Lagrangians"),
    (4, 1, enumerate_enhanced, "1,114,112 enhanced Lagrangians"),
    (2, 3, enumerate_enhanced, "22,630,400 enhanced Lagrangians"),
], ids=["oriented-d1n4", "oriented-fibres-d1n4", "enhanced-d4n1",
        "enhanced-d2n3"])
def test_listing_refused_on_its_own_count(d, n, listing, count):
    """#Lag * q^{n(n+1)/2} * |R^x| oriented and #Lag * q^{dn} enhanced
    Lagrangians, refused before the Lagrangian search starts."""
    sp = SympSpace(ring(d), n)
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded, match=f"list {count} > 65,536"):
        listing(sp)
    assert time.perf_counter() - t0 < 1.0


def test_rank_outside_range_is_refused():
    """n above MAX_N is refused before any closed-form count is computed."""
    with pytest.raises(ValueError, match=r"n must be in 1\.\.16, got 17"):
        SympSpace(ring(1), 17)
    with pytest.raises(ValueError, match=r"n must be in 1\.\.16, got 10000"):
        check_sweep(1, 10 ** 4)


def _lagrangians_by_echelon_filter(sp):
    """Reference enumeration: every echelon pattern (pivot set plus free
    entries), kept when omega vanishes on each pair of rows."""
    R, n, m = sp.R, sp.n, sp.dim
    found = []
    for pivots in itertools.combinations(range(m), n):
        free_pos = [(i, c) for i in range(n)
                    for c in range(pivots[i] + 1, m) if c not in pivots]
        for vals in itertools.product(range(R.field_size), repeat=len(free_pos)):
            rows = [[0] * m for _ in range(n)]
            for i in range(n):
                rows[i][pivots[i]] = 1
            for (i, c), v in zip(free_pos, vals):
                rows[i][c] = v
            rows = [tuple(r) for r in rows]
            if all(kref.omega_field(sp, rows[i], rows[j]) == 0
                   for i in range(n) for j in range(i + 1, n)):
                found.append(tuple(rows))
    return tuple(sorted(found))


@pytest.mark.parametrize("d,n", [
    (1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (1, 3),
])
def test_backtracking_lagrangians_match_echelon_filter(d, n):
    """The packed-mask pruning against the plain filter, with d > 1 and
    n > 1 together at d2n2 and the largest field at d4n1."""
    sp = SympSpace(ring(d), n)
    assert sp.enumerate_lagrangians() == _lagrangians_by_echelon_filter(sp)


def test_lagrangian_count_guard_raises():
    """Omega masks that are all zero let all 35 echelon patterns at d1n2
    pass the pruning; the count guard refuses the result."""
    sp = SympSpace(ring(1), 2)
    sp.omega_masks = lambda w: (0,)
    with pytest.raises(RuntimeError, match="^35 Lagrangians, expected 15$"):
        sp.enumerate_lagrangians()


@pytest.mark.parametrize("d,n", [
    (1, 1), (2, 1), (1, 2), (2, 2), (1, 4), (3, 2), (2, 3), (4, 2),
])
def test_lagrangian_count_formula(d, n):
    """#Lagrangians of a 2n-dimensional symplectic space over F_q is
    prod_{i <= n} (q^i + 1); 2,295 at d = 1, n = 4."""
    q = 2 ** d
    want = math.prod(q ** i + 1 for i in range(1, n + 1))
    assert len(SympSpace(ring(d), n).enumerate_lagrangians()) == want
    if (d, n) == (1, 4):
        assert want == 2295


def test_residue_symplectic_form():
    """omega(v, w) = beta(v, w) - beta(w, v), beta read on packed vectors,
    is 2 * lift(beta_field(v, w) + beta_field(w, v)) on all pairs."""
    for d, n in ((1, 2), (2, 1)):
        sp = SympSpace(ring(d), n)
        R = sp.R
        for v in kref.vectors(sp):
            for w in kref.vectors(sp):
                want = R.mul(R.two, R.lift(kref.beta_field(sp, v, w)
                                           ^ kref.beta_field(sp, w, v)))
                pv, pw = sp.pack(v), sp.pack(w)
                assert R.sub(sp.beta(pv, pw), sp.beta(pw, pv)) == want


class _CountingRng:
    """Stands in for random.Random: randrange returns 0, 1, 2, ... in turn."""

    def __init__(self):
        self.next = 0

    def randrange(self, stop):
        value, self.next = self.next, self.next + 1
        assert value < stop
        return value


@pytest.mark.parametrize("d,n", [(1, 2), (2, 1), (2, 2)])
def test_random_lift_is_a_bijection_onto_lifts(d, n):
    """Driven over every symmetric S, random_lift, that is
    S -> _lift_at(rows, S), hits each enumerated lift exactly once, so a
    uniform S gives a uniform lift.  The list is sorted, not in S order:
    at d1n2 and d2n2 some subspaces list their lifts in another order than
    the draws, so random_lift has the distribution of rng.choice on the
    list but not its draw."""
    sp = SympSpace(ring(d), n)
    size = sp.R.field_size ** (n * (n + 1) // 2)
    reordered = 0
    for rows in sp.enumerate_lagrangians():
        rng = _CountingRng()
        drawn = [sp.random_lift(rows, rng) for _ in range(size)]
        assert len(set(drawn)) == size
        assert tuple(sorted(drawn)) == sp.enumerate_submodule_lifts(rows)
        reordered += drawn != sorted(drawn)
    assert bool(reordered) == ((d, n) != (2, 1))


def test_random_lift_consumes_one_choice_worth_of_rng():
    """A lift draw advances the generator exactly as rng.choice on the list
    of all lifts would, so the draws after it are unchanged."""
    sp = SympSpace(ring(1), 3)
    rows = _standard_lagrangian(sp)
    size = len(sp.enumerate_submodule_lifts(rows))
    for seed in range(5):
        a, b = random.Random(seed), random.Random(seed)
        sp.random_lift(rows, a)
        b.choice(range(size))
        assert a.getstate() == b.getstate()


class Redraw(Exception):
    """A randrange call past those of a draw that redraws nothing."""


class _ScriptedRng:
    """Stands in for random.Random: randrange returns the scripted values
    in turn, then 0, recording each bound; the call after the first
    `calls` raises Redraw."""

    def __init__(self, script, calls):
        self.script, self.calls, self.bounds = script, calls, []

    def randrange(self, stop):
        i = len(self.bounds)
        if i == self.calls:
            raise Redraw
        self.bounds.append(stop)
        return self.script[i] if i < len(self.script) else 0


def every_outcome(draw, calls):
    """draw(rng) on every sequence of randrange outcomes, in odometer order,
    that takes exactly `calls` calls; a sequence that would redraw is
    dropped.  The bound of each call of such a sequence is fixed, so every
    kept sequence is equally likely, and a sampler that redraws until it
    accepts is uniform exactly when the kept outcomes are equally often
    reached."""
    script = []
    while True:
        rng = _ScriptedRng(script, calls)
        try:
            out = draw(rng)
        except Redraw:
            pass
        else:
            assert len(rng.bounds) == calls
            yield out
        script = script + [0] * (len(rng.bounds) - len(script))
        while script and script[-1] + 1 == rng.bounds[len(script) - 1]:
            script.pop()
        if not script:
            return
        script[-1] += 1


def _gl_order(q, n):
    return math.prod(q ** n - q ** i for i in range(n))


@pytest.mark.parametrize("d,n", [(1, 2), (2, 1)])
def test_random_lagrangian_is_exactly_uniform(d, n):
    """Over every outcome of its n draws, the isotropic walk reaches each
    Lagrangian through its |GL_n(k)| ordered bases, and nothing else."""
    sp = SympSpace(ring(d), n)
    counts = collections.Counter(every_outcome(sp.random_lagrangian, n))
    assert set(counts) == set(sp.enumerate_lagrangians())
    assert set(counts.values()) == {_gl_order(2 ** d, n)}


@pytest.mark.parametrize("d,n,triples", [(1, 2, 480), (2, 1, 60)])
def test_sample_transversal_triple_is_exactly_uniform(d, n, triples):
    """Over every outcome of its n + 2 draws (the walk, S and T), the
    sampler reaches each pairwise-transversal triple equally often: as
    often as the walk reaches N."""
    sp = SympSpace(ring(d), n)
    counts = collections.Counter(every_outcome(sp.sample_transversal_triple, n + 2))
    assert set(counts) == set(sp.transversal_triples())
    assert len(counts) == triples
    assert set(counts.values()) == {_gl_order(2 ** d, n)}


@pytest.mark.parametrize("d,n", [(1, 4), (2, 2), (3, 1), (4, 1), (2, 3)])
def test_seeded_draws_are_listed_lagrangians(d, n):
    """Seeded draws give canonical rows that enumerate_lagrangians lists,
    and triples whose pairs have rank 2n over k."""
    sp = SympSpace(ring(d), n)
    lags = set(sp.enumerate_lagrangians())
    rng = random.Random(10 * d + n)
    for _ in range(20):
        assert sp.random_lagrangian(rng) in lags
        triple = sp.sample_transversal_triple(rng)
        assert set(triple) <= lags
        for a, b in itertools.combinations(triple, 2):
            assert kref.rank(sp.R, a + b) == 2 * n


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_packed_multiples_are_the_generators(d):
    """xi^a v on packed vectors, by shift and reduction, equals xi^a v
    multiplied coordinate by coordinate over k, packed."""
    sp = SympSpace(ring(d), 2)
    rng = random.Random(d)
    for _ in range(100):
        v = tuple(rng.randrange(2 ** d) for _ in range(sp.dim))
        assert sp._multiples(sp.pack(v)) == [
            sp.pack(tuple(sp.R.field_mul(1 << a, c) for c in v)) for a in range(d)]


_INVALID_UNDER_O = """
from weil2.galois import ring
from weil2.symplectic import EnhancedLagrangian, SympSpace

sp = SympSpace(ring(1), 2)
cases = {
    # span(e1, f1): omega(e1, f1) = 2
    "subspace is not isotropic": (((1, 0, 0, 0), (0, 0, 1, 0)), {}),
    # a line in a 4-dimensional space
    "subspace is not middle-dimensional": (((1, 0, 0, 0),), {}),
    # alpha = 0 polarizes beta = 0 on span(e1, e2); change it at e1
    "alpha does not polarize beta": (((1, 0, 0, 0), (0, 1, 0, 0)),
                                     {(1, 0, 0, 0): 1}),
}
for message, (rows, changed) in cases.items():
    alpha = [changed.get(sp.unpack(x), 0) for x in sp.subspace(rows).packed]
    try:
        EnhancedLagrangian(sp, rows, alpha)
    except ValueError as exc:
        if str(exc) != message:
            raise SystemExit(f"expected {message!r}, got {exc!r}")
    else:
        raise SystemExit(f"accepted: {message}")
print("ok")
"""


def test_enhanced_lagrangian_invariants_survive_optimize():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-O", "-c", _INVALID_UNDER_O],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


@pytest.mark.parametrize("d,n,triples", [
    (1, 1, 6), (2, 1, 60), (1, 2, 480), (3, 1, 504), (1, 3, 241920),
])
def test_transversal_triple_count_formula(d, n, triples):
    assert transversal_triple_count(2 ** d, n) == triples
    sp = SympSpace(ring(d), n)
    assert len(sp.transversal_triples()) == triples


@pytest.mark.parametrize("d,n", [(1, 1), (2, 1), (1, 2)])
def test_transversal_triples_in_product_order(d, n):
    """The cocycle table lists its triples in this order, so it is pinned
    against the in-order filter of itertools.product; the transversal_k
    memo holds every ordered pair of Lagrangians."""
    sp = SympSpace(ring(d), n)
    lags = sp.enumerate_lagrangians()
    triples = sp.transversal_triples()
    assert set(sp._caches["transversal_k"]) == set(itertools.product(lags, repeat=2))
    want = [(a, b, c) for a, b, c in itertools.product(lags, repeat=3)
            if sp.transversal_k(a, b) and sp.transversal_k(a, c)
            and sp.transversal_k(b, c)]
    assert triples == want


@pytest.mark.parametrize("d,n", [(1, 1), (2, 1), (1, 2)])
def test_check_sweep_keeps_the_gated_shapes(d, n):
    check_sweep(d, n)


@pytest.mark.parametrize("d,n", [
    (3, 1), (2, 2), (1, 3), (4, 1), (1, 4), (3, 2), (1, 5), (4, 2),
])
def test_check_sweep_refuses_with_the_count(d, n):
    q = 2 ** d
    enhanced = transversal_triple_count(q, n) * q ** (3 * d * n)
    assert enhanced > MAX_SWEEP
    with pytest.raises(CapExceeded, match=f"visit {enhanced:,} enhanced triples"):
        check_sweep(d, n)


def test_exhaustive_by_default_is_d_times_n_at_most_2():
    """The closed-form sweep count alone admits exactly the shapes with
    d*n <= 2, so the default mode needs no rule of its own."""
    for d in range(1, 5):
        for n in range(1, 9):
            assert exhaustive_by_default(d, n) == (d * n <= 2), (d, n)


@pytest.mark.parametrize("d,n,mode,count,want", [
    (1, 2, None, 0, "exhaustive"),
    (2, 2, None, 1, "sampled"),
    (1, 1, "sampled", 1, "sampled"),
    (1, 2, "exhaustive", 0, "exhaustive"),
])
def test_check_cocycle_resolves_the_mode(d, n, mode, count, want):
    """No mode means the sweep where it is admitted; an exhaustive run
    ignores the sample count."""
    assert check_cocycle(d, n, mode, count) == want


@pytest.mark.parametrize("d,n,mode,count,message", [
    (2, 2, None, 0, "sample count must be >= 1, got 0"),
    (1, 5, "sampled", 0, "sample count must be >= 1, got 0"),
    (1, 5, "sampled", 1, "list 75,735 Lagrangians"),
    (2, 2, "exhaustive", 1, "visit 4,380,866,641,920 enhanced triples"),
    (1, 17, None, 1, "n must be in 1..16, got 17"),
])
def test_check_cocycle_refuses_in_order(d, n, mode, count, message):
    """A sampled run checks its count before its listing."""
    with pytest.raises(ValueError, match=message):
        check_cocycle(d, n, mode, count)


def test_no_module_reads_the_environment():
    """Caps are lowered by setting the module constant, never by an
    environment variable."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "weil2")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                text = fh.read()
            assert "environ" not in text and "getenv" not in text, name
