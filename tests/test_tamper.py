"""Every check family of the witt, trivialization and splitting suites,
cocycle.three-route (through each of its three routes), weil.heisenberg-
commutant (through its norm, its closure and H(V)'s product),
weil.commutant, weil.egorov,
the four intro families and the four disc families can FAIL: each row of
the tables below mutates one function or constant of weil2 and names the
family that must then fail, together with any other family the same
mutation breaks.  The suite must still run to the end and report the
failures, at every shape of each such family.  A family is a check name
without its .dXnY suffix.  The last rows mutate the ZiMatrix product
kernel itself and the one rule that reads every operator ratio and Gauss
sum as zeta^e sqrt2^s.  The sampler rows break the construction of a
sampled transversal triple, which must then raise its own invariant."""

import random
import re

import pytest

from weil2 import heisenberg, models, symplectic, transport, verify, witt
from weil2.models import ZiMatrix, gaussian_mul
from weil2.galois import ring
from weil2.symplectic import SympSpace, enumerate_enhanced
from weil2.transport import ScaledTransport, monomial_product
from weil2.weil import WeilRepresentation

composes_to = ScaledTransport.composes_to
intertwiner_matrix = models.intertwiner_matrix
pi_matrix = models.pi_matrix
weil_operator = WeilRepresentation.operator
norm_coeff = verify._norm_coeff
transport_square = verify.transport_square
trivializing_scalar = verify.trivializing_scalar

gauss_sum = witt.gauss_sum
gw_exponent = witt.gw_exponent
decompose = witt.decompose
IDENTITY3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# Gauss sums and cocycle values are Gaussian integers (re, im)
I = (0, 1)


def _gauss_sum_at_rank(rank, change):
    """gauss_sum with its value changed on grams of one rank."""
    return lambda B: change(gauss_sum(B)) if len(B) == rank else gauss_sum(B)


def _gw_exponent_plus(k, when):
    """gw_exponent plus k on the counts where when(counts) holds."""
    return lambda counts: (gw_exponent(counts) + k * when(counts)) % 8


def _identity_witness(B):
    """decompose's real counts with the identity as the witness U."""
    counts, _ = decompose(B)
    return counts, tuple(tuple(int(i == j) for j in range(len(B)))
                         for i in range(len(B)))


def _family(name):
    return re.sub(r"\.d\d+n\d+$", "", name)


def _times_i(T):
    return ScaledTransport(monomial_product(T.scalar, (2, 0)), T.matrix,
                           T.power)


def _negated_compose(self, other, target):
    """composes_to with the composite's scalar negated."""
    return composes_to(ScaledTransport(monomial_product(self.scalar, (4, 0)),
                                       self.matrix, self.power), other, target)


def _unscaled_materialization(T):
    """materialize_transport without its scalar."""
    P = out = T.matrix
    for _ in range(T.power - 1):
        out = out.kron(P)
    return out


TAMPERS = [
    ("witt.purity.rank<=3", "gauss_sum",
     _gauss_sum_at_rank(2, lambda G: gaussian_mul(G, (1, 1))),
     {"gw.gauss-fourth-power"}),
    ("witt.decompose-witness", "decompose", _identity_witness, set()),
    ("witt.rel1", "REL1_WITNESS",
     tuple(tuple(int(i == j) for j in range(4)) for i in range(4)), set()),
    ("witt.rel2", "REL2_WITNESS", IDENTITY3, set()),
    ("witt.rel3", "REL3_WITNESS", IDENTITY3, set()),
    ("witt.gauss-of-one", "gauss_sum",
     _gauss_sum_at_rank(1, lambda G: (G[0], -G[1])), set()),
    ("gw.additive", "gw_exponent",
     _gw_exponent_plus(1, lambda counts: witt.counts_rank(counts) >= 3),
     {"gw.generator-order", "gw.vanishing"}),
    ("gw.generator-order", "gw_exponent",
     _gw_exponent_plus(4, lambda counts: counts[3] > 0), {"gw.additive"}),
    ("gw.gauss-fourth-power", "gauss_sum",
     _gauss_sum_at_rank(4, lambda G: (-G[0], -G[1])), set()),
    ("gw.vanishing", "counts_disc", lambda counts: 1, set()),
]


TRANSPORT_TAMPERS = [
    ("trivialization.multiplicative", ScaledTransport, "composes_to",
     _negated_compose),
    ("trivialization.auxiliary-independence", verify, "trivializing_scalar",
     lambda space: monomial_product(trivializing_scalar(space), (2, 0))),
    ("trivialization.materialized-16x16", verify, "materialize_transport",
     _unscaled_materialization),
    ("splitting.multiplicative", ScaledTransport, "composes_to",
     _negated_compose),
    ("splitting.square-is-trivialization", verify, "transport_square",
     lambda S: _times_i(transport_square(S))),
    ("splitting.gauss-conj-symmetry", witt, "gauss_sum",
     lambda B: gaussian_mul(gauss_sum(B), I)
     if len(B) == 3 and witt.det4(B) % 2 == 0 else gauss_sum(B)),
    ("splitting.norm-coeff-identity", verify, "_norm_coeff",
     lambda sp, oM, oL: gaussian_mul(norm_coeff(sp, oM, oL), I)),
]
SUITES = {"trivialization": verify.suite_trivialization,
          "splitting": lambda: verify.suite_splitting(0)}


def _assert_fails_exactly(checks, families):
    """The failed checks are every check of the given families, at every
    shape, and no other."""
    failed = {c.name for c in checks if not c.passed}
    assert {_family(name) for name in failed} == families
    assert failed == {c.name for c in checks if _family(c.name) in families}


@pytest.mark.parametrize("family,attr,value,also", TAMPERS,
                         ids=[row[0] for row in TAMPERS])
def test_tampered_witt_fails_its_family(monkeypatch, family, attr, value, also):
    monkeypatch.setattr(witt, attr, value)
    _assert_fails_exactly(verify.suite_witt(), {family} | also)


@pytest.mark.parametrize("family,target,attr,value", TRANSPORT_TAMPERS,
                         ids=[row[0] for row in TRANSPORT_TAMPERS])
def test_tampered_transport_fails_its_family(monkeypatch, family, target,
                                             attr, value):
    monkeypatch.setattr(target, attr, value)
    _assert_fails_exactly(SUITES[family.split(".")[0]](), {family})


def test_every_transport_family_has_a_tamper_row():
    reported = {_family(c.name) for suite in SUITES.values() for c in suite()}
    assert reported == {row[0] for row in TRANSPORT_TAMPERS}


def _first_entry_times_i(eM, eL):
    """intertwiner_matrix with its first entry multiplied by i."""
    F = intertwiner_matrix(eM, eL)
    rows = [list(row) for row in F.rows]
    re, im = rows[0][0]
    rows[0][0] = (-im, re)
    return ZiMatrix(F.zeta_exp, F.sqrt2_exp, rows)


ROUTE1_TAMPERS = [
    (models, "intertwiner_matrix", _first_entry_times_i),
    # drops beta(m, t_M) and beta(l, t_L) from every intertwiner term
    (SympSpace, "trace_mask", lambda self, w: 0),
]


@pytest.mark.parametrize("target,attr,value", ROUTE1_TAMPERS,
                         ids=[row[1] for row in ROUTE1_TAMPERS])
def test_tampered_route1_fails_three_route(monkeypatch, target, attr, value):
    """A wrong intertwiner at d1n1 makes route 1's composite not
    proportional to its target; the run goes on and exactly
    cocycle.three-route FAILs, as the fourth power is read off route 2."""
    monkeypatch.setattr(target, attr, value)
    _assert_fails_exactly(verify.cocycle_checks_small(), {"cocycle.three-route"})


pack_M = models.CharacterSum.pack_M
gauss_scalar = verify.gauss_scalar
r_terms = SympSpace.r_terms


def _last_term_without_r(self, M_rows, N_rows, L_rows):
    """r_terms with its last entry's N position set to 0: r(m) read as 0
    at one element m of M.  (At d1n1 every nonzero element of a span has
    position 1, so swapping an entry's N and L positions changes nothing
    there.)"""
    terms = r_terms(self, M_rows, N_rows, L_rows)
    i, _, k, b = terms[-1]
    return terms[:-1] + ((i, 0, k, b),)


ROUTE23_TAMPERS = [
    # route 2 only: term 0 turns by -1, which keeps C^4 = -4
    (models.CharacterSum, "pack_M", lambda self, eM: pack_M(self, eM) + 2,
     {"cocycle.three-route"}),
    # route 3 only; the fourth power is read off route 2
    (verify, "gauss_scalar", lambda *args: gaussian_mul(gauss_scalar(*args), I),
     {"cocycle.three-route"}),
    # routes 2 and 3; route 2's C^4 = -4 then fails on 16 triples
    (SympSpace, "r_terms", _last_term_without_r,
     {"cocycle.three-route", "cocycle.fourth-power"}),
]


@pytest.mark.parametrize("target,attr,value,families", ROUTE23_TAMPERS,
                         ids=[row[1] for row in ROUTE23_TAMPERS])
def test_tampered_route23_fails_three_route(monkeypatch, target, attr, value,
                                            families):
    """A wrong digit of route 2's character sum, a wrong route 3 scalar, or
    a wrong r_terms entry, which both routes read, at d1n1: the run goes on
    and exactly the named families FAIL."""
    monkeypatch.setattr(target, attr, value)
    _assert_fails_exactly(verify.cocycle_checks_small(), families)


def _last_term_N_L_swapped(self, M_rows, N_rows, L_rows):
    """r_terms with its last entry's N and L positions swapped."""
    terms = r_terms(self, M_rows, N_rows, L_rows)
    i, j, k, b = terms[-1]
    return terms[:-1] + ((i, k, j, b),)


def test_tampered_r_terms_fails_sampled_three_route_without_raising(
        monkeypatch):
    """At d2n1 the swapped entry leaves route 3's defect sigma, read on
    the drawn lifts, matching no linear character on 6 of the 20 draws:
    route 3 then gives None, a disagreement, and the sampled run goes on.
    Route 2 reads the same entry, so its fourth power and the oriented
    identity fail too."""
    monkeypatch.setattr(SympSpace, "r_terms", _last_term_N_L_swapped)
    route3 = []

    def recorded_gauss_scalar(*args):
        route3.append(gauss_scalar(*args))
        return route3[-1]

    monkeypatch.setattr(verify, "gauss_scalar", recorded_gauss_scalar)
    checks = verify.cocycle_checks_sampled(2, 1, 20, 0)
    assert sum(c is None for c in route3) == 6
    _assert_fails_exactly(checks, {"cocycle.three-route",
                                   "cocycle.fourth-power",
                                   "cocycle.oriented-identity"})


def _sigma_from_the_frames(sp, eN, eM, eL, lifted):
    """Route 3 on the gram of the drawn lifts, but with sigma read against
    the canonical enhancements of the initial lifts of the subspaces."""
    frames = (sp.enhance_from_lift(sp.initial_lift(e.rows)) for e in (eN, eM, eL))
    return gauss_scalar(sp, eN, eM, eL, lifted._replace(canon=tuple(frames)))


@pytest.mark.parametrize("d,n", [(1, 2), (2, 1)])
def test_route3_with_sigma_from_the_frames_fails_sampled_three_route(
        monkeypatch, d, n):
    """Route 3 must read sigma and the gram on the same lifts: with sigma
    taken against the initial lifts while the gram is that of the drawn
    lifts, the sampled run goes on and exactly cocycle.three-route FAILs
    (the oriented identity reads the drawn lifts' own enhancements)."""
    monkeypatch.setattr(verify, "gauss_scalar", _sigma_from_the_frames)
    _assert_fails_exactly(verify.cocycle_checks_sampled(d, n, 20, 0),
                          {"cocycle.three-route"})


draw_outside = symplectic._draw_outside
random_symmetric = SympSpace._random_symmetric


def _upper_triangular(self, rng):
    """_random_symmetric with its lower triangle set to 0."""
    S = random_symmetric(self, rng)
    return [[x if j >= i else 0 for j, x in enumerate(row)]
            for i, row in enumerate(S)]


SAMPLER_TAMPERS = [
    # the walk redraws only v = 0, so v may lie in span(v_1..v_i)
    (symplectic, "_draw_outside",
     lambda basis, echelon, rng: draw_outside(basis, {}, rng),
     "sampled subspace is not Lagrangian"),
    # S (and T) not symmetric: L is not isotropic
    (SympSpace, "_random_symmetric", _upper_triangular,
     "sampled subspace is not Lagrangian"),
    # T never checked for invertibility: M may meet L
    (SympSpace, "_invertible_k", lambda self, A: True,
     "sampled triple is not pairwise transversal"),
]


@pytest.mark.parametrize("target,attr,value,message", SAMPLER_TAMPERS,
                         ids=[row[1] for row in SAMPLER_TAMPERS])
def test_tampered_sampler_raises_its_invariant(monkeypatch, target, attr,
                                               value, message):
    """A walk that may draw v inside the span, an S that is not symmetric
    or a T that is never checked for invertibility: seeded triple draws at
    d1n2 raise the sampler's RuntimeError instead of returning a triple."""
    monkeypatch.setattr(target, attr, value)
    sp = SympSpace(ring(1), 2)
    rng = random.Random(0)
    with pytest.raises(RuntimeError, match=message):
        for _ in range(100):
            sp.sample_transversal_triple(rng)


def test_tampered_r_terms_reaches_routes_2_and_3(monkeypatch):
    """Under the r_terms row above, route 2 disagrees with route 1 on 32 of
    the 48 enhanced triples at d1n1 and route 3 on 24."""
    monkeypatch.setattr(SympSpace, "r_terms", _last_term_without_r)
    sp = SympSpace(ring(1), 1)
    by_rows = {}
    for e in enumerate_enhanced(sp):
        by_rows.setdefault(e.rows, []).append(e)
    off2 = off3 = 0
    for t in verify._fibred(sp, by_rows):
        c1 = models.composition_scalar(sp, *t)
        off2 += models.formula_scalar(sp, *t) != c1
        frames = (sp.initial_lift(e.rows) for e in t)
        off3 += models.gauss_scalar(sp, *t, models.lift_gauss(sp, *frames)) != c1
    assert (off2, off3) == (32, 24)


def _identity_like(M):
    """The identity operator of M's shape."""
    return ZiMatrix.monomial([(0, j) for j in range(M.shape[0])], M.shape[1])


# one h of H(V) at d1n1 that is not central: (e_1, 0), e_1 packed
H_ZETA = (SympSpace(ring(1), 1).pack((1, 0)), 0)


def _pi_times_zeta_at_one_h(e, h):
    """pi_matrix with pi(H_ZETA) times zeta: every |tr pi(h)|^2, so the
    character norm, stays as it was, but pi(x) pi(y) = pi(xy) breaks."""
    pi_h = pi_matrix(e, h)
    return pi_h.scaled(1, 0) if h == H_ZETA else pi_h


def _h_mul_beta_swapped(space, h1, h2):
    """H(V)'s product with beta(v2, v1) for beta(v1, v2): the opposite
    group, on which pi(x) pi(y) = pi(xy) fails for non-commuting x, y."""
    (v1, z1), (v2, z2) = h1, h2
    R = space.R
    return v1 ^ v2, R.add(R.add(z1, z2), space.beta(v2, v1))


# test id -> (family, target, attribute, value, the other families it fails)
WEIL_TAMPERS = {
    # pi(h) = 1 commutes with every W(a), so Egorov still holds
    "weil.heisenberg-commutant": (
        "weil.heisenberg-commutant", verify, "pi_matrix",
        lambda e, h: _identity_like(pi_matrix(e, h)), set()),
    # W(a) = 1 is a representation, with a trivial cocycle and coboundary
    "weil.commutant": (
        "weil.commutant", WeilRepresentation, "operator",
        lambda self, a: _identity_like(weil_operator(self, a)),
        {"weil.egorov", "weil.split-vs-enhanced"}),
    # W(a) pi(h) against pi(h) W(a), with pi(h) in place of pi(a h)
    "weil.egorov": (
        "weil.egorov", heisenberg.AspElement, "apply_h", lambda self, h: h,
        set()),
    # the group-closure half of the Schur check is not vacuous; Egorov
    # refuses every pair whose pi carries the zeta
    "weil.heisenberg-commutant-closure": (
        "weil.heisenberg-commutant", verify, "pi_matrix",
        _pi_times_zeta_at_one_h, {"weil.egorov"}),
    # H(V)'s product itself: the Cayley table the closure reads is wrong
    "weil.heisenberg-commutant-product": (
        "weil.heisenberg-commutant", heisenberg, "h_mul", _h_mul_beta_swapped,
        set()),
}


@pytest.mark.parametrize("family,target,attr,value,also", WEIL_TAMPERS.values(),
                         ids=list(WEIL_TAMPERS))
def test_tampered_weil_fails_its_family(monkeypatch, family, target, attr,
                                        value, also):
    monkeypatch.setattr(target, attr, value)
    _assert_fails_exactly(verify.suite_weil(), {family} | also)


# P = P^-1 in Sp(V) at d1n1, which does not commute with the e<->f swap
P_D1N1 = ((1, 1), (0, 1))
residue_polarization = heisenberg.residue_polarization


def _polarization_at_conjugate(sp, g):
    """residue_polarization read at P g P: the solvable set becomes P O P,
    two elements with the identity, but without the swap."""
    mul = heisenberg._sp_k_mul
    return residue_polarization(sp, mul(sp, mul(sp, P_D1N1, g), P_D1N1))


symplectic_lift_matrix = verify.symplectic_lift_matrix

INTRO_TAMPERS = [
    ("intro.solvable-iff-orthogonal", verify, "preserves_residue_quadratic",
     lambda sp, g: True, set()),
    # every g gets the identity's lift, which reduces to the identity
    ("intro.affine-lift-exists", verify, "symplectic_lift_matrix",
     lambda sp, g: symplectic_lift_matrix(sp, ((1, 0), (0, 1))), set()),
    # every g passes the V x generators check, so every g is solvable
    ("intro.two-of-six", heisenberg, "polarizes", lambda *args: True,
     {"intro.solvable-iff-orthogonal"}),
    ("intro.identity-and-swap", verify, "residue_polarization",
     _polarization_at_conjugate, {"intro.solvable-iff-orthogonal"}),
]


@pytest.mark.parametrize("family,target,attr,value,also", INTRO_TAMPERS,
                         ids=[row[0] for row in INTRO_TAMPERS])
def test_tampered_intro_fails_its_family(monkeypatch, family, target, attr,
                                         value, also):
    monkeypatch.setattr(target, attr, value)
    _assert_fails_exactly(verify.suite_intro(), {family} | also)


wedge_identity_checks = verify.wedge_identity_checks
trace_form = witt.trace_form
counts_rank = witt.counts_rank
omega_tilde_L_gram = SympSpace.omega_tilde_L_gram


def _gram_plus_two(self, Mt, Nt, Lt):
    """omega_tilde_L_gram with 2 added to its first entry: det moves by 2
    times a unit at n = 1."""
    gram = [list(row) for row in omega_tilde_L_gram(self, Mt, Nt, Lt)]
    gram[0][0] = self.R.add(gram[0][0], self.R.two)
    return tuple(map(tuple, gram))


DISC_TAMPERS = [
    # rank-1 grams only: [R, tr] of the unit form gets determinant -1
    ("disc.trace-form-unit", witt, "trace_form",
     lambda R, B: witt.neg_gram(trace_form(R, B)) if len(B) == 1
     else trace_form(R, B), set()),
    ("disc.trace-vs-norm.d2", witt, "ring_disc", lambda R, B: R.one, set()),
    ("disc.four-term-combination", witt, "counts_rank",
     lambda counts: counts_rank(counts) + 1, set()),
    # the four-term combination reads the same gram
    ("disc.wedge-identity", SympSpace, "omega_tilde_L_gram", _gram_plus_two,
     {"disc.four-term-combination"}),
]


@pytest.mark.parametrize("family,target,attr,value,also", DISC_TAMPERS,
                         ids=[row[0] for row in DISC_TAMPERS])
def test_tampered_disc_fails_its_family(monkeypatch, family, target, attr,
                                        value, also):
    """A wrong trace form, discriminant, rank or r-map gram makes exactly
    the named disc families FAIL.  verify.wedge_identity_checks is stubbed
    to its d1n1 sweep for both shapes (48 lift triples instead of the
    245,760 of d1n2); the first three rows mutate nothing it reads."""
    monkeypatch.setattr(verify, "wedge_identity_checks",
                        lambda d, n: wedge_identity_checks(1, 1))
    monkeypatch.setattr(target, attr, value)
    _assert_fails_exactly(verify.suite_disc(0), {family} | also)


zi_product, zi_rows = models._zi_product, models._zi_rows


def _real_part(X):
    return ZiMatrix(0, 0, [[(re, 0) for re, _ in row] for row in X.rows])


def _product_without_q(X, Y):
    """_zi_product with every ai * Q_k term dropped: the imaginary parts of
    the left operand are read as 0."""
    return zi_product(_real_part(X), Y)


def _rows_without_q(X, PQ):
    """The same mutation in the kernel, _zi_rows, which `@` and
    ZiMatrix.product_ratio share."""
    return zi_rows(_real_part(X), PQ)


def _matmul_without_q(self, other):
    return ZiMatrix(self.zeta_exp + other.zeta_exp,
                    self.sqrt2_exp + other.sqrt2_exp,
                    _product_without_q(self, other))


# (suite, the families a faulty `@` fails, the families that read the
# kernel only through products compared on packed rows)
KERNEL_TAMPERS = [
    (verify.suite_trivialization,
     {"trivialization.multiplicative", "trivialization.auxiliary-independence",
      "trivialization.materialized-16x16"}, set()),
    # egorov, every cocycle family, and weil.commutant, whose closure reads
    # the cocycle values; the other weil checks still pass.  pi's closure
    # in weil.heisenberg-commutant is compared on packed rows, never by `@`
    (verify.suite_weil,
     {"weil.egorov", "weil.cocycle-mu4", "weil.cocycle-identity",
      "weil.split-cocycle-mu2", "weil.object-independence", "weil.commutant"},
     {"weil.heisenberg-commutant"}),
]


@pytest.mark.parametrize("run,families,packed", KERNEL_TAMPERS,
                         ids=["trivialization", "weil"])
def test_product_kernel_without_q_fails(monkeypatch, run, families, packed):
    """Products by the kernel without its ai * Q_k term."""
    monkeypatch.setattr(ZiMatrix, "__matmul__", _matmul_without_q)
    _assert_fails_exactly(run(), families)


@pytest.mark.parametrize("run,families,packed", KERNEL_TAMPERS,
                         ids=["trivialization", "weil"])
def test_kernel_without_q_fails_inside_inverses(monkeypatch, run, families,
                                                packed):
    """The same mutation in the kernel itself, which every product and every
    product compared on packed rows reads: ZiMatrix.inverse checks
    A A* = c I by row inner products, not by the kernel, so the suites run
    to the end and fail the families above and those that compare products
    on packed rows only."""
    monkeypatch.setattr(models, "_zi_rows", _rows_without_q)
    _assert_fails_exactly(run(), families | packed)


gaussian_monomial = models.gaussian_monomial


def _without_b(p, q):
    """gaussian_monomial with e read as 2k, without its + b."""
    r = gaussian_monomial(p, q)
    return None if r is None else ((r[0] - r[1]) % 8, r[1])


def _k_off_by_one_at_odd_b(p, q):
    """gaussian_monomial with k one too large when b is odd."""
    r = gaussian_monomial(p, q)
    return None if r is None else ((r[0] + 2 * (r[1] % 2)) % 8, r[1])


RULE_TAMPERS = [
    # weil.commutant reads its closure off the cocycle values
    (_without_b,
     {"trivialization.multiplicative", "trivialization.auxiliary-independence",
      "trivialization.materialized-16x16", "weil.cocycle-mu4",
      "weil.cocycle-identity", "weil.split-vs-enhanced",
      "weil.object-independence", "weil.commutant", "cocycle.three-route",
      "splitting.multiplicative", "splitting.square-is-trivialization"}),
    # power-4 transports cannot see it, since 4 * 2 = 0 (mod 8)
    (_k_off_by_one_at_odd_b,
     {"weil.cocycle-identity", "weil.object-independence",
      "cocycle.three-route"}),
]


@pytest.mark.parametrize("rule,families", RULE_TAMPERS,
                         ids=[row[0].__name__ for row in RULE_TAMPERS])
def test_tampered_monomial_rule_fails_exactly(monkeypatch, rule, families):
    """A wrong exponent rule in the operator ratios and in the splitting
    scalar's Gauss sum: the trivialization, weil, d1n1 cocycle and
    splitting runs go on, and exactly the named families FAIL."""
    monkeypatch.setattr(models, "gaussian_monomial", rule)
    monkeypatch.setattr(transport, "gaussian_monomial", rule)
    checks = (verify.suite_trivialization() + verify.suite_weil()
              + verify.cocycle_checks_small() + verify.suite_splitting(0))
    _assert_fails_exactly(checks, families)
