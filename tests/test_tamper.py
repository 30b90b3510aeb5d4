"""Every check family of the witt, trivialization and splitting suites,
cocycle.three-route, weil.heisenberg-commutant, weil.commutant and three of
the four intro families can FAIL: each row of the tables below mutates one
function or constant of weil2 and names the family that must then fail,
together with any other family the same mutation breaks.  The suite must
still run to the end and report the failures, at every shape of each such
family.  A family is a check name without its .dXnY suffix."""

import re

import pytest

from weil2 import heisenberg, models, verify, witt
from weil2.cyclotomic import I, ONE
from weil2.models import ZiMatrix
from weil2.symplectic import SympSpace
from weil2.transport import ScaledTransport
from weil2.weil import WeilRepresentation

compose = ScaledTransport.compose
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
    return ScaledTransport(T.scalar * I, T.matrix, T.power)


def _negated_compose(self, other):
    T = compose(self, other)
    return ScaledTransport(-T.scalar, T.matrix, T.power)


def _unscaled_materialization(T):
    """materialize_transport without its scalar."""
    P = out = T.matrix
    for _ in range(T.power - 1):
        out = out.kron(P)
    return out


TAMPERS = [
    ("witt.purity.rank<=3", "gauss_sum",
     _gauss_sum_at_rank(2, lambda G: G * (ONE + I)), {"gw.gauss-fourth-power"}),
    ("witt.decompose-witness", "decompose", _identity_witness, set()),
    ("witt.rel1", "REL1_WITNESS",
     tuple(tuple(int(i == j) for j in range(4)) for i in range(4)), set()),
    ("witt.rel2", "REL2_WITNESS", IDENTITY3, set()),
    ("witt.rel3", "REL3_WITNESS", IDENTITY3, set()),
    ("witt.gauss-of-one", "gauss_sum",
     _gauss_sum_at_rank(1, lambda G: G.conj()), set()),
    ("gw.additive", "gw_exponent",
     _gw_exponent_plus(1, lambda counts: witt.counts_rank(counts) >= 3),
     {"gw.generator-order", "gw.vanishing"}),
    ("gw.generator-order", "gw_exponent",
     _gw_exponent_plus(4, lambda counts: counts[3] > 0), {"gw.additive"}),
    ("gw.gauss-fourth-power", "gauss_sum",
     _gauss_sum_at_rank(4, lambda G: -G), set()),
    ("gw.vanishing", "counts_disc", lambda counts: 1, set()),
]


TRANSPORT_TAMPERS = [
    ("trivialization.multiplicative", ScaledTransport, "compose",
     _negated_compose),
    ("trivialization.auxiliary-independence", verify, "trivializing_scalar",
     lambda space: trivializing_scalar(space) * I),
    ("trivialization.materialized-16x16", verify, "materialize_transport",
     _unscaled_materialization),
    ("splitting.multiplicative", ScaledTransport, "compose", _negated_compose),
    ("splitting.square-is-trivialization", verify, "transport_square",
     lambda S: _times_i(transport_square(S))),
    ("splitting.gauss-conj-symmetry", witt, "gauss_sum",
     lambda B: gauss_sum(B) * I if len(B) == 3 and witt.det4(B) % 2 == 0
     else gauss_sum(B)),
    ("splitting.norm-coeff-identity", verify, "_norm_coeff",
     lambda sp, oM, oL: norm_coeff(sp, oM, oL) * I),
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


def _identity_like(M):
    """The identity operator of M's shape."""
    return ZiMatrix.monomial([(0, j) for j in range(M.shape[0])], M.shape[1])


WEIL_TAMPERS = [
    # pi(h) = 1 commutes with every W(a), so Egorov still holds
    ("weil.heisenberg-commutant", verify, "pi_matrix",
     lambda e, h: _identity_like(pi_matrix(e, h)), set()),
    # W(a) = 1 is a representation, with a trivial cocycle and coboundary
    ("weil.commutant", WeilRepresentation, "operator",
     lambda self, a: _identity_like(weil_operator(self, a)),
     {"weil.egorov", "weil.split-vs-enhanced"}),
]


@pytest.mark.parametrize("family,target,attr,value,also", WEIL_TAMPERS,
                         ids=[row[0] for row in WEIL_TAMPERS])
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


INTRO_TAMPERS = [
    ("intro.solvable-iff-orthogonal", verify, "preserves_residue_quadratic",
     lambda sp, g: True, set()),
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
