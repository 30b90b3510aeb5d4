"""Every check family of the witt suite can FAIL: each row of the table
below mutates one function or constant of weil2.witt and names the family
that must then fail, together with any other family the same mutation
breaks.  The suite must still run to the end and report the failures.
A family is a check name without its .dXnY suffix."""

import pytest

from weil2 import verify, witt
from weil2.cyclotomic import I, ONE

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


@pytest.mark.parametrize("family,attr,value,also", TAMPERS,
                         ids=[row[0] for row in TAMPERS])
def test_tampered_witt_fails_its_family(monkeypatch, family, attr, value, also):
    monkeypatch.setattr(witt, attr, value)
    failed = {c.name for c in verify.suite_witt() if not c.passed}
    assert failed == {family} | also
