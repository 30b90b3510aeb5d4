"""Unimodular symmetric forms over Z/4 and their block decompositions.

Counts tuples are (n1, n3, nh, nm): multiplicities of <1>, <3>, the
hyperbolic plane and the even plane M4.  The histograms below were frozen
from an exhaustive sweep of every unimodular gram of the given rank.
"""

import hashlib
import random

import pytest

from weil2 import linalg, witt
from weil2.cyclotomic import ONE, SQRT2, ZETA, Cyc8
from weil2.galois import ring

RANK1_HIST = {(0, 1, 0, 0): 1, (1, 0, 0, 0): 1}
RANK2_HIST = {
    (0, 0, 0, 1): 2,
    (0, 0, 1, 0): 6,
    (0, 2, 0, 0): 6,
    (1, 1, 0, 0): 12,
    (2, 0, 0, 0): 6,
}
RANK3_HIST = {
    (0, 1, 0, 1): 56,
    (0, 1, 1, 0): 168,
    (0, 3, 0, 0): 168,
    (1, 0, 0, 1): 56,
    (1, 0, 1, 0): 168,
    (1, 2, 0, 0): 504,
    (2, 1, 0, 0): 504,
    (3, 0, 0, 0): 168,
}


def test_validate_gram():
    assert witt.validate_gram(((1, 2), (2, 3))) == ((1, 2), (2, 3))
    with pytest.raises(ValueError):
        witt.validate_gram(((1, 2), (3, 3)))  # not symmetric
    with pytest.raises(ValueError):
        witt.validate_gram(((2,),))  # not unimodular


def test_block_forms():
    assert witt.HYP == ((0, 1), (1, 0))
    assert witt.M4 == ((2, 1), (1, 2))
    assert witt.det4(witt.HYP) == 3
    assert witt.det4(witt.M4) == 3
    assert witt.det4(((1,),)) == 1
    assert witt.det4(((3,),)) == 3


@pytest.mark.parametrize("r,hist", [(1, RANK1_HIST), (2, RANK2_HIST), (3, RANK3_HIST)])
def test_decomposition_histograms(r, hist):
    got = {}
    for B in witt.all_unimodular_grams(r):
        counts, _ = witt.decompose(B)
        got[counts] = got.get(counts, 0) + 1
    assert got == hist
    assert sum(hist.values()) == len(list(witt.all_unimodular_grams(r)))


def test_decompose_witness_conjugates_to_canonical():
    for r in (1, 2):
        for B in witt.all_unimodular_grams(r):
            counts, U = witt.decompose(B)
            assert witt.apply_congruence(U, B) == witt.canonical_gram(counts)


def test_relation_witnesses():
    m4m4 = witt.direct_sum(witt.M4, witt.M4)
    hh = witt.direct_sum(witt.HYP, witt.HYP)
    assert witt.apply_congruence(witt.REL1_WITNESS, m4m4) == hh

    d111 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert witt.apply_congruence(witt.REL2_WITNESS, d111) == \
        witt.direct_sum(((3,),), witt.M4)

    d333 = ((3, 0, 0), (0, 3, 0), (0, 0, 3))
    assert witt.apply_congruence(witt.REL3_WITNESS, d333) == \
        witt.direct_sum(((1,),), witt.M4)


def test_is_isometric():
    d111 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert witt.is_isometric(d111, witt.direct_sum(((3,),), witt.M4))
    assert witt.is_isometric(witt.direct_sum(witt.M4, witt.M4),
                             witt.direct_sum(witt.HYP, witt.HYP))
    assert not witt.is_isometric(((1,),), ((3,),))
    assert not witt.is_isometric(witt.HYP, witt.M4)
    with pytest.raises(ValueError):
        witt.is_isometric(witt.canonical_gram((5, 0, 0, 0)),
                          witt.canonical_gram((5, 0, 0, 0)))


def test_is_isometric_on_rank_zero():
    """The empty gram is isometric to itself: one empty frame, whose
    empty determinant is 1."""
    assert witt.is_isometric((), ())
    assert not witt.is_isometric((), ((1,),))


def test_is_isometric_stops_at_its_first_isometry(monkeypatch):
    """M4 + M4 and hyp + hyp have 73,728 isometries between them; the
    search returns after a handful of live steps, not after listing them
    (60,065 live steps)."""
    calls = []
    frames = linalg.frames

    def counted(levels, live):
        def counting(rows, level):
            calls.append(rows)
            return live(rows, level)
        return frames(levels, counting)

    monkeypatch.setattr(linalg, "frames", counted)
    assert witt.is_isometric(witt.direct_sum(witt.M4, witt.M4),
                             witt.direct_sum(witt.HYP, witt.HYP))
    assert 4 <= len(calls) <= 32


def _cyc(z):
    re, im = z
    return Cyc8((re, 0, im, 0))


def test_gauss_sums():
    """Gaussian integers (re, im); the Cyc8 of G(<1>) = 1 + i has eighth
    power 16."""
    assert witt.gauss_sum(((1,),)) == (1, 1)
    assert _cyc(witt.gauss_sum(((1,),))) ** 8 == ONE * 16
    assert witt.gauss_sum(((3,),)) == (1, -1)
    assert witt.gauss_sum(witt.HYP) == (2, 0)
    assert witt.gauss_sum(witt.M4) == (-2, 0)
    assert witt.gauss_sum(()) == (1, 0)


def test_gauss_purity_rank2():
    for B in witt.all_unimodular_grams(2):
        re, im = witt.gauss_sum(B)
        assert re * re + im * im == 4


def test_gauss_matches_class_invariant():
    for r in (1, 2):
        for B in witt.all_unimodular_grams(r):
            counts, _ = witt.decompose(B)
            assert _cyc(witt.gauss_sum(B)) == \
                ZETA ** witt.gw_exponent(counts) * \
                SQRT2 ** witt.counts_rank(counts)


def test_gw_exponent_table():
    """class(<1>) generates a cyclic group of order 8; M4 sits at 4."""
    got = []
    for k in range(1, 9):
        diag = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
        got.append(_gw(diag))
    assert got == [1, 2, 3, 4, 5, 6, 7, 0]
    assert _gw(witt.M4) == 4
    assert _gw(witt.HYP) == 0


def _gw(B):
    return witt.gw_exponent(witt.decompose(B)[0])


def test_witt_class_addition_and_stability():
    def invariants(counts):
        return (witt.counts_rank(counts), witt.counts_disc(counts),
                witt.gw_exponent(counts))

    s, _ = witt.decompose(witt.direct_sum(((1,),), ((3,),)))
    hyp, _ = witt.decompose(witt.HYP)
    m4, _ = witt.decompose(witt.M4)
    # <1> + <3> and HYP have the same invariants but different counts
    assert invariants(s) == invariants(hyp) != invariants(m4)
    assert s != hyp


def test_scale_and_neg():
    B = ((1, 2), (2, 3))
    assert witt.neg_gram(B) == ((3, 2), (2, 1))


def test_trace_form_discriminant_is_one():
    """d([R, tr]) = 1 for the rank-one trace form, d = 1 and 2."""
    for d in (1, 2):
        R = ring(d)
        B = witt.trace_form(R, ((R.one,),))
        counts, _ = witt.decompose(B)
        assert len(B) == d
        assert witt.counts_disc(counts) == 1


def test_ring_gauss_and_disc_consistency():
    R = ring(2)
    B = ((R.one,),)
    assert witt.ring_disc(R, B) in R.units


def _pinned_grams():
    """The empty gram, every unimodular gram of rank <= 3, and a seeded
    list of unimodular grams of rank 4 to 8 whose diagonals are mostly
    even, so that both splitting cases run at every depth."""
    yield ()
    for r in (1, 2, 3):
        yield from witt.all_unimodular_grams(r)
    rng = random.Random(22)
    for r in range(4, 9):
        found = 0
        while found < 40:
            M = [[0] * r for _ in range(r)]
            for i in range(r):
                M[i][i] = rng.choice((0, 0, 2, 2, 2, 1, 3) if i % 2 else (0, 2))
                for j in range(i + 1, r):
                    M[i][j] = M[j][i] = rng.randrange(4)
            B = tuple(tuple(row) for row in M)
            if witt.det4(B) % 2:
                found += 1
                yield B


def test_decompose_output_is_pinned():
    """The blocks and the witness U that decompose picks for each pinned
    gram, byte for byte: its choices (first odd vector, first unit entry,
    block order) are part of what `witt classify` prints."""
    digest = hashlib.sha256()
    count = 0
    for B in _pinned_grams():
        digest.update(repr((B, witt.decompose(B))).encode())
        count += 1
    assert count == 1 + 1826 + 5 * 40
    assert digest.hexdigest() == \
        "98a916e5c27c267f86abd4067bfb9506866840f2d161ba5f7de7d8eb7fd072d4"
