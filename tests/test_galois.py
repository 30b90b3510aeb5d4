"""Galois rings GR(4, d) for d = 1..4.

The defining moduli, unit counts and trace/norm behaviour are frozen from
independent computation; everything downstream depends on these tables.
"""

import random

import pytest

from weil2.galois import graeffe_lift, is_irreducible_f2, ring

# (d, modulus low->high, |R|, |R^x|, residue field size)
RING_TABLE = [
    (1, (3, 1), 4, 2, 2),
    (2, (1, 1, 1), 16, 12, 4),
    (3, (3, 1, 2, 1), 64, 56, 8),
    (4, (1, 3, 2, 0, 1), 256, 240, 16),
]


@pytest.mark.parametrize("d,modulus,size,units,fsize", RING_TABLE)
def test_ring_tables(d, modulus, size, units, fsize):
    R = ring(d)
    assert R.modulus == modulus
    assert R.size == size
    assert len(R.units) == units
    assert R.field_size == fsize
    assert R.two == R.add(R.one, R.one)


def test_graeffe_lift_irreducible():
    # x^2 + x + 1 over F2 lifts to x^2 + x + 1 over Z4 (coefficients mod 4).
    assert graeffe_lift((1, 1, 1)) == (1, 1, 1)
    assert is_irreducible_f2((1, 1, 1))
    assert not is_irreducible_f2((1, 0, 1))  # x^2 + 1 = (x+1)^2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ring_axioms_exhaustive(d):
    R = ring(d)
    for a in range(R.size):
        assert R.add(a, R.zero) == a
        assert R.mul(a, R.one) == a
        assert R.add(a, R.neg(a)) == R.zero
        assert R.mul(R.two, R.mul(R.two, a)) == R.zero  # 4 = 0
    rng = random.Random(d)
    for _ in range(300):
        a, b, c = (rng.randrange(R.size) for _ in range(3))
        assert R.mul(a, b) == R.mul(b, a)
        assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
        assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_units_and_inverses(d):
    R = ring(d)
    for u in R.units:
        assert R.is_unit(u)
        assert R.mul(u, R.inv(u)) == R.one
    # non-units are exactly 2R, which has field_size elements
    assert len(R.units) == R.size - R.field_size


def test_two_torsion():
    assert ring(1).two_torsion() == (0, 2)
    assert ring(2).two_torsion() == (0, 2, 8, 10)
    for d in (1, 2, 3):
        R = ring(d)
        tt = R.two_torsion()
        assert len(tt) == R.field_size
        for a in tt:
            assert R.add(a, a) == R.zero


@pytest.mark.parametrize("d", [1, 2, 3])
def test_frobenius_order(d):
    R = ring(d)
    for a in range(R.size):
        x = a
        for _ in range(d):
            x = R._frob[x]
        assert x == a


def test_trace_surjective_and_witness():
    for d in (1, 2, 3, 4):
        R = ring(d)
        values = {R.trace(a) for a in range(R.size)}
        assert values == {0, 1, 2, 3}
    # first trace-one element of GR(4,2), used as a section witness
    R2 = ring(2)
    assert R2.trace(5) == 1
    assert next(a for a in range(16) if R2.trace(a) == 1) == 5


@pytest.mark.parametrize("d", [1, 2, 3])
def test_trace_and_norm_multiplicativity(d):
    R = ring(d)
    rng = random.Random(100 + d)
    for _ in range(200):
        a, b = rng.randrange(R.size), rng.randrange(R.size)
        assert R.trace(R.add(a, b)) == (R.trace(a) + R.trace(b)) % 4
    # the norm is only defined on units, where it is multiplicative
    for u in R.units:
        assert R.norm(u) in (1, 3)
        for v in (R.units[0], R.units[-1]):
            assert R.norm(R.mul(u, v)) == (R.norm(u) * R.norm(v)) % 4


def test_psi_character():
    for d in (1, 2):
        R = ring(d)
        for a in range(R.size):
            for b in range(R.size):
                assert R.psi_exp(R.add(a, b)) == \
                    (R.psi_exp(a) + R.psi_exp(b)) % 4


@pytest.mark.parametrize("d", [1, 2, 3])
def test_reduce_lift_section(d):
    R = ring(d)
    for a in range(R.size):
        m = R.reduce(a)
        assert 0 <= m < R.field_size
        assert R.reduce(R.lift(m)) == m
    # Teichmueller-style section is multiplicative on the residue field
    for m1 in range(R.field_size):
        for m2 in range(R.field_size):
            prod = R.field_mul(m1, m2)
            assert R.reduce(R.mul(R.lift(m1), R.lift(m2))) == prod


@pytest.mark.parametrize("d", [1, 2, 3])
def test_field_inverse(d):
    """The lift of a nonzero residue is a unit, and its ring inverse
    reduces to the inverse over k."""
    R = ring(d)
    for m in range(1, R.field_size):
        assert R.field_mul(m, R.reduce(R.inv(R.lift(m)))) == 1


def test_disc_class_squares():
    for d in (1, 2, 3):
        R = ring(d)
        squares = {R.mul(u, u) for u in R.units}
        assert set(R.unit_squares) == squares
        for u in R.units:
            # disc_class is constant on cosets of the squares
            for s in R.unit_squares:
                assert R.disc_class(R.mul(u, s)) == R.disc_class(u)


def test_z4_coords_and_round_trip():
    R = ring(3)
    for c in range(4):
        assert R.coords(c) == (c, 0, 0)
    for a in range(R.size):
        assert R.from_coords(R.coords(a)) == a
